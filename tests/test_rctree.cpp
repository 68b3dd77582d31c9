#include "parasitics/rctree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "liberty/synthlib.hpp"
#include "netlist/designgen.hpp"
#include "parasitics/spef.hpp"
#include "parasitics/wiregen.hpp"
#include "sta/annotate.hpp"
#include "sta/engine.hpp"

namespace nsdc {
namespace {

// Two-segment line: root -R1- n1 -R2- n2, caps C1 at n1, C2 at n2.
RcTree line2(double r1, double c1, double r2, double c2) {
  RcTree t;
  const int n1 = t.add_node(0, r1, c1);
  const int n2 = t.add_node(n1, r2, c2);
  t.mark_sink(n2, "Z");
  return t;
}

TEST(RcTree, ElmoreLineHandComputed) {
  // Elmore to n2 = R1*(C1+C2) + R2*C2.
  const RcTree t = line2(100.0, 1e-15, 200.0, 2e-15);
  EXPECT_NEAR(t.elmore(2), 100.0 * 3e-15 + 200.0 * 2e-15, 1e-25);
  // Elmore to n1 = R1*(C1+C2).
  EXPECT_NEAR(t.elmore(1), 100.0 * 3e-15, 1e-25);
}

TEST(RcTree, ElmoreBranchedTree) {
  // Root - R1 - A; A - R2 - B (cap Cb); A - R3 - C (cap Cc).
  RcTree t;
  const int a = t.add_node(0, 100.0, 0.0);
  const int b = t.add_node(a, 200.0, 1e-15);
  const int c = t.add_node(a, 300.0, 2e-15);
  t.mark_sink(b, "B");
  t.mark_sink(c, "C");
  // Elmore(B) = R1*(Cb+Cc) + R2*Cb (R3 branch shares only R1).
  EXPECT_NEAR(t.elmore(b), 100.0 * 3e-15 + 200.0 * 1e-15, 1e-25);
  EXPECT_NEAR(t.elmore(c), 100.0 * 3e-15 + 300.0 * 2e-15, 1e-25);
}

TEST(RcTree, SecondMomentLine) {
  // For a single lumped RC (one node): m1 = RC, m2 = m1^2.
  RcTree t;
  const int n1 = t.add_node(0, 1000.0, 1e-15);
  EXPECT_NEAR(t.elmore(n1), 1e-12, 1e-24);
  EXPECT_NEAR(t.second_moment(n1), 1e-24, 1e-36);
}

TEST(RcTree, D2MEqualsLn2RCForSingleLump) {
  // Single-pole network: D2M = ln2 * m1^2/sqrt(m2) = ln2 * RC — the exact
  // 50% step-response delay of a one-pole system.
  RcTree t;
  const int n1 = t.add_node(0, 500.0, 2e-15);
  EXPECT_NEAR(t.d2m(n1), std::log(2.0) * 1e-12, 1e-20);
}

TEST(RcTree, D2MLessThanElmoreOnDistributedLine) {
  // For a distributed line D2M < Elmore (the known Elmore pessimism).
  RcTree t;
  int node = 0;
  for (int i = 0; i < 10; ++i) node = t.add_node(node, 100.0, 0.5e-15);
  EXPECT_LT(t.d2m(node), t.elmore(node));
  EXPECT_GT(t.d2m(node), 0.3 * t.elmore(node));
}

TEST(RcTree, TotalCapAndRes) {
  const RcTree t = line2(100.0, 1e-15, 200.0, 2e-15);
  EXPECT_NEAR(t.total_cap(), 3e-15, 1e-27);
  EXPECT_NEAR(t.total_res(), 300.0, 1e-9);
}

TEST(RcTree, AddCapAccumulates) {
  RcTree t = line2(100.0, 1e-15, 200.0, 2e-15);
  t.add_cap(2, 5e-15);
  EXPECT_NEAR(t.node_cap(2), 7e-15, 1e-27);
}

TEST(RcTree, SinkLookup) {
  const RcTree t = line2(1.0, 0.0, 1.0, 1e-15);
  EXPECT_EQ(t.sink_node("Z"), 2);
  EXPECT_THROW(t.sink_node("missing"), std::out_of_range);
}

TEST(RcTree, ScaledMultipliesRC) {
  const RcTree t = line2(100.0, 1e-15, 200.0, 2e-15);
  const RcTree s = t.scaled(2.0, 0.5);
  EXPECT_NEAR(s.total_res(), 600.0, 1e-9);
  EXPECT_NEAR(s.total_cap(), 1.5e-15, 1e-27);
  EXPECT_NEAR(s.elmore(2), t.elmore(2), 1e-24);  // RC product preserved here
}

TEST(RcTree, PerturbedStaysPositiveAndDeterministic) {
  const RcTree t = line2(100.0, 1e-15, 200.0, 2e-15);
  Rng a(5), b(5);
  const RcTree p1 = t.perturbed(a, 0.1, 1.1, 0.9);
  const RcTree p2 = t.perturbed(b, 0.1, 1.1, 0.9);
  EXPECT_NEAR(p1.total_res(), p2.total_res(), 1e-12);
  for (int n = 1; n < p1.num_nodes(); ++n) {
    EXPECT_GT(p1.edge_res(n), 0.0);
    EXPECT_GE(p1.node_cap(n), 0.0);
  }
  // Global factors shift the expectation.
  EXPECT_GT(p1.total_res(), t.total_res() * 0.8);
}

TEST(RcTree, Validation) {
  RcTree t;
  EXPECT_THROW(t.add_node(5, 1.0, 0.0), std::out_of_range);
  EXPECT_THROW(t.add_node(0, -1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(t.mark_sink(0, "root"), std::out_of_range);
}

TEST(RcTree, BuildSpiceStructure) {
  const RcTree t = line2(100.0, 1e-15, 200.0, 2e-15);
  Circuit ckt;
  const NodeId root = ckt.make_node("drv");
  const auto ids = t.build_spice(ckt, root, 0.6);
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], root);
  EXPECT_EQ(ckt.resistors().size(), 2u);
  EXPECT_EQ(ckt.capacitors().size(), 2u);
  EXPECT_DOUBLE_EQ(ckt.initial_voltage(ids[2]), 0.6);
}

// ------------------------------------------- linear-time moment passes

/// Brute-force R_common(i, k): edge resistances shared by both root paths.
double common_resistance_ref(const RcTree& t, int a, int b) {
  std::vector<char> on_a(static_cast<std::size_t>(t.num_nodes()), 0);
  for (int n = a; n > 0; n = t.parent(n)) {
    on_a[static_cast<std::size_t>(n)] = 1;
  }
  double r = 0.0;
  for (int n = b; n > 0; n = t.parent(n)) {
    if (on_a[static_cast<std::size_t>(n)]) r += t.edge_res(n);
  }
  return r;
}

std::vector<std::string> pin_names(std::size_t count) {
  std::vector<std::string> pins;
  for (std::size_t i = 0; i < count; ++i) {
    pins.push_back("u" + std::to_string(i) + ":0");
  }
  return pins;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(RcTree, LinearMomentsMatchPairwiseReferenceOnRandomTrees) {
  const WireGenerator gen(TechParams::nominal28());
  std::mt19937_64 pick(2024);
  std::uniform_int_distribution<std::size_t> sinks(1, 400);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t k = trial == 0 ? 1 : (trial == 1 ? 400 : sinks(pick));
    Rng rng(static_cast<std::uint64_t>(100 + trial));
    RcTree t = gen.generate(rng, pin_names(k));
    t.add_cap(0, 0.3e-15);  // root cap never enters a moment
    const int n = t.num_nodes();
    const std::vector<double> m1 = t.elmore_all();
    ASSERT_EQ(m1.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(m1[0], 0.0);

    std::vector<double> m1_ref(static_cast<std::size_t>(n), 0.0);
    for (int i = 1; i < n; ++i) {
      for (int j = 1; j < n; ++j) {
        m1_ref[static_cast<std::size_t>(i)] +=
            common_resistance_ref(t, i, j) * t.node_cap(j);
      }
    }
    for (int i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      EXPECT_NEAR(m1[ui], m1_ref[ui], 1e-12 * m1_ref[ui])
          << "trial " << trial << " node " << i;
      EXPECT_TRUE(same_bits(t.elmore(i), m1[ui]))
          << "trial " << trial << " node " << i;
    }
    // Second moment at every sink: sum_k R_common(i,k) C_k m1(k).
    for (const auto& s : t.sinks()) {
      double m2_ref = 0.0;
      for (int j = 1; j < n; ++j) {
        m2_ref += common_resistance_ref(t, s.node, j) * t.node_cap(j) *
                  m1_ref[static_cast<std::size_t>(j)];
      }
      EXPECT_NEAR(t.second_moment(s.node), m2_ref, 1e-12 * m2_ref)
          << "trial " << trial << " sink " << s.pin;
    }
  }
}

TEST(RcTree, ElmoreRejectsBadNode) {
  const RcTree t = line2(100.0, 1e-15, 200.0, 2e-15);
  EXPECT_THROW((void)t.elmore(3), std::out_of_range);
  EXPECT_THROW((void)t.elmore(-1), std::out_of_range);
  EXPECT_EQ(t.elmore(0), 0.0);
}

// SinkIndex must return sink_node's first match on both of its regimes
// (scan at <= 8 sinks, map above) with shuffled and repeated names.
TEST(RcTree, SinkIndexMatchesFirstMatchSinkNode) {
  const WireGenerator gen(TechParams::nominal28());
  for (const std::size_t k : {3u, 8u, 9u, 60u}) {
    std::vector<std::string> pins = pin_names(k);
    // Repeat a third of the names; the copies land on other leaves.
    for (std::size_t i = 0; i < k; i += 3) pins.push_back(pins[i]);
    std::mt19937_64 shuffle(k);
    std::shuffle(pins.begin(), pins.end(), shuffle);
    Rng rng(k);
    const RcTree t = gen.generate(rng, pins);
    const SinkIndex index(t);
    for (const auto& pin : pins) {
      EXPECT_EQ(index.node(pin), t.sink_node(pin)) << k << " sinks, " << pin;
    }
    EXPECT_THROW((void)index.node("missing"), std::out_of_range);
  }
}

/// Shuffles the pin lines of every *SINKS section of SPEF-lite text.
std::string shuffle_spef_sinks(const std::string& text) {
  std::istringstream is(text);
  std::ostringstream os;
  std::string line;
  std::vector<std::string> sinks;
  bool in_sinks = false;
  std::mt19937_64 shuffle(7);
  while (std::getline(is, line)) {
    if (in_sinks && line != "*END") {
      sinks.push_back(line);
      continue;
    }
    if (in_sinks) {
      std::shuffle(sinks.begin(), sinks.end(), shuffle);
      for (const auto& s : sinks) os << s << '\n';
      sinks.clear();
      in_sinks = false;
    }
    os << line << '\n';
    in_sinks = line == "*SINKS";
  }
  return os.str();
}

TEST(RcTree, FlatStaIgnoresSpefSinkOrder) {
  const CellLibrary cells = CellLibrary::standard();
  const TechParams tech = TechParams::nominal28();
  const NSigmaCellModel model = NSigmaCellModel::fit(make_synthetic_charlib());
  // Operand buses of 3 tiles x 4 bits reach 12 sinks: both SinkIndex
  // regimes run.
  const GateNetlist nl = generate_tiled_multiplier_array(4, 3, cells);
  const ParasiticDb spef = generate_parasitics(nl, tech);
  const std::string text = spef.to_spef(nl.name());
  const std::string shuffled_text = shuffle_spef_sinks(text);
  ASSERT_NE(shuffled_text, text);
  const ParasiticDb in_order = ParasiticDb::from_spef(text);
  const ParasiticDb shuffled = ParasiticDb::from_spef(shuffled_text);

  const StaEngine sta(model, tech);
  const StaEngine::Result a = sta.run(nl, in_order);
  const StaEngine::Result b = sta.run(nl, shuffled);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t n = 0; n < a.nets.size(); ++n) {
    const auto& x = a.nets[n];
    const auto& y = b.nets[n];
    EXPECT_EQ(x.reachable, y.reachable) << n;
    EXPECT_EQ(x.from_pin, y.from_pin) << n;
    for (std::size_t e = 0; e < 2; ++e) {
      EXPECT_TRUE(same_bits(x.arrival[e], y.arrival[e])) << n;
      EXPECT_TRUE(same_bits(x.slew[e], y.slew[e])) << n;
    }
    EXPECT_TRUE(same_bits(a.net_load[n], b.net_load[n])) << n;
  }
  EXPECT_TRUE(same_bits(a.max_arrival, b.max_arrival));
  EXPECT_EQ(a.critical_net, b.critical_net);
  EXPECT_EQ(a.critical_edge, b.critical_edge);
}

}  // namespace
}  // namespace nsdc
