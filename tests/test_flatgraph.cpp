// FlatTimingGraph contract tests: compile/round-trip equivalence against
// the source GateNetlist, CSR adjacency invariants, level contiguity,
// interned-name fidelity — and the bound per-arc records every engine
// reads: each record must equal the string-keyed model/Elmore/X_w lookup
// it replaces, and a cell type missing from the model must still make
// every engine throw. Plus the scale gate: a 100k-cell designgen netlist
// compiles under a wall bound, and the new 100k+ generators are
// structurally lint-clean DAGs.
#include "netlist/flatgraph.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "lint/lint.hpp"
#include "netlist/benchio.hpp"
#include "netlist/designgen.hpp"
#include "sta/annotate.hpp"
#include "sta/flatsta.hpp"
#include "liberty/synthlib.hpp"
#include "sta/netmc.hpp"
#include "sta/ssta_analytic.hpp"

namespace nsdc {
namespace {

std::string repo_path(const std::string& rel) {
  return std::string(NSDC_SOURCE_DIR) + "/" + rel;
}

/// Owns library + models + one design + its parasitics (CellInst stores
/// CellType* into the fixture's own CellLibrary, which must outlive the
/// netlist).
struct DesignFixture {
  CellLibrary cells = CellLibrary::standard();
  TechParams tech = TechParams::nominal28();
  CharLib charlib;
  NSigmaCellModel model;
  NSigmaWireModel wire_model;
  GateNetlist nl;
  ParasiticDb spef;

  template <class BuildFn>
  explicit DesignFixture(BuildFn&& build)
      : charlib(make_synthetic_charlib()),
        model(NSigmaCellModel::fit(charlib)),
        wire_model(NSigmaWireModel::fit(charlib, cells)),
        nl(build(cells)),
        spef(generate_parasitics(nl, tech)) {}
};

GateNetlist build_c17(const CellLibrary& cells) {
  return load_bench(repo_path("data/c17.bench"), cells);
}
GateNetlist build_c432(const CellLibrary& cells) {
  return generate_iscas_like("C432", cells);
}
GateNetlist build_random500(const CellLibrary& cells) {
  RandomNetlistSpec spec;
  spec.target_cells = 500;
  spec.seed = 17;
  return generate_random_mapped(spec, cells);
}

using BuildFn = GateNetlist (*)(const CellLibrary&);
const std::vector<std::pair<const char*, BuildFn>>& design_matrix() {
  static const std::vector<std::pair<const char*, BuildFn>> designs = {
      {"c17", &build_c17},
      {"C432-like", &build_c432},
      {"random-500", &build_random500},
  };
  return designs;
}

// ------------------------------------------------ compile round-trip

TEST(FlatGraph, CompileRoundTripsEveryDesign) {
  for (const auto& [name, build] : design_matrix()) {
    const DesignFixture fx(build);
    const GateNetlist& nl = fx.nl;
    const FlatTimingGraph g = FlatTimingGraph::compile(nl);
    using Id = FlatTimingGraph::Id;

    ASSERT_EQ(g.num_cells(), nl.num_cells()) << name;
    ASSERT_EQ(g.num_nets(), nl.num_nets()) << name;
    EXPECT_EQ(g.design_name(), nl.name()) << name;
    EXPECT_EQ(g.source_generation(), nl.generation()) << name;

    // Per cell: position round-trip, out net, type, inverting, fanin
    // arcs, interned instance name.
    for (std::size_t c = 0; c < nl.num_cells(); ++c) {
      const Id pos = g.position_of_cell(static_cast<Id>(c));
      ASSERT_LT(pos, g.num_cells()) << name;
      ASSERT_EQ(g.cell_id(pos), static_cast<Id>(c)) << name;
      const CellInst& inst = nl.cell(static_cast<int>(c));
      EXPECT_EQ(g.cell_out_net(pos), static_cast<Id>(inst.out_net)) << name;
      EXPECT_EQ(g.cell_type(pos), inst.type) << name;
      EXPECT_EQ(g.inverting(pos), inst.type->inverting()) << name;
      EXPECT_EQ(g.cell_name(pos), std::string_view(inst.name)) << name;
      ASSERT_EQ(g.fanin_end(pos) - g.fanin_begin(pos),
                static_cast<Id>(inst.fanin_nets.size()))
          << name;
      for (std::size_t p = 0; p < inst.fanin_nets.size(); ++p) {
        const Id arc = g.fanin_begin(pos) + static_cast<Id>(p);
        if (inst.fanin_nets[p] < 0) {
          EXPECT_EQ(g.fanin_net(arc), FlatTimingGraph::kNoId) << name;
          EXPECT_EQ(g.fanin_sink(arc), FlatTimingGraph::kNoId) << name;
        } else {
          EXPECT_EQ(g.fanin_net(arc),
                    static_cast<Id>(inst.fanin_nets[p]))
              << name;
        }
      }
    }

    // Per net: driver position, fanout entries in net.sinks order,
    // interned names (net and pre-rendered "<inst>:<pin>" sink names).
    for (std::size_t n = 0; n < nl.num_nets(); ++n) {
      const Net& net = nl.net(static_cast<int>(n));
      const Id id = static_cast<Id>(n);
      EXPECT_EQ(g.net_name(id), std::string_view(net.name)) << name;
      if (net.driver_cell < 0) {
        EXPECT_EQ(g.net_driver_pos(id), FlatTimingGraph::kNoId) << name;
      } else {
        EXPECT_EQ(g.net_driver_pos(id),
                  g.position_of_cell(static_cast<Id>(net.driver_cell)))
            << name;
      }
      ASSERT_EQ(g.fanout_end(id) - g.fanout_begin(id),
                static_cast<Id>(net.sinks.size()))
          << name;
      for (std::size_t s = 0; s < net.sinks.size(); ++s) {
        const Id f = g.fanout_begin(id) + static_cast<Id>(s);
        const NetSink& sink = net.sinks[s];
        EXPECT_EQ(g.fanout_pos(f),
                  g.position_of_cell(static_cast<Id>(sink.cell)))
            << name;
        EXPECT_EQ(g.fanout_pin(f), static_cast<Id>(sink.pin)) << name;
        EXPECT_EQ(g.sink_name(f),
                  std::string_view(
                      sink_pin_name(nl.cell(sink.cell), sink.pin)))
            << name;
      }
    }

    // Boundary lists match (PO list comes from the generation cache).
    ASSERT_EQ(g.primary_inputs().size(), nl.primary_inputs().size()) << name;
    for (std::size_t i = 0; i < nl.primary_inputs().size(); ++i) {
      EXPECT_EQ(g.primary_inputs()[i],
                static_cast<Id>(nl.primary_inputs()[i]))
          << name;
    }
    const auto& pos = nl.primary_outputs();
    ASSERT_EQ(g.primary_outputs().size(), pos.size()) << name;
    for (std::size_t i = 0; i < pos.size(); ++i) {
      EXPECT_EQ(g.primary_outputs()[i], static_cast<Id>(pos[i])) << name;
    }
  }
}

TEST(FlatGraph, LevelContiguityMatchesLevelization) {
  for (const auto& [name, build] : design_matrix()) {
    const DesignFixture fx(build);
    const FlatTimingGraph g = FlatTimingGraph::compile(fx.nl);
    const auto& lev = fx.nl.levelization();
    using Id = FlatTimingGraph::Id;
    ASSERT_EQ(g.num_levels(), static_cast<Id>(lev.levels.size())) << name;
    Id expect_begin = 0;
    for (std::size_t l = 0; l < lev.levels.size(); ++l) {
      const Id li = static_cast<Id>(l);
      EXPECT_EQ(g.level_begin(li), expect_begin) << name;
      ASSERT_EQ(g.level_end(li) - g.level_begin(li),
                static_cast<Id>(lev.levels[l].size()))
          << name;
      // Positions replay the per-level ascending-cell-index order the
      // legacy engine's parallel_for visits.
      for (std::size_t i = 0; i < lev.levels[l].size(); ++i) {
        EXPECT_EQ(g.cell_id(g.level_begin(li) + static_cast<Id>(i)),
                  static_cast<Id>(lev.levels[l][i]))
            << name;
      }
      expect_begin = g.level_end(li);
    }
    EXPECT_EQ(expect_begin, g.num_cells()) << name;
  }
}

// CSR structural invariants: offsets are monotone and exhaustive, and the
// arc -> fanout-entry mapping is a bijection onto the connected arcs.
TEST(FlatGraph, CsrAdjacencyProperties) {
  for (const auto& [name, build] : design_matrix()) {
    const DesignFixture fx(build);
    const FlatTimingGraph g = FlatTimingGraph::compile(fx.nl);
    using Id = FlatTimingGraph::Id;

    // Fanin offsets: monotone, covering [0, num_arcs).
    EXPECT_EQ(g.fanin_begin(0), 0u) << name;
    for (Id pos = 0; pos < g.num_cells(); ++pos) {
      EXPECT_LE(g.fanin_begin(pos), g.fanin_end(pos)) << name;
      if (pos + 1 < g.num_cells()) {
        EXPECT_EQ(g.fanin_end(pos), g.fanin_begin(pos + 1)) << name;
      }
    }
    EXPECT_EQ(g.fanin_end(g.num_cells() - 1), g.num_arcs()) << name;

    // Fanout offsets: monotone, covering [0, num_fanouts).
    EXPECT_EQ(g.fanout_begin(0), 0u) << name;
    for (Id n = 0; n < g.num_nets(); ++n) {
      EXPECT_LE(g.fanout_begin(n), g.fanout_end(n)) << name;
      if (n + 1 < g.num_nets()) {
        EXPECT_EQ(g.fanout_end(n), g.fanout_begin(n + 1)) << name;
      }
    }
    EXPECT_EQ(g.fanout_end(g.num_nets() - 1), g.num_fanouts()) << name;

    // fanin_sink is a bijection: every connected arc maps to a distinct
    // fanout entry that points straight back at it.
    std::set<Id> seen;
    Id connected = 0;
    for (Id pos = 0; pos < g.num_cells(); ++pos) {
      for (Id arc = g.fanin_begin(pos); arc < g.fanin_end(pos); ++arc) {
        const Id f = g.fanin_sink(arc);
        if (g.fanin_net(arc) == FlatTimingGraph::kNoId) {
          EXPECT_EQ(f, FlatTimingGraph::kNoId) << name;
          continue;
        }
        ++connected;
        ASSERT_LT(f, g.num_fanouts()) << name;
        EXPECT_TRUE(seen.insert(f).second) << name << ": duplicate entry";
        EXPECT_EQ(g.fanout_pos(f), pos) << name;
        EXPECT_EQ(g.fanout_pin(f), arc - g.fanin_begin(pos)) << name;
        // The entry lives in the fanin net's CSR range.
        const Id net = g.fanin_net(arc);
        EXPECT_GE(f, g.fanout_begin(net)) << name;
        EXPECT_LT(f, g.fanout_end(net)) << name;
        // A level-respecting edge: source driver strictly below sink.
        const Id drv = g.net_driver_pos(net);
        if (drv != FlatTimingGraph::kNoId) {
          EXPECT_LT(drv, pos) << name << ": edge violates level order";
        }
      }
    }
    EXPECT_EQ(connected, g.num_fanouts()) << name;
  }
}

TEST(FlatGraph, StaleGraphIsRejected) {
  DesignFixture fx(&build_c17);
  const FlatTimingGraph g = FlatTimingGraph::compile(fx.nl);
  const StaEngine engine(fx.model, fx.tech);
  // Any edit bumps generation() and invalidates the compiled snapshot.
  fx.nl.set_cell_type(0, fx.cells.by_func(fx.nl.cell(0).type->func(), 2));
  EXPECT_THROW(engine.run(g, fx.nl, fx.spef), std::invalid_argument);
}

TEST(FlatGraph, MemoryBytesIsPopulated) {
  const DesignFixture fx(&build_c432);
  const FlatTimingGraph g = FlatTimingGraph::compile(fx.nl);
  // SoA arrays + arena: at least a few bytes per cell, and bounded well
  // under the pointer-heavy legacy representation's per-cell footprint.
  EXPECT_GT(g.memory_bytes(), static_cast<std::size_t>(g.num_cells()) * 16);
  EXPECT_LT(g.memory_bytes(), static_cast<std::size_t>(g.num_cells()) * 4096);
}

// ------------------------------------------------ bound arc records

/// Bit equality of two doubles (EXPECT_EQ would also accept -0.0 == 0.0).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Every record the engines read in place of a string-keyed lookup is
// exactly that lookup's value: the charlib handle, the Elmore delay on the
// tree annotated by sta_kernel::annotate_net, and X_w with the "INVx4"
// stand-in for PI-driven nets.
TEST(FlatGraph, ArcRecordsMatchStringKeyedLookups) {
  for (const auto& [name, build] : design_matrix()) {
    const DesignFixture fx(build);
    const GateNetlist& nl = fx.nl;
    const FlatTimingGraph g = FlatTimingGraph::compile(nl);
    FlatArcRecords rec;
    const StaEngine engine(fx.model, fx.tech);
    const StaEngine::Result res = engine.run(g, nl, fx.spef, &rec);
    flat_kernel::bind_wire_xw(g, fx.wire_model, rec);

    StaEngine::Result ref;
    ref.annotated.resize(nl.num_nets());
    ref.net_load.assign(nl.num_nets(), 0.0);
    for (std::size_t n = 0; n < nl.num_nets(); ++n) {
      sta_kernel::annotate_net(nl, fx.spef, fx.tech, n, ref);
      EXPECT_TRUE(same_bits(res.net_load[n], ref.net_load[n]))
          << name << ": net " << n;
    }

    using Id = FlatTimingGraph::Id;
    ASSERT_EQ(rec.elmore.size(), g.num_arcs()) << name;
    ASSERT_EQ(rec.xw.size(), g.num_arcs()) << name;
    std::size_t with_tree = 0;
    std::size_t pi_driven = 0;
    for (Id pos = 0; pos < g.num_cells(); ++pos) {
      const CellInst& inst = nl.cell(static_cast<int>(g.cell_id(pos)));
      const std::string& type = inst.type->name();
      for (std::size_t p = 0; p < inst.fanin_nets.size(); ++p) {
        const int pin = static_cast<int>(p);
        const Id arc = g.fanin_begin(pos) + static_cast<Id>(p);
        const std::string what = std::string(name) + ": " + inst.name + ":" +
                                 std::to_string(pin);
        for (int e = 0; e < 2; ++e) {
          EXPECT_EQ(rec.arc_model[static_cast<std::size_t>(e)][arc],
                    &fx.model.arc(type, pin, e == 0))
              << what;
        }
        const int fan = inst.fanin_nets[p];
        const bool has_tree =
            fan >= 0 &&
            ref.annotated[static_cast<std::size_t>(fan)].num_nodes() > 1;
        EXPECT_EQ(rec.has_tree[arc] != 0, has_tree) << what;
        if (!has_tree) continue;
        ++with_tree;
        const RcTree& tree = ref.annotated[static_cast<std::size_t>(fan)];
        EXPECT_TRUE(same_bits(
            rec.elmore[arc],
            tree.elmore(tree.sink_node(sink_pin_name(inst, pin)))))
            << what;
        const int drv = nl.net(fan).driver_cell;
        if (drv < 0) ++pi_driven;
        const std::string drv_type =
            drv >= 0 ? nl.cell(drv).type->name() : "INVx4";
        EXPECT_TRUE(same_bits(rec.xw[arc], fx.wire_model.xw(drv_type, type)))
            << what;
      }
    }
    // Neither branch is vacuous: wired arcs, PI-driven ones among them.
    EXPECT_GT(with_tree, 0u) << name;
    EXPECT_GT(pi_driven, 0u) << name;
  }
}

// A cell type the model lacks keeps null handles; the string-keyed
// fallback must still make every engine throw rather than read a null arc.
TEST(FlatGraph, CellTypeMissingFromModelThrowsInEveryEngine) {
  const DesignFixture fx(&build_c17);
  const std::string missing = fx.nl.cell(0).type->name();
  CharLib partial;
  partial.set_tech(fx.charlib.tech());
  partial.set_config(fx.charlib.config());
  for (const auto& arc : fx.charlib.arcs()) {
    if (arc.cell != missing) partial.add_arc(arc);
  }
  const NSigmaCellModel model = NSigmaCellModel::fit(partial);
  ASSERT_THROW(model.arc(missing, 0, true), std::out_of_range);

  EXPECT_THROW(StaEngine(model, fx.tech).run(fx.nl, fx.spef),
               std::out_of_range);
  McConfig mc;
  mc.samples = 16;
  mc.seed = 5;
  EXPECT_THROW(NetlistMonteCarlo(model, fx.wire_model, fx.tech)
                   .run(fx.nl, fx.spef, mc),
               std::out_of_range);
  EXPECT_THROW(AnalyticSsta(model, fx.wire_model, fx.tech).run(fx.nl, fx.spef),
               std::out_of_range);

  // Intervals take an annotation made with the full model, so only the
  // interval walk itself meets the missing type.
  const StaEngine::Result annotated =
      StaEngine(fx.model, fx.tech).run(fx.nl, fx.spef);
  AnalysisInput input;
  input.netlist = &fx.nl;
  input.parasitics = &fx.spef;
  input.cell_model = &model;
  input.wire_model = &fx.wire_model;
  input.tech = &fx.tech;
  EXPECT_THROW(propagate_intervals(input, AnalysisOptions{}, annotated),
               std::out_of_range);
}

// ------------------------------------------------ scale generators

/// Structural rules only: the scale smoke cares about DAG well-formedness,
/// not charlib-domain warnings (which need a charlib anyway).
int structural_diag_count(const GateNetlist& nl) {
  static const std::set<std::string> structural = {
      "net.unconnected-pin", "net.comb-loop",       "net.multi-driver",
      "net.undriven",        "net.dangling-output", "net.driver-mismatch"};
  LintInput in;
  in.netlist = &nl;
  const LintReport report = run_lint(in);
  int n = 0;
  for (const auto& d : report.diagnostics()) {
    if (structural.count(d.rule)) ++n;
  }
  return n;
}

TEST(FlatGraphScale, NewGeneratorsAreStructurallyCleanDags) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist tm = generate_tiled_multiplier_array(5, 3, cells);
  const GateNetlist xb = generate_wide_crossbar(12, 9, cells);
  const GateNetlist dc = generate_divider_chain(4, 3, cells);
  for (const GateNetlist* nl : {&tm, &xb, &dc}) {
    EXPECT_EQ(structural_diag_count(*nl), 0) << nl->name();
    EXPECT_NO_THROW(nl->levelization()) << nl->name();  // acyclic
    const DesignStats st = design_stats(*nl);
    EXPECT_EQ(st.cells, nl->num_cells()) << nl->name();
    EXPECT_EQ(st.nets, nl->num_nets()) << nl->name();
    EXPECT_GT(st.avg_fanout, 0.5) << nl->name();
    EXPECT_GT(st.max_level, 0) << nl->name();
    const std::string line = design_stats_line(*nl);
    EXPECT_NE(line.find("design_stats name=" + nl->name()), std::string::npos);
    EXPECT_NE(line.find("cells=" + std::to_string(nl->num_cells())),
              std::string::npos);
    EXPECT_NE(line.find("avg_fanout="), std::string::npos);
  }
  // Tiling scales cells linearly; the chain scales depth linearly.
  EXPECT_GT(generate_tiled_multiplier_array(5, 6, cells).num_cells(),
            2 * tm.num_cells() - 10);
  EXPECT_GT(design_stats(generate_divider_chain(4, 6, cells)).max_level,
            static_cast<int>(1.8 * design_stats(dc).max_level));
}

TEST(FlatGraphScale, HundredKCellDesignCompilesUnderWallBound) {
  const CellLibrary cells = CellLibrary::standard();
  // ~103k cells: 144x144 AND-OR crossbar.
  const GateNetlist nl = generate_wide_crossbar(144, 144, cells);
  ASSERT_GE(nl.num_cells(), 100000u);
  nl.levelization();  // levelize outside the timed region, like engines do
  const auto t0 = std::chrono::steady_clock::now();
  const FlatTimingGraph g = FlatTimingGraph::compile(nl);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(g.num_cells(), nl.num_cells());
  // Native compiles run in well under a second; the bound is generous for
  // sanitizer builds while still catching superlinear blowups.
  EXPECT_LT(seconds, 30.0);
}

}  // namespace
}  // namespace nsdc
