// Whole-netlist Monte-Carlo engine tests: the bit-identity contract across
// thread counts AND scheduling grains, a golden c17 regression (fixed seed
// -> fixed worst-PO quantile CSV, mirroring test_golden_sta), the
// zero-variation collapse onto the nominal mean engine, and structural
// invariants of the result. Regenerate the golden after an *intentional*
// model change with:
//   NSDC_REGEN_GOLDEN=1 ./tests/test_netmc
#include "sta/netmc.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/mc_reference.hpp"
#include "netlist/benchio.hpp"
#include "netlist/designgen.hpp"
#include "sta/annotate.hpp"
#include "sta/engine.hpp"
#include "sta/statprop.hpp"
#include "synthetic_charlib.hpp"

namespace nsdc {
namespace {

// The per-path and whole-netlist engines share one MC execution config;
// the old name must remain a source-compatible alias.
static_assert(std::is_same_v<PathMcConfig, McConfig>);

std::string repo_path(const std::string& rel) {
  return std::string(NSDC_SOURCE_DIR) + "/" + rel;
}

class NetMcTest : public ::testing::Test {
 protected:
  NetMcTest()
      : charlib(testfix::make_charlib()),
        cells(CellLibrary::standard()),
        model(NSigmaCellModel::fit(charlib)),
        wire_model(NSigmaWireModel::fit(charlib, cells)),
        tech(TechParams::nominal28()),
        // NAND2x1/INVx1 only, so the synthetic charlib covers every arc.
        netlist(generate_array_multiplier(6, cells)),
        parasitics(generate_parasitics(netlist, tech)) {}

  NetlistMonteCarlo::Result run_at(unsigned threads, std::size_t grain = 0,
                                   int samples = 64,
                                   NetMcOptions options = {}) const {
    const NetlistMonteCarlo mc(model, wire_model, tech, options);
    McConfig cfg;
    cfg.samples = samples;
    cfg.seed = 9001;
    cfg.threads = threads;
    cfg.exec.grain = grain;
    return mc.run(netlist, parasitics, cfg);
  }

  static void expect_identical(const NetlistMonteCarlo::Result& got,
                               const NetlistMonteCarlo::Result& ref,
                               const std::string& what) {
    ASSERT_EQ(got.circuit_samples.size(), ref.circuit_samples.size()) << what;
    for (std::size_t i = 0; i < ref.circuit_samples.size(); ++i) {
      ASSERT_EQ(got.circuit_samples[i], ref.circuit_samples[i])
          << what << " sample " << i;
    }
    ASSERT_EQ(got.nets.size(), ref.nets.size()) << what;
    for (std::size_t n = 0; n < ref.nets.size(); ++n) {
      for (std::size_t e = 0; e < 2; ++e) {
        ASSERT_EQ(got.nets[n][e].count, ref.nets[n][e].count) << what;
        // Bit-identical streamed moments, not approximately equal: the
        // block merge tree must not depend on the schedule.
        ASSERT_EQ(got.nets[n][e].moments.mu, ref.nets[n][e].moments.mu)
            << what << " net " << n;
        ASSERT_EQ(got.nets[n][e].moments.sigma, ref.nets[n][e].moments.sigma)
            << what << " net " << n;
        ASSERT_EQ(got.nets[n][e].moments.gamma, ref.nets[n][e].moments.gamma)
            << what << " net " << n;
        ASSERT_EQ(got.nets[n][e].moments.kappa, ref.nets[n][e].moments.kappa)
            << what << " net " << n;
      }
    }
    ASSERT_EQ(got.worst_po, ref.worst_po) << what;
    for (int lv = 0; lv < 7; ++lv) {
      const auto l = static_cast<std::size_t>(lv);
      ASSERT_EQ(got.worst_po_quantiles[l], ref.worst_po_quantiles[l])
          << what << " level " << lv;
      ASSERT_EQ(got.circuit_quantiles[l], ref.circuit_quantiles[l])
          << what << " level " << lv;
    }
  }

  CharLib charlib;
  CellLibrary cells;
  NSigmaCellModel model;
  NSigmaWireModel wire_model;
  TechParams tech;
  GateNetlist netlist;
  ParasiticDb parasitics;
};

TEST_F(NetMcTest, BitIdenticalAcrossThreadCounts) {
  ASSERT_GE(netlist.num_cells(), 200u);
  const auto ref = run_at(1);
  for (unsigned t : {2u, 7u, 16u}) {
    expect_identical(run_at(t), ref, std::to_string(t) + " threads");
  }
}

TEST_F(NetMcTest, BitIdenticalAcrossGrainSettings) {
  const auto ref = run_at(1);
  // Explicit ExecContext::grain overrides, at several thread counts.
  for (std::size_t g : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                        std::size_t{1000}}) {
    expect_identical(run_at(7, g), ref, "grain " + std::to_string(g));
  }
  // The NSDC_GRAIN env override must reschedule, never change results.
  ::setenv("NSDC_GRAIN", "5", 1);
  const auto env_run = run_at(4);
  ::unsetenv("NSDC_GRAIN");
  expect_identical(env_run, ref, "NSDC_GRAIN=5");
}

TEST_F(NetMcTest, GrainOverridePrecedence) {
  ExecContext exec;
  EXPECT_EQ(exec.resolved_grain(7), 7u);  // per-call default
  ::setenv("NSDC_GRAIN", "11", 1);
  EXPECT_EQ(exec.resolved_grain(7), 11u);  // env beats per-call
  exec.grain = 3;
  EXPECT_EQ(exec.resolved_grain(7), 3u);  // explicit field beats env
  ::unsetenv("NSDC_GRAIN");
  EXPECT_EQ(exec.resolved_grain(7), 3u);
}

TEST_F(NetMcTest, ZeroVariationCollapsesOntoNominalSta) {
  NetMcOptions opt;
  opt.variation_scale = 0.0;
  const auto mc = run_at(2, 0, 16, opt);

  const StaEngine engine(model, tech);
  const auto nom = engine.run(netlist, parasitics);
  for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
    if (!nom.nets[n].reachable) {
      EXPECT_EQ(mc.nets[n][0].count, 0u);
      continue;
    }
    for (std::size_t e = 0; e < 2; ++e) {
      ASSERT_EQ(mc.nets[n][e].count, 16u) << "net " << n;
      // The sampler's mean surface (Eq. 2 calibration) and the engine's
      // NLDM mean table are two interpolants of the same synthetic truth;
      // at zero variation every sample equals the surface mean.
      EXPECT_NEAR(mc.nets[n][e].moments.mu, nom.nets[n].arrival[e],
                  1e-3 * nom.nets[n].arrival[e] + 1e-15)
          << "net " << n << " edge " << e;
      EXPECT_NEAR(mc.nets[n][e].moments.sigma, 0.0, 1e-18) << "net " << n;
    }
  }
  EXPECT_NEAR(mc.circuit_moments.mu, nom.max_arrival,
              1e-3 * nom.max_arrival);
  EXPECT_NEAR(mc.circuit_moments.sigma, 0.0, 1e-18);
}

TEST_F(NetMcTest, ResultStructureIsConsistent) {
  const auto res = run_at(2, 0, 48);
  ASSERT_FALSE(res.po_nets.empty());
  ASSERT_EQ(res.po_samples.size(), res.po_nets.size());
  ASSERT_EQ(res.po_moments.size(), res.po_nets.size());
  ASSERT_EQ(res.po_quantiles.size(), res.po_nets.size());
  ASSERT_EQ(res.circuit_samples.size(), 48u);
  for (std::size_t p = 1; p < res.po_nets.size(); ++p) {
    EXPECT_LT(res.po_nets[p - 1], res.po_nets[p]) << "po list not ascending";
  }
  // The circuit delay is the per-sample max over every PO.
  for (std::size_t s = 0; s < res.circuit_samples.size(); ++s) {
    double worst = 0.0;
    for (const auto& po : res.po_samples) worst = std::max(worst, po[s]);
    EXPECT_EQ(res.circuit_samples[s], worst) << "sample " << s;
  }
  // Quantiles ascend with the sigma level; sigma is positive under
  // variation; the worst PO really has the largest mean.
  for (int lv = 1; lv < 7; ++lv) {
    const auto l = static_cast<std::size_t>(lv);
    EXPECT_LE(res.circuit_quantiles[l - 1], res.circuit_quantiles[l]);
  }
  EXPECT_GT(res.circuit_moments.sigma, 0.0);
  double worst_mean = -1.0;
  int worst_po = -1;
  for (std::size_t p = 0; p < res.po_nets.size(); ++p) {
    if (res.po_moments[p].mu > worst_mean) {
      worst_mean = res.po_moments[p].mu;
      worst_po = res.po_nets[p];
    }
  }
  EXPECT_EQ(res.worst_po, worst_po);
  EXPECT_EQ(res.worst_po_moments.mu, worst_mean);
  EXPECT_GT(res.shards, 0u);
}

TEST_F(NetMcTest, AgreesWithStatisticalStaOnMeanAndSigma) {
  // The netlist MC is the sampling counterpart of the analytic Clark-max
  // propagator: same moment surfaces, same rho split. The empirical
  // circuit-delay mean sits between the nominal max arrival (E[max] >=
  // max E) and the Clark-max mean, which overshoots on deep reconvergent
  // designs (every max node adds a positive theta*phi increment, and
  // statprop's slew model is the pin-0 simplification); the sigmas agree
  // to within the Clark/shaping approximation gap.
  const auto mc = run_at(2, 0, 512);
  const StaEngine engine(model, tech);
  const auto nom = engine.run(netlist, parasitics);
  StatisticalSta::Config cfg;
  cfg.stage_correlation = 0.5;
  const StatisticalSta ssta(model, wire_model, tech, cfg);
  const auto an = ssta.run(netlist, parasitics);
  EXPECT_GT(mc.circuit_moments.mu, 0.98 * nom.max_arrival);
  EXPECT_LT(mc.circuit_moments.mu, 1.05 * an.worst.mean);
  EXPECT_GT(mc.circuit_moments.sigma, 0.2 * an.worst.sigma());
  EXPECT_LT(mc.circuit_moments.sigma, 5.0 * an.worst.sigma());
}

TEST_F(NetMcTest, PlanReusedAcrossOneBlockRangesMergesByteIdentical) {
  // The shard-worker path: one prepare(), then every one-block range run
  // over that plan into its own checkpoint. The union of those checkpoints
  // through partial_result must be memcmp-equal to a whole run, with the
  // blocks sampled at 1 and at 4 lanes.
  constexpr int kSamples = 64;  // 32 blocks of 2 samples
  const auto ref = run_at(1, 0, kSamples);
  expect_identical(run_at(4, 0, kSamples), ref, "run() at 4 lanes");
  const auto same_bytes = [](const std::vector<double>& a,
                             const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  const NetlistMonteCarlo::Plan plan =
      NetlistMonteCarlo(model, wire_model, tech).prepare(netlist, parasitics);
  const std::string path = ::testing::TempDir() + "nsdc_plan_reuse_" +
                           std::to_string(::getpid()) + ".ckpt";
  for (const unsigned lanes : {1u, 4u}) {
    McCheckpointData all;
    for (std::size_t b = 0; b < NetlistMonteCarlo::kAccumBlocks; ++b) {
      NetMcOptions opt;
      opt.block_begin = b;
      opt.block_end = b + 1;
      opt.checkpoint_path = path;
      const NetlistMonteCarlo mc(model, wire_model, tech, opt);
      McConfig cfg;
      cfg.samples = kSamples;
      cfg.seed = 9001;
      cfg.threads = lanes;
      const auto part = mc.run(plan, cfg);
      // A subset result's retained samples are its own range only.
      ASSERT_EQ(part.samples_done, 2u);
      const std::vector<double> slice(
          ref.circuit_samples.begin() + static_cast<std::ptrdiff_t>(2 * b),
          ref.circuit_samples.begin() + static_cast<std::ptrdiff_t>(2 * b + 2));
      EXPECT_TRUE(same_bytes(part.circuit_samples, slice)) << "block " << b;
      ASSERT_EQ(part.po_samples.size(), ref.po_samples.size());
      for (const auto& po : part.po_samples) ASSERT_EQ(po.size(), 2u);

      std::vector<Diagnostic> diags;
      auto data = load_mc_checkpoint(path, nullptr, &diags);
      ASSERT_TRUE(data.has_value()) << "block " << b;
      ASSERT_EQ(data->blocks.size(), 1u);
      all.header = data->header;
      all.blocks.push_back(std::move(data->blocks.front()));
    }
    const auto merged = NetlistMonteCarlo::partial_result(all);
    const std::string what = std::to_string(lanes) + "-lane blocks";
    expect_identical(merged, ref, what);
    EXPECT_TRUE(same_bytes(merged.circuit_samples, ref.circuit_samples))
        << what;
    ASSERT_EQ(merged.po_samples.size(), ref.po_samples.size());
    for (std::size_t p = 0; p < ref.po_samples.size(); ++p) {
      EXPECT_TRUE(same_bytes(merged.po_samples[p], ref.po_samples[p]))
          << what << " po " << p;
    }
    for (std::size_t n = 0; n < ref.nets.size(); ++n) {
      for (std::size_t e = 0; e < 2; ++e) {
        EXPECT_EQ(std::memcmp(&merged.nets[n][e].moments,
                              &ref.nets[n][e].moments, sizeof(Moments)),
                  0)
            << what << " net " << n;
      }
    }
  }
  std::remove(path.c_str());

  // A plan runs only on an engine with the models and model options it
  // was prepared with.
  NetMcOptions other;
  other.variation_scale = 0.5;
  McConfig cfg;
  cfg.samples = kSamples;
  EXPECT_THROW(NetlistMonteCarlo(model, wire_model, tech, other).run(plan, cfg),
               std::invalid_argument);
}

TEST_F(NetMcTest, PrepareThrowsOnCellTypeMissingFromModel) {
  const std::string missing = netlist.cell(0).type->name();
  CharLib partial;
  partial.set_tech(charlib.tech());
  partial.set_config(charlib.config());
  for (const auto& arc : charlib.arcs()) {
    if (arc.cell != missing) partial.add_arc(arc);
  }
  const NSigmaCellModel partial_model = NSigmaCellModel::fit(partial);
  EXPECT_THROW(NetlistMonteCarlo(partial_model, wire_model, tech)
                   .prepare(netlist, parasitics),
               std::out_of_range);
}

// ------------------------------------------------- golden c17 regression --

TEST(NetMcGolden, C17WorstPoQuantilesMatchGoldenCsv) {
  const CharLib charlib = testfix::make_charlib();
  const CellLibrary cells = CellLibrary::standard();
  const NSigmaCellModel model = NSigmaCellModel::fit(charlib);
  const NSigmaWireModel wire_model = NSigmaWireModel::fit(charlib, cells);
  const TechParams tech = TechParams::nominal28();

  const GateNetlist nl = load_bench(repo_path("data/c17.bench"), cells);
  const ParasiticDb spef = generate_parasitics(nl, tech);

  const NetlistMonteCarlo mc(model, wire_model, tech);
  McConfig cfg;
  cfg.samples = 2000;
  cfg.seed = 0xC17C17ULL;
  const auto res = mc.run(nl, spef, cfg);
  ASSERT_FALSE(res.po_nets.empty());

  const std::string golden_path = repo_path("data/c17_golden_netmc.csv");
  if (std::getenv("NSDC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good());
    out << "po_net,mu,sigma,qm3,qm2,qm1,q0,qp1,qp2,qp3\n";
    char buf[512];
    for (std::size_t p = 0; p < res.po_nets.size(); ++p) {
      const auto& q = res.po_quantiles[p];
      std::snprintf(buf, sizeof(buf),
                    "%s,%.12e,%.12e,%.12e,%.12e,%.12e,%.12e,%.12e,%.12e,"
                    "%.12e\n",
                    nl.net(res.po_nets[p]).name.c_str(), res.po_moments[p].mu,
                    res.po_moments[p].sigma, q[0], q[1], q[2], q[3], q[4],
                    q[5], q[6]);
      out << buf;
    }
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file: " << golden_path;
  std::map<std::string, std::vector<double>> golden;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss(line);
    std::string name, field;
    std::getline(ss, name, ',');
    std::vector<double> vals;
    while (std::getline(ss, field, ',')) vals.push_back(std::stod(field));
    ASSERT_EQ(vals.size(), 9u) << line;
    golden[name] = vals;
  }
  ASSERT_EQ(golden.size(), res.po_nets.size());

  // 12 significant digits in the CSV: 1e-9 relative catches any arithmetic
  // reordering, not just genuine model drift.
  const double rtol = 1e-9;
  for (std::size_t p = 0; p < res.po_nets.size(); ++p) {
    const std::string& name = nl.net(res.po_nets[p]).name;
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "PO " << name << " missing from golden";
    const auto& g = it->second;
    EXPECT_NEAR(res.po_moments[p].mu, g[0], rtol * g[0] + 1e-18) << name;
    EXPECT_NEAR(res.po_moments[p].sigma, g[1], rtol * g[1] + 1e-18) << name;
    for (int lv = 0; lv < 7; ++lv) {
      const auto l = static_cast<std::size_t>(lv);
      EXPECT_NEAR(res.po_quantiles[p][l], g[2 + l], rtol * g[2 + l] + 1e-18)
          << name << " level " << lv - 3;
    }
  }
}

}  // namespace
}  // namespace nsdc
