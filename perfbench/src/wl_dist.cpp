// dist_mc: the shipped nsdc_dist Monte-Carlo flow on a seeded 4000-cell
// random design with 2 workers and 32 shards (every accumulation block),
// at the tool's default heartbeat and retry policy. The coordinator runs
// in this process through dist::run_coordinator — the call nsdc_dist's
// main makes — so its merged result can be compared byte for byte with an
// in-process NetlistMonteCarlo::run; the workers are the nsdc_dist binary.

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>

#include "bench.hpp"
#include "core/mcconfig.hpp"
#include "dist/bundle.hpp"
#include "dist/coordinator.hpp"
#include "sta/netmc.hpp"

namespace perfbench {

using namespace nsdc;

namespace {

constexpr int kCells = 4000;
constexpr int kSamples = 2048;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kShards = 32;
constexpr int kSetupsPerRun = 2;
constexpr int kMinRuns = 4;
constexpr int kMaxRuns = 64;

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Byte equality of everything the dist merge must reproduce.
bool identical(const NetlistMonteCarlo::Result& a,
               const NetlistMonteCarlo::Result& b) {
  if (!same_bytes(a.circuit_samples, b.circuit_samples)) return false;
  if (a.po_samples.size() != b.po_samples.size()) return false;
  for (std::size_t p = 0; p < a.po_samples.size(); ++p) {
    if (!same_bytes(a.po_samples[p], b.po_samples[p])) return false;
  }
  if (a.nets.size() != b.nets.size()) return false;
  for (std::size_t n = 0; n < a.nets.size(); ++n) {
    for (std::size_t e = 0; e < 2; ++e) {
      const auto& x = a.nets[n][e];
      const auto& y = b.nets[n][e];
      if (x.count != y.count ||
          std::memcmp(&x.moments, &y.moments, sizeof(Moments)) != 0) {
        return false;
      }
    }
  }
  return same_bytes(a.po_nets, b.po_nets) &&
         std::memcmp(&a.circuit_moments, &b.circuit_moments, sizeof(Moments)) == 0 &&
         a.circuit_quantiles == b.circuit_quantiles &&
         a.worst_po_quantiles == b.worst_po_quantiles &&
         a.worst_po == b.worst_po && a.total_quarantined == b.total_quarantined &&
         a.samples_done == b.samples_done;
}

}  // namespace

void run_dist_mc(const Args& args, Tracer& tracer, Outcome& out) {
  constexpr std::uint64_t kDesignStream = 50;
  constexpr std::uint64_t kMcStream = 51;

  dist::DistOptions base;  // the tool's defaults: heartbeat, retry, deadline
  base.mode = "mc";
  base.workers = kWorkers;
  base.shards = kShards;
  base.samples = kSamples;
  base.seed = derive_seed(args.seed, kMcStream, 0);
  base.bundle.design = "random";
  base.bundle.size = kCells;
  base.bundle.seed = derive_seed(args.seed, kDesignStream, 0);
  base.worker_binary = args.dist_binary;

  // Set-up: dist::make_bundle, which every worker runs when it is spawned
  // (charlib, fits, design, parasitics), each bundle checked by the
  // duplicate-name guard. It is timed once before the runs and
  // kSetupsPerRun times before each run. A make_bundle takes ~12 ms; timed
  // back to back at the start, the median ranged from 9 to 17 ms between
  // runs (IQR/median 0.43 over 10 seeds), spread over the run 0.15 (over
  // 6 seeds, on the same shared 4-vCPU host).
  const auto build_bundle = [&](dist::DesignBundle& bundle) {
    try {
      const double s0 = now_s();
      {
        Tracer::Scope s(tracer, "dist.bundle_build", 0);
        bundle = dist::make_bundle(base.bundle);
      }
      out.setup_s.push_back(now_s() - s0);
    } catch (const std::exception& e) {
      out.fail(std::string("dist::make_bundle threw: ") + e.what());
      return false;
    }
    int dups = 0;
    {
      Tracer::Scope s(tracer, "lint.duplicate_name", 0);
      dups = duplicate_name_errors(bundle.netlist);
    }
    out.check(dups == 0, "dist bundle: net.duplicate-name reports " +
                             std::to_string(dups) + " error(s)");
    return dups == 0;
  };
  dist::DesignBundle bundle;
  if (!build_bundle(bundle)) return;

  // Reference: the bundle's MC run in this process at the workers' lane
  // count (results are bit-identical at any count).
  NetlistMonteCarlo::Result reference;
  try {
    Tracer::Scope s(tracer, "sta.netmc", 0);
    McConfig cfg;
    cfg.samples = kSamples;
    cfg.seed = base.seed;
    cfg.threads = base.worker_threads;
    reference = NetlistMonteCarlo(bundle.cell_model, bundle.wire_model,
                                  bundle.tech)
                    .run(bundle.netlist, bundle.parasitics, cfg);
  } catch (const std::exception& e) {
    out.fail(std::string("dist reference threw: ") + e.what());
    return;
  }

  std::uint64_t spawned = 0, retries = 0, lost = 0;
  const bool traced = tracer.enabled();
  const double t0 = now_s();
  for (int i = 0; i < kMaxRuns; ++i) {
    if (i >= kMinRuns && now_s() - t0 >= args.seconds) break;
    const bool spans_on = traced && i % 2 == 1;
    tracer.set_enabled(spans_on);
    for (int k = 0; k < kSetupsPerRun; ++k) {
      dist::DesignBundle again;
      if (!build_bundle(again)) return;
    }
    dist::DistOptions opt = base;
    opt.workdir = args.work_dir + "/dist" + std::to_string(i);
    try {
      const double a0 = now_s();
      dist::DistResult res;
      {
        Tracer::Scope s(tracer, "dist.run", static_cast<std::uint64_t>(i + 1));
        res = dist::run_coordinator(opt);
      }
      const double answer = now_s() - a0;
      out.answer_s.push_back(answer);
      (spans_on ? out.traced_answer_s : out.untraced_answer_s).push_back(answer);
      spawned += res.workers_spawned;
      retries += res.shard_retries;
      lost += res.workers_lost;
      out.check(res.complete, "dist run " + std::to_string(i) +
                                  " returned an incomplete merge");
      out.check(identical(res.mc, reference),
                "dist run " + std::to_string(i) +
                    ": merged result differs from the in-process run");
    } catch (const std::exception& e) {
      out.fail("dist run " + std::to_string(i) + " threw: " + e.what());
    }
    std::error_code ec;
    std::filesystem::remove_all(opt.workdir, ec);
  }
  tracer.set_enabled(traced);
  if (traced) {
    probe_graph_layers(bundle.netlist, bundle.parasitics, bundle.cell_model,
                       bundle.tech, tracer, out);
  }

  const double dist_s = median(out.answer_s);
  std::printf("dist_mc: %zu nsdc_dist runs, %u workers x %zu shards, %d "
              "samples, %zu cells\n",
              out.answer_s.size(), kWorkers, kShards, kSamples,
              bundle.netlist.num_cells());
  report("dist_s", dist_s, "s");
  report("shard_retries", static_cast<double>(retries), "count");

  const double compute = span_median(tracer, "sta.netmc");
  const double build = span_median(tracer, "dist.bundle_build");
  out.layer["sta.netmc_s"] = compute;
  out.layer["dist.bundle_build_s"] = build;
  out.layer["dist.compute_s"] = compute;
  out.layer["dist.overhead_s"] =
      traced ? dist_s - compute / kWorkers - build : 0.0;
  out.layer["dist.workers_spawned"] = static_cast<double>(spawned);
  out.layer["dist.shard_retries"] = static_cast<double>(retries);
  out.layer["dist.workers_lost"] = static_cast<double>(lost);
}

}  // namespace perfbench
