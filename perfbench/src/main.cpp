// nsdc benchmark program: runs one seeded workload through the public API
// of the layers it exercises, checks the answers, and prints the metrics.
//
//   nsdc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --dist-binary PATH --work-dir DIR [--trace-file PATH]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// with spans around every layer call and prints the per-layer metrics and
// the measured tracing overhead. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/threading.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json's end_to_end and per_layer lists.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"answer_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"liberty.charlib_s", "s"},
    {"core.model_fit_s", "s"},
    {"netlist.generate_s", "s"},
    {"netlist.levelize_s", "s"},
    {"netlist.flatgraph_compile_s", "s"},
    {"netlist.flatgraph_bytes_per_cell", "B/cell"},
    {"parasitics.generate_s", "s"},
    {"parasitics.elmore_s", "s"},
    {"parasitics.max_fanout", "count"},
    {"lint.duplicate_name_s", "s"},
    {"sta.flat_pincap_s", "s"},
    {"sta.nominal_s", "s"},
    {"sta.ssta_s", "s"},
    {"sta.ssta_po_err_sigma", "sigma"},
    {"sta.netmc_s", "s"},
    {"sta.incremental_update_us_p50", "us"},
    {"sta.incremental_update_us_p99", "us"},
    {"sta.incremental_cone_cells", "count"},
    {"sta.incremental_full_reruns", "count"},
    {"analysis.interval_s", "s"},
    {"analysis.violations", "count"},
    {"serve.init_s", "s"},
    {"serve.handle_us.arrival", "us"},
    {"serve.handle_us.ssta_moments", "us"},
    {"serve.handle_us.critical", "us"},
    {"serve.handle_us.session_query", "us"},
    {"serve.handle_us.session_edit", "us"},
    {"serve.handle_ms.session_open", "ms"},
    {"serve.handle_ms.netmc", "ms"},
    {"net.roundtrip_us", "us"},
    {"net.frames_in", "count"},
    {"net.frames_out", "count"},
    {"dist.bundle_build_s", "s"},
    {"dist.compute_s", "s"},
    {"dist.overhead_s", "s"},
    {"dist.workers_spawned", "count"},
    {"dist.shard_retries", "count"},
    {"dist.workers_lost", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
};

int usage() {
  std::fprintf(stderr,
               "usage: nsdc_perfbench --workload signoff_stat|scale_sta|"
               "serve_mixed|dist_mc --seed N --seconds S --trace 0|1 "
               "--dist-binary PATH --work-dir DIR [--trace-file PATH]\n");
  return 2;
}

/// Aggregate CPU time (all states) and steal time from /proc/stat, in
/// clock ticks; {0, 0} when unreadable.
std::pair<double, double> cpu_and_steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (unsigned long long x : v) total += static_cast<double>(x);
  return {total, static_cast<double>(v[7])};
}

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

void print_json(const Outcome& out, bool correct,
                const std::vector<std::pair<const MetricDef*, double>>& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double v = std::isfinite(m[i].second) ? m[i].second : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m[i].first->name, v, m[i].first->unit);
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string trace_file;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atoi(v);
    } else if (a == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--dist-binary") {
      args.dist_binary = v;
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else if (a == "--trace-file") {
      trace_file = v;
    } else {
      return usage();
    }
  }
  void (*workload)(const Args&, Tracer&, Outcome&) = nullptr;
  if (args.workload == "signoff_stat") workload = run_signoff_stat;
  if (args.workload == "scale_sta") workload = run_scale_sta;
  if (args.workload == "serve_mixed") workload = run_serve_mixed;
  if (args.workload == "dist_mc") workload = run_dist_mc;
  if (workload == nullptr || args.seconds < 1 || args.work_dir.empty()) {
    return usage();
  }
  std::filesystem::create_directories(args.work_dir);
  // One lane for every workload, set before the global pool is first used:
  // on a shared host, a level-synchronous engine using every core waits at
  // each barrier for whichever vCPU the hypervisor has descheduled, so ~20%
  // steal doubled signoff time, while one lane slows by about the steal
  // share. serve_mixed's daemon so runs each batch on one lane beside its
  // three client threads and its I/O thread.
  nsdc::set_default_threads(1u);

  std::printf("host: hardware_concurrency=%u affinity_cpus=%u lanes=%u "
              "build=%s compiler=\"%s\"\n",
              std::thread::hardware_concurrency(), affinity_cpus(),
              nsdc::default_threads(), PERFBENCH_BUILD_TYPE, __VERSION__);
  std::printf("workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  const auto [cpu0, steal0] = cpu_and_steal_ticks();
  Tracer tracer(args.trace);
  Outcome out;
  try {
    workload(args, tracer, out);
  } catch (const std::exception& e) {
    out.fail(std::string("workload threw: ") + e.what());
  }
  tracer.set_enabled(false);
  const auto [cpu1, steal1] = cpu_and_steal_ticks();
  // Time the hypervisor gave the machine's CPUs to other guests while this
  // run was measuring: the main source of run-to-run spread on a shared
  // host, recorded so a reader can tell a slow host from a slow program.
  std::printf("host: cpu steal during the run %.2f%% of all cpu time\n",
              cpu1 > cpu0 ? 100.0 * (steal1 - steal0) / (cpu1 - cpu0) : 0.0);

  const bool correct = out.failed == 0 && out.attempted > 0 &&
                       !out.setup_s.empty() && !out.answer_s.empty();
  std::printf("result: attempted=%llu failed=%llu error_rate=%.6g\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.attempted == 0 ? 1.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted));

  std::printf("answers: n=%zu min=%.6g p25=%.6g median=%.6g p75=%.6g "
              "max=%.6g mean=%.6g s; set-ups: n=%zu median=%.6g s\n",
              out.answer_s.size(), percentile(out.answer_s, 0),
              percentile(out.answer_s, 25), median(out.answer_s),
              percentile(out.answer_s, 75), percentile(out.answer_s, 100),
              mean(out.answer_s), out.setup_s.size(), median(out.setup_s));

  std::vector<std::pair<const MetricDef*, double>> metrics;
  if (!args.trace) {
    const double answer = out.answer_is_mean ? mean(out.answer_s)
                                             : median(out.answer_s);
    const double values[] = {median(out.setup_s), answer, peak_rss_mb()};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      report(kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
      metrics.emplace_back(&kEndToEnd[i], values[i]);
    }
  } else {
    // Set-up layers, recorded by set_up() on every workload.
    out.layer["liberty.charlib_s"] = span_median(tracer, "liberty.charlib");
    out.layer["core.model_fit_s"] = span_median(tracer, "core.model_fit");
    out.layer["netlist.generate_s"] = span_median(tracer, "netlist.generate");
    out.layer["netlist.levelize_s"] = span_median(tracer, "netlist.levelize");
    out.layer["parasitics.generate_s"] = span_median(tracer, "parasitics.generate");
    out.layer["lint.duplicate_name_s"] = span_median(tracer, "lint.duplicate_name");
    const double off = median(out.untraced_answer_s);
    const double on = median(out.traced_answer_s);
    out.layer["trace.overhead_ratio"] = off > 0.0 && on > 0.0 ? on / off - 1.0 : 0.0;
    out.layer["trace.spans"] = static_cast<double>(tracer.spans().size());
    std::printf("tracing overhead: answers with spans %.6g s, without %.6g s "
                "(median of %zu / %zu)\n",
                on, off, out.traced_answer_s.size(), out.untraced_answer_s.size());
    for (const MetricDef& def : kPerLayer) {
      const auto it = out.layer.find(def.name);
      const double v = it == out.layer.end() ? 0.0 : it->second;
      report(def.name, v, def.unit);
      metrics.emplace_back(&def, v);
    }
    if (!trace_file.empty() && !tracer.write_chrome_json(trace_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_file.c_str());
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  print_json(out, correct, metrics);
  return 0;
}
