#pragma once
// Shared pieces of the nsdc benchmark program: arguments, seeded input
// derivation, the set-up every workload starts from, order statistics,
// and the Outcome a workload hands back to main().

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/nsigma_cell.hpp"
#include "core/nsigma_wire.hpp"
#include "liberty/charlib.hpp"
#include "netlist/netlist.hpp"
#include "parasitics/spef.hpp"
#include "pdk/cells.hpp"
#include "pdk/tech.hpp"
#include "trace.hpp"

namespace perfbench {

using nsdc::CellLibrary;
using nsdc::CharLib;
using nsdc::GateNetlist;
using nsdc::NSigmaCellModel;
using nsdc::NSigmaWireModel;
using nsdc::ParasiticDb;
using nsdc::TechParams;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string dist_binary;  ///< the built nsdc_dist tool
  std::string work_dir;     ///< temporary directory for sockets and shards
};

/// Seed of input stream `stream`, item `index`, derived from the workload
/// seed (splitmix64). Kept below 1e9 so every tool flag accepts it.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

/// splitmix64 step, for the benchmark's own seeded choices.
std::uint64_t mix64(std::uint64_t x);

double median(std::vector<double> v);
/// Arithmetic mean. 0 for an empty sample.
double mean(const std::vector<double>& v);
/// Nearest-rank percentile, p in [0, 100]. 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// Wall seconds on the steady clock since an arbitrary origin.
double now_s();

/// Peak resident set of this process and of its reaped children, MiB.
double peak_rss_mb();

/// What a workload reports back. Times are wall seconds.
struct Outcome {
  std::vector<double> setup_s;   ///< one entry per set-up
  std::vector<double> answer_s;  ///< one entry per answer
  /// answer_s reports the mean of the answers instead of their median.
  bool answer_is_mean = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Per-layer metrics, filled in traced runs; names as in BENCHMARK.json.
  std::map<std::string, double> layer;
  /// Answers timed with spans off / on inside a traced run (overhead).
  std::vector<double> untraced_answer_s;
  std::vector<double> traced_answer_s;

  /// Counts one failed operation and says why on stderr.
  void fail(const std::string& what);
  /// Counts one operation; a false `ok` also counts it failed.
  void check(bool ok, const std::string& what);
};

/// Prints one human-readable metric line ("  name = value unit").
void report(const std::string& name, double value, const std::string& unit);

/// Library, fits and technology shared by every design of a set-up.
struct Models {
  CharLib charlib;
  CellLibrary cells = CellLibrary::standard();
  NSigmaCellModel cell_model;
  NSigmaWireModel wire_model;
  TechParams tech = TechParams::nominal28();
};

/// A set-up design. `models` is heap-held so the CellType pointers inside
/// `netlist` stay valid when a Design moves.
struct Design {
  std::unique_ptr<Models> models;
  GateNetlist netlist{"unbuilt"};
  ParasiticDb parasitics;
};

/// Which generator a set-up runs.
struct DesignSpec {
  enum class Kind {
    kRandomFinalized,  ///< generate_random_mapped + finalize_design
    kTiledMultiplier,  ///< generate_tiled_multiplier_array, 16-bit tiles
  };
  Kind kind = Kind::kRandomFinalized;
  std::string name;
  int size = 4000;  ///< target cells (random) or tile count (TMUL)
  std::uint64_t design_seed = 1;
  std::uint64_t parasitic_seed = 99;
};

/// Everything before the first answer: synthetic charlib, N-sigma fits,
/// design generation (+ finalize_design for random designs), levelization,
/// generated parasitics, and the net.duplicate-name lint guard. Spans
/// wrap each layer call. Returns null, with the failure counted in `out`,
/// when a step throws or the guard finds a duplicate net name; never
/// retries with another seed or size.
std::unique_ptr<Design> set_up(const DesignSpec& spec, Tracer& tracer,
                               Outcome& out);

/// Runs only the net.duplicate-name lint rule; returns its error count.
int duplicate_name_errors(const GateNetlist& netlist);

/// Largest sink count of any net.
std::size_t max_fanout(const GateNetlist& netlist);

/// Median duration (seconds) of the spans called `name`, 0 when none.
double span_median(const Tracer& tracer, const std::string& name);
/// Sum of the durations of the spans called `name`.
double span_total(const Tracer& tracer, const std::string& name);

// Workloads. Each measures for about args.seconds and fills `out`.
void run_signoff_stat(const Args& args, Tracer& tracer, Outcome& out);
void run_scale_sta(const Args& args, Tracer& tracer, Outcome& out);
void run_serve_mixed(const Args& args, Tracer& tracer, Outcome& out);
void run_dist_mc(const Args& args, Tracer& tracer, Outcome& out);

/// Traced-only probes every workload runs on its design: flat-graph
/// compile and size, the Elmore sweep over every sink, and flat STA with
/// pin-cap loads only.
void probe_graph_layers(const GateNetlist& netlist,
                        const ParasiticDb& parasitics,
                        const NSigmaCellModel& cell_model,
                        const TechParams& tech, Tracer& tracer, Outcome& out);

}  // namespace perfbench
