#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>

#include "bench.hpp"
#include "liberty/synthlib.hpp"
#include "lint/lint.hpp"
#include "netlist/designgen.hpp"
#include "netlist/flatgraph.hpp"
#include "sta/annotate.hpp"
#include "sta/engine.hpp"

namespace perfbench {

using namespace nsdc;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  return mix64(mix64(mix64(seed) ^ stream) ^ index) % 1'000'000'000ULL;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

void Outcome::fail(const std::string& what) {
  ++attempted;
  ++failed;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

void Outcome::check(bool ok, const std::string& what) {
  if (ok) {
    ++attempted;
  } else {
    fail(what);
  }
}

void report(const std::string& name, double value, const std::string& unit) {
  std::printf("  %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
}

int duplicate_name_errors(const GateNetlist& netlist) {
  LintOptions opt;
  for (const LintRule& rule : LintRegistry::global().rules()) {
    if (rule.id != "net.duplicate-name") opt.disabled_rules.push_back(rule.id);
  }
  LintInput in;
  in.netlist = &netlist;
  return run_lint(in, opt).count(Severity::kError);
}

std::size_t max_fanout(const GateNetlist& netlist) {
  std::size_t best = 0;
  for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
    best = std::max(best, netlist.net(static_cast<int>(n)).sinks.size());
  }
  return best;
}

std::unique_ptr<Design> set_up(const DesignSpec& spec, Tracer& tracer,
                               Outcome& out) {
  auto d = std::make_unique<Design>();
  try {
    d->models = std::make_unique<Models>();
    Models& m = *d->models;
    {
      Tracer::Scope s(tracer, "liberty.charlib", 0);
      m.charlib = make_synthetic_charlib();
    }
    {
      Tracer::Scope s(tracer, "core.model_fit", 0);
      m.cell_model = NSigmaCellModel::fit(m.charlib);
      m.wire_model = NSigmaWireModel::fit(m.charlib, m.cells);
    }
    {
      Tracer::Scope s(tracer, "netlist.generate", 0);
      if (spec.kind == DesignSpec::Kind::kTiledMultiplier) {
        d->netlist = generate_tiled_multiplier_array(16, spec.size, m.cells,
                                                     spec.name);
      } else {
        RandomNetlistSpec rs;
        rs.name = spec.name;
        rs.target_cells = spec.size;
        rs.seed = spec.design_seed;
        d->netlist = generate_random_mapped(rs, m.cells);
        finalize_design(d->netlist, m.cells, m.tech);
      }
    }
    {
      Tracer::Scope s(tracer, "netlist.levelize", 0);
      d->netlist.levelization();
      d->netlist.primary_outputs();
    }
    {
      Tracer::Scope s(tracer, "parasitics.generate", 0);
      AnnotateConfig ac;
      ac.seed = spec.parasitic_seed;
      d->parasitics = generate_parasitics(d->netlist, m.tech, ac);
    }
    int dups = 0;
    {
      Tracer::Scope s(tracer, "lint.duplicate_name", 0);
      dups = duplicate_name_errors(d->netlist);
    }
    if (dups != 0) {
      out.fail("set-up of " + spec.name + ": net.duplicate-name reports " +
               std::to_string(dups) + " error(s)");
      return nullptr;
    }
  } catch (const std::exception& e) {
    out.fail("set-up of " + spec.name + " threw: " + e.what());
    return nullptr;
  }
  ++out.attempted;
  return d;
}

double span_median(const Tracer& tracer, const std::string& name) {
  return median(tracer.durations(name));
}

double span_total(const Tracer& tracer, const std::string& name) {
  double sum = 0.0;
  for (double d : tracer.durations(name)) sum += d;
  return sum;
}

void probe_graph_layers(const GateNetlist& nl, const ParasiticDb& parasitics,
                        const NSigmaCellModel& cell_model,
                        const TechParams& tech, Tracer& tracer, Outcome& out) {
  FlatTimingGraph graph = [&] {
    Tracer::Scope s(tracer, "netlist.flatgraph_compile", 0);
    return FlatTimingGraph::compile(nl);
  }();
  out.layer["netlist.flatgraph_compile_s"] =
      span_median(tracer, "netlist.flatgraph_compile");
  out.layer["netlist.flatgraph_bytes_per_cell"] =
      static_cast<double>(graph.memory_bytes()) /
      static_cast<double>(std::max<std::size_t>(nl.num_cells(), 1));

  // The annotation kernel's Elmore work, isolated: every sink of every
  // generated tree, looked up by pin name the way annotation does.
  double elmore_sum = 0.0;
  {
    Tracer::Scope s(tracer, "parasitics.elmore", 0);
    for (const auto& [name, tree] : parasitics.all()) {
      for (const RcTree::Sink& sink : tree.sinks()) {
        elmore_sum += tree.elmore(tree.sink_node(sink.pin));
      }
    }
  }
  out.check(std::isfinite(elmore_sum) && elmore_sum > 0.0,
            "Elmore sweep produced a non-finite or empty sum");
  out.layer["parasitics.elmore_s"] = span_total(tracer, "parasitics.elmore");
  out.layer["parasitics.max_fanout"] = static_cast<double>(max_fanout(nl));

  const StaEngine sta(cell_model, tech);
  const ParasiticDb no_parasitics;
  StaEngine::Result pincap;
  {
    Tracer::Scope s(tracer, "sta.flat_pincap", 0);
    pincap = sta.run(graph, nl, no_parasitics);
  }
  out.check(pincap.critical_net >= 0 && std::isfinite(pincap.max_arrival),
            "pin-cap STA found no critical PO");
  out.layer["sta.flat_pincap_s"] = span_median(tracer, "sta.flat_pincap");
}

}  // namespace perfbench
