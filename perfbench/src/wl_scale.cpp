// scale_sta: nominal STA with generated parasitics of a tiled-multiplier
// array (TMUL) through the default user call StaEngine::run(netlist,
// parasitics), which compiles the flat graph internally. The shared
// operand buses give nets with hundreds of sinks, so parasitic annotation
// shows here and nowhere else. The array is fixed; every iteration draws
// new RC trees from the workload seed.
//
// The answer is the mean STA time over the run, not the median. On a
// shared host this STA (mostly the allocating RcTree::elmore) runs at two
// speeds, about 0.6 and 0.8 s, in spells of a few to 20 s that follow
// contention on the host's core caches, while an ALU loop beside it
// varies by a few percent; an 8-tile array varies as much. A median over
// a run jumps between the two speeds as their mix changes; the mean
// follows the mix smoothly (over 20 s windows of one process, IQR/median
// 0.11 for the mean against 0.13 for the median).

#include <cmath>
#include <cstdio>
#include <exception>

#include "analysis/analysis.hpp"
#include "bench.hpp"
#include "sta/engine.hpp"

namespace perfbench {

using namespace nsdc;

namespace {

constexpr int kTiles = 24;
constexpr int kMinIterations = 5;
constexpr int kMaxIterations = 64;

DesignSpec spec_for(std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t index) {
  DesignSpec spec;
  spec.kind = DesignSpec::Kind::kTiledMultiplier;
  spec.size = kTiles;
  spec.name = "TMUL";
  spec.parasitic_seed = derive_seed(seed, stream, index);
  return spec;
}

/// Nominal arrivals inside the certified intervals; returns violations.
std::size_t interval_violations(const Design& d,
                                const StaEngine::Result& nominal,
                                Tracer& tracer) {
  const Models& m = *d.models;
  AnalysisInput in;
  in.netlist = &d.netlist;
  in.parasitics = &d.parasitics;
  in.charlib = &m.charlib;
  in.cell_model = &m.cell_model;
  in.wire_model = &m.wire_model;
  in.tech = &m.tech;
  IntervalResult iv;
  {
    Tracer::Scope s(tracer, "analysis.interval", 0);
    iv = propagate_intervals(in, AnalysisOptions{}, nominal);
  }
  std::size_t violations = 0;
  for (std::size_t n = 0; n < iv.nets.size(); ++n) {
    if (!nominal.nets[n].reachable) continue;
    for (std::size_t e = 0; e < 2; ++e) {
      if (!iv.nets[n].arrival[e].contains(nominal.nets[n].arrival[e], 1e-15)) {
        ++violations;
      }
    }
  }
  if (!iv.max_arrival.contains(nominal.max_arrival, 1e-15)) ++violations;
  return violations;
}

}  // namespace

void run_scale_sta(const Args& args, Tracer& tracer, Outcome& out) {
  constexpr std::uint64_t kRcStream = 40;
  constexpr std::uint64_t kWarmStream = 41;

  const bool traced = tracer.enabled();
  tracer.set_enabled(false);
  {
    Outcome scratch;
    if (auto d = set_up(spec_for(args.seed, kWarmStream, 0), tracer, scratch)) {
      (void)StaEngine(d->models->cell_model, d->models->tech)
          .run(d->netlist, d->parasitics);
    }
  }

  std::size_t cells = 0;
  std::size_t fanout = 0;
  std::size_t violations = 0;
  std::unique_ptr<Design> last_traced;
  const double t0 = now_s();
  for (int i = 0; i < kMaxIterations; ++i) {
    if (i >= kMinIterations && now_s() - t0 >= args.seconds) break;
    const bool spans_on = traced && i % 2 == 1;
    tracer.set_enabled(spans_on);
    const std::uint64_t request = static_cast<std::uint64_t>(i) + 1;
    const double s0 = now_s();
    std::unique_ptr<Design> d;
    {
      Tracer::Scope s(tracer, "setup", request);
      d = set_up(spec_for(args.seed, kRcStream, request - 1), tracer, out);
    }
    if (!d) continue;
    out.setup_s.push_back(now_s() - s0);
    cells = d->netlist.num_cells();
    fanout = max_fanout(d->netlist);
    try {
      const Models& m = *d->models;
      const double a0 = now_s();
      StaEngine::Result res;
      {
        Tracer::Scope s(tracer, "sta.nominal", request);
        res = StaEngine(m.cell_model, m.tech).run(d->netlist, d->parasitics);
      }
      const double answer = now_s() - a0;
      out.answer_s.push_back(answer);
      (spans_on ? out.traced_answer_s : out.untraced_answer_s).push_back(answer);
      Tracer::Scope check(tracer, "check", request);
      const std::size_t v = interval_violations(*d, res, tracer);
      violations += v;
      out.check(v == 0 && res.critical_net >= 0 &&
                    std::isfinite(res.max_arrival) && res.max_arrival > 0.0,
                "TMUL STA: " + std::to_string(v) +
                    " arrival(s) escape the certified intervals");
    } catch (const std::exception& e) {
      out.fail(std::string("TMUL STA threw: ") + e.what());
    }
    if (spans_on) last_traced = std::move(d);
  }
  tracer.set_enabled(traced);
  if (traced && last_traced) {
    const Design& d = *last_traced;
    probe_graph_layers(d.netlist, d.parasitics, d.models->cell_model,
                       d.models->tech, tracer, out);
  }

  std::printf("scale_sta: %zu runs, TMUL %d tiles, %zu cells, max fanout %zu\n",
              out.answer_s.size(), kTiles, cells, fanout);
  out.answer_is_mean = true;
  report("sta_s", mean(out.answer_s), "s");
  report("interval_violations", static_cast<double>(violations), "count");

  out.layer["sta.nominal_s"] = span_median(tracer, "sta.nominal");
  out.layer["analysis.interval_s"] = span_median(tracer, "analysis.interval");
  out.layer["analysis.violations"] = static_cast<double>(violations);
}

}  // namespace perfbench
