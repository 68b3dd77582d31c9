#include "sta/flatsta.hpp"

#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/nsigma_wire.hpp"
#include "util/cancel.hpp"

namespace nsdc {

std::size_t FlatArcRecords::memory_bytes() const {
  return arc_model[0].capacity() * sizeof(const CellArcModel*) +
         arc_model[1].capacity() * sizeof(const CellArcModel*) +
         elmore.capacity() * sizeof(double) +
         has_tree.capacity() * sizeof(std::uint8_t) +
         xw.capacity() * sizeof(double);
}

namespace flat_kernel {

void bind_arc_records(const FlatTimingGraph& graph,
                      const NSigmaCellModel& model,
                      const StaEngine::Result& res, const ExecContext& exec,
                      FlatArcRecords& rec) {
  using Id = FlatTimingGraph::Id;
  const Id num_arcs = graph.num_arcs();
  rec.arc_model[0].assign(num_arcs, nullptr);
  rec.arc_model[1].assign(num_arcs, nullptr);
  rec.elmore.assign(num_arcs, 0.0);
  rec.has_tree.assign(num_arcs, 0);

  // One resolution per distinct CellType: NSigmaCellModel ignores the pin
  // and keys by (cell name, input edge). A type absent from the model
  // resolves to nullptrs; its arcs fall back to the throwing string path
  // only if propagation actually evaluates them.
  std::unordered_map<const CellType*, std::array<const CellArcModel*, 2>>
      by_type;
  for (Id pos = 0; pos < graph.num_cells(); ++pos) {
    const CellType* type = graph.cell_type(pos);
    if (by_type.count(type)) continue;
    std::array<const CellArcModel*, 2> h{nullptr, nullptr};
    for (int e = 0; e < 2; ++e) {
      try {
        h[static_cast<std::size_t>(e)] = &model.arc(type->name(), 0, e == 0);
      } catch (const std::out_of_range&) {
        h[static_cast<std::size_t>(e)] = nullptr;
      }
    }
    by_type.emplace(type, h);
  }

  // Arc slots per position are disjoint, so positions fan out freely.
  exec.parallel_for(graph.num_cells(), [&](std::size_t p) {
    const Id pos = static_cast<Id>(p);
    const auto& h = by_type.at(graph.cell_type(pos));
    for (Id arc = graph.fanin_begin(pos); arc < graph.fanin_end(pos); ++arc) {
      rec.arc_model[0][arc] = h[0];
      rec.arc_model[1][arc] = h[1];
    }
  });

  // One Elmore pass per net, scattered to the net's sink arcs (each arc is
  // exactly one fanout slot of its fanin net, so nets fan out freely).
  // elmore_all()[node] is bit-identical to the tree.elmore(node) that
  // sta_kernel::propagate_cell computes per visit. One buffer per chunk:
  // nothing outlives the bind.
  const Id num_nets = graph.num_nets();
  const std::size_t net_grain =
      ExecContext::autotuned_grain(num_nets, exec.resolved_threads());
  exec.parallel_for_chunked(
      num_nets, net_grain, [&](std::size_t begin, std::size_t end) {
        std::vector<double> m1;
        for (std::size_t n = begin; n < end; ++n) {
          const RcTree& tree = res.annotated[n];
          if (tree.num_nodes() <= 1) continue;
          tree.elmore_all(m1);
          const SinkIndex sinks(tree);
          const Id net = static_cast<Id>(n);
          for (Id f = graph.fanout_begin(net); f < graph.fanout_end(net);
               ++f) {
            const Id arc =
                graph.fanin_begin(graph.fanout_pos(f)) + graph.fanout_pin(f);
            rec.has_tree[arc] = 1;
            rec.elmore[arc] =
                m1[static_cast<std::size_t>(sinks.node(graph.sink_name(f)))];
          }
        }
      });
}

void bind_wire_xw(const FlatTimingGraph& graph, const NSigmaWireModel& wire,
                  FlatArcRecords& rec) {
  using Id = FlatTimingGraph::Id;
  const Id num_arcs = graph.num_arcs();
  rec.xw.assign(num_arcs, 0.0);
  // X_w depends only on the (driver type, sink type) pair; cache the
  // string-keyed model call per pair. PI-driven nets use the "INVx4"
  // driver stand-in.
  std::unordered_map<const CellType*, std::unordered_map<const CellType*, double>>
      cache;
  static const std::string kPiDriver = "INVx4";
  for (Id pos = 0; pos < graph.num_cells(); ++pos) {
    const CellType* snk = graph.cell_type(pos);
    for (Id arc = graph.fanin_begin(pos); arc < graph.fanin_end(pos); ++arc) {
      if (!rec.has_tree[arc]) continue;
      const Id fan = graph.fanin_net(arc);
      const Id drv_pos = graph.net_driver_pos(fan);
      const CellType* drv =
          drv_pos == FlatTimingGraph::kNoId ? nullptr : graph.cell_type(drv_pos);
      auto& per_drv = cache[snk];
      auto it = per_drv.find(drv);
      if (it == per_drv.end()) {
        const double v =
            wire.xw(drv ? drv->name() : kPiDriver, snk->name());
        it = per_drv.emplace(drv, v).first;
      }
      rec.xw[arc] = it->second;
    }
  }
}

void flat_annotate_net(const FlatTimingGraph& graph,
                       const GateNetlist& netlist,
                       const ParasiticDb& parasitics, const TechParams& tech,
                       std::size_t n, StaEngine::Result& res) {
  using Id = FlatTimingGraph::Id;
  const std::string& name = netlist.net(static_cast<int>(n)).name;
  double load = 0.0;
  if (parasitics.contains(name)) {
    RcTree tree = parasitics.net(name);
    const SinkIndex sinks(tree);
    const Id net = static_cast<Id>(n);
    for (Id f = graph.fanout_begin(net); f < graph.fanout_end(net); ++f) {
      const double pin_cap = graph.cell_type(graph.fanout_pos(f))
                                 ->input_cap(tech, static_cast<int>(graph.fanout_pin(f)));
      tree.add_cap(sinks.node(graph.sink_name(f)), pin_cap);
    }
    load = tree.total_cap();
    res.annotated[n] = std::move(tree);
  } else {
    res.annotated[n] = RcTree{};
    load = netlist.net_pin_cap(static_cast<int>(n), tech);
  }
  res.net_load[n] = load;
}

void flat_propagate_cell(const FlatTimingGraph& graph,
                         const FlatArcRecords& rec,
                         const NSigmaCellModel& model,
                         FlatTimingGraph::Id pos, StaEngine::Result& res) {
  using Id = FlatTimingGraph::Id;
  const auto out = static_cast<std::size_t>(graph.cell_out_net(pos));
  // Reset so stale state from a prior propagation of this slot can never
  // leak through (an unreachable edge keeps the default fields).
  res.nets[out] = StaEngine::NetTime{};
  auto& out_time = res.nets[out];
  const double load = res.net_load[out];
  const bool inverting = graph.inverting(pos);
  const Id a0 = graph.fanin_begin(pos);
  const Id a1 = graph.fanin_end(pos);

  for (int edge = 0; edge < 2; ++edge) {       // 0: output rises
    const bool out_rising = edge == 0;
    const bool in_rising = inverting ? !out_rising : out_rising;
    const int in_edge = in_rising ? 0 : 1;
    const auto& models = rec.arc_model[static_cast<std::size_t>(in_edge)];
    double best = -1.0;
    int best_pin = -1;
    double best_slew = 10e-12;
    for (Id arc = a0; arc < a1; ++arc) {
      const Id fan_id = graph.fanin_net(arc);
      if (fan_id == FlatTimingGraph::kNoId) continue;  // unconnected pin
      const auto fan = static_cast<std::size_t>(fan_id);
      const auto& fan_time = res.nets[fan];
      if (!fan_time.reachable) continue;
      // Wire delay from the fanin driver to this pin (bind_arc_records'
      // elmore_all, bit-identical to sta_kernel's per-visit tree.elmore).
      const double wire_delay = rec.has_tree[arc] ? rec.elmore[arc] : 0.0;
      const double slew_in = fan_time.slew[static_cast<std::size_t>(in_edge)];
      const CellArcModel* am = models[arc];
      const double cell_delay =
          am ? am->mean_delay.lookup(slew_in, load)
             : model.mean_delay(graph.cell_type(pos)->name(),
                                static_cast<int>(arc - a0), in_rising,
                                slew_in, load);
      const double arr =
          fan_time.arrival[static_cast<std::size_t>(in_edge)] + wire_delay +
          cell_delay;
      if (arr > best) {
        best = arr;
        best_pin = static_cast<int>(arc - a0);
        best_slew = slew_in;
      }
    }
    if (best_pin < 0) continue;  // edge unreachable
    out_time.reachable = true;
    out_time.arrival[static_cast<std::size_t>(edge)] = best;
    out_time.from_pin[static_cast<std::size_t>(edge)] = best_pin;
    const CellArcModel* am = models[a0 + static_cast<Id>(best_pin)];
    out_time.slew[static_cast<std::size_t>(edge)] =
        am ? am->mean_out_slew.lookup(best_slew, load)
           : model.mean_out_slew(graph.cell_type(pos)->name(), best_pin,
                                 in_rising, best_slew, load);
  }
}

void flat_select_critical(const FlatTimingGraph& graph,
                          StaEngine::Result& res) {
  res.max_arrival = 0.0;
  res.critical_net = -1;
  res.critical_edge = 0;
  for (FlatTimingGraph::Id po : graph.primary_outputs()) {
    const auto& nt = res.nets[po];
    if (!nt.reachable) continue;
    for (int edge = 0; edge < 2; ++edge) {
      const double arr = nt.arrival[static_cast<std::size_t>(edge)];
      if (arr > res.max_arrival) {
        res.max_arrival = arr;
        res.critical_net = static_cast<int>(po);
        res.critical_edge = edge;
      }
    }
  }
  if (res.critical_net < 0) {
    throw std::runtime_error("StaEngine: no reachable primary output in " +
                             graph.design_name());
  }
}

}  // namespace flat_kernel

StaEngine::Result StaEngine::run(const FlatTimingGraph& graph,
                                 const GateNetlist& netlist,
                                 const ParasiticDb& parasitics,
                                 FlatArcRecords* keep_records) const {
  if (graph.source_generation() != netlist.generation()) {
    throw std::invalid_argument(
        "StaEngine: stale FlatTimingGraph (netlist edited since compile) "
        "for " +
        netlist.name());
  }
  Result res;
  res.nets.resize(netlist.num_nets());
  res.annotated.resize(netlist.num_nets());
  res.net_load.assign(netlist.num_nets(), 0.0);

  const bool parallel = config_.parallel_for_size(netlist.num_cells());
  const ExecContext exec =
      parallel ? config_.exec : config_.exec.with_threads(1);

  exec.parallel_for(netlist.num_nets(), [&](std::size_t n) {
    flat_kernel::flat_annotate_net(graph, netlist, parasitics, tech_, n, res);
  });

  // Primary inputs: both edges arrive at t=0 with the reference slew.
  for (FlatTimingGraph::Id pi : graph.primary_inputs()) {
    auto& nt = res.nets[pi];
    nt.reachable = true;
    nt.arrival = {0.0, 0.0};
    nt.slew = {10e-12, 10e-12};
  }

  FlatArcRecords local;
  FlatArcRecords& rec = keep_records ? *keep_records : local;
  flat_kernel::bind_arc_records(graph, model_, res, exec, rec);

  for (FlatTimingGraph::Id l = 0; l < graph.num_levels(); ++l) {
    const FlatTimingGraph::Id begin = graph.level_begin(l);
    const FlatTimingGraph::Id end = graph.level_end(l);
    // Autotuned grain (see ExecContext::autotuned_grain): level-width
    // blocks amortize the global-queue transaction per level.
    exec.parallel_for_autotuned(end - begin, [&](std::size_t i) {
      flat_kernel::flat_propagate_cell(
          graph, rec, model_, begin + static_cast<FlatTimingGraph::Id>(i),
          res);
    });
  }

  flat_kernel::flat_select_critical(graph, res);
  return res;
}

}  // namespace nsdc
