#include "sta/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "netlist/flatgraph.hpp"
#include "sta/annotate.hpp"

namespace nsdc {

namespace sta_kernel {

void annotate_net(const GateNetlist& netlist, const ParasiticDb& parasitics,
                  const TechParams& tech, std::size_t n,
                  StaEngine::Result& res) {
  const Net& net = netlist.net(static_cast<int>(n));
  double load = 0.0;
  if (parasitics.contains(net.name)) {
    RcTree tree = parasitics.net(net.name);
    const SinkIndex sinks(tree);
    for (const auto& sink : net.sinks) {
      const auto& inst = netlist.cell(sink.cell);
      const double pin_cap = inst.type->input_cap(tech, sink.pin);
      tree.add_cap(sinks.node(sink_pin_name(inst, sink.pin)), pin_cap);
    }
    load = tree.total_cap();
    res.annotated[n] = std::move(tree);
  } else {
    res.annotated[n] = RcTree{};
    load = netlist.net_pin_cap(static_cast<int>(n), tech);
  }
  res.net_load[n] = load;
}

void propagate_cell(const GateNetlist& netlist, const NSigmaCellModel& model,
                    int c, StaEngine::Result& res) {
  const CellInst& inst = netlist.cell(c);
  const auto out = static_cast<std::size_t>(inst.out_net);
  // Reset so stale state from a prior propagation of this slot can never
  // leak through (an unreachable edge keeps the default fields).
  res.nets[out] = StaEngine::NetTime{};
  auto& out_time = res.nets[out];
  const double load = res.net_load[out];
  const bool inverting = inst.type->inverting();

  for (int edge = 0; edge < 2; ++edge) {       // 0: output rises
    const bool out_rising = edge == 0;
    const bool in_rising = inverting ? !out_rising : out_rising;
    const int in_edge = in_rising ? 0 : 1;
    double best = -1.0;
    int best_pin = -1;
    double best_slew = 10e-12;
    for (std::size_t pin = 0; pin < inst.fanin_nets.size(); ++pin) {
      if (inst.fanin_nets[pin] < 0) continue;  // unconnected pin
      const auto fan = static_cast<std::size_t>(inst.fanin_nets[pin]);
      const auto& fan_time = res.nets[fan];
      if (!fan_time.reachable) continue;
      // Wire delay from the fanin driver to this pin.
      double wire_delay = 0.0;
      const RcTree& tree = res.annotated[fan];
      if (tree.num_nodes() > 1) {
        wire_delay = tree.elmore(
            tree.sink_node(sink_pin_name(inst, static_cast<int>(pin))));
      }
      const double slew_in = fan_time.slew[static_cast<std::size_t>(in_edge)];
      const double cell_delay = model.mean_delay(
          inst.type->name(), static_cast<int>(pin), in_rising, slew_in, load);
      const double arr =
          fan_time.arrival[static_cast<std::size_t>(in_edge)] + wire_delay +
          cell_delay;
      if (arr > best) {
        best = arr;
        best_pin = static_cast<int>(pin);
        best_slew = slew_in;
      }
    }
    if (best_pin < 0) continue;  // edge unreachable
    out_time.reachable = true;
    out_time.arrival[static_cast<std::size_t>(edge)] = best;
    out_time.from_pin[static_cast<std::size_t>(edge)] = best_pin;
    out_time.slew[static_cast<std::size_t>(edge)] = model.mean_out_slew(
        inst.type->name(), best_pin, inverting ? !out_rising : out_rising,
        best_slew, load);
  }
}

void select_critical(const GateNetlist& netlist, StaEngine::Result& res) {
  res.max_arrival = 0.0;
  res.critical_net = -1;
  res.critical_edge = 0;
  for (int po : netlist.primary_outputs()) {
    const auto& nt = res.nets[static_cast<std::size_t>(po)];
    if (!nt.reachable) continue;
    for (int edge = 0; edge < 2; ++edge) {
      const double arr = nt.arrival[static_cast<std::size_t>(edge)];
      if (arr > res.max_arrival) {
        res.max_arrival = arr;
        res.critical_net = po;
        res.critical_edge = edge;
      }
    }
  }
  if (res.critical_net < 0) {
    throw std::runtime_error("StaEngine: no reachable primary output in " +
                             netlist.name());
  }
}

}  // namespace sta_kernel

StaEngine::Result StaEngine::run(const GateNetlist& netlist,
                                 const ParasiticDb& parasitics) const {
  const FlatTimingGraph graph =
      FlatTimingGraph::compile(netlist, config_.exec.cancel);
  return run(graph, netlist, parasitics);
}

namespace {

/// Backtracks the worst arrival at (po_net, po_edge) into a path.
PathDescription extract_path_from(const GateNetlist& netlist,
                                  const StaEngine::Result& result, int po_net,
                                  int po_edge) {
  PathDescription path;
  path.design = netlist.name();

  // Backtrack from the endpoint to a PI.
  struct Hop {
    int net;
    int edge;
  };
  std::vector<Hop> hops;
  int net = po_net;
  int edge = po_edge;
  while (net >= 0) {
    hops.push_back({net, edge});
    const Net& n = netlist.net(net);
    if (n.driver_cell < 0) break;  // primary input
    const CellInst& inst = netlist.cell(n.driver_cell);
    const int pin =
        result.nets[static_cast<std::size_t>(net)].from_pin[static_cast<std::size_t>(edge)];
    if (pin < 0) {
      throw std::runtime_error("StaEngine: broken backtrack in " +
                               netlist.name());
    }
    const bool out_rising = edge == 0;
    const bool in_rising =
        inst.type->inverting() ? !out_rising : out_rising;
    net = inst.fanin_nets[static_cast<std::size_t>(pin)];
    edge = in_rising ? 0 : 1;
  }
  std::reverse(hops.begin(), hops.end());

  // hops[0] is a PI net; each subsequent hop is a cell output net.
  for (std::size_t h = 1; h < hops.size(); ++h) {
    const Net& out_net = netlist.net(hops[h].net);
    const CellInst& inst = netlist.cell(out_net.driver_cell);
    const int prev_net = hops[h - 1].net;
    const int prev_edge = hops[h - 1].edge;
    const int pin = result.nets[static_cast<std::size_t>(hops[h].net)]
                        .from_pin[static_cast<std::size_t>(hops[h].edge)];

    PathStage stage;
    stage.cell = inst.type;
    stage.pin = pin;
    stage.in_rising = prev_edge == 0;
    stage.input_slew =
        result.nets[static_cast<std::size_t>(prev_net)]
            .slew[static_cast<std::size_t>(prev_edge)];
    stage.output_load = result.net_load[static_cast<std::size_t>(hops[h].net)];
    stage.wire = result.annotated[static_cast<std::size_t>(hops[h].net)];
    // The sink toward the next stage (or the PO marker on the last stage).
    if (h + 1 < hops.size()) {
      const Net& next_net = netlist.net(hops[h + 1].net);
      const CellInst& next_inst = netlist.cell(next_net.driver_cell);
      const int next_pin =
          result.nets[static_cast<std::size_t>(hops[h + 1].net)]
              .from_pin[static_cast<std::size_t>(hops[h + 1].edge)];
      if (stage.wire.num_nodes() > 1) {
        stage.sink_node =
            stage.wire.sink_node(sink_pin_name(next_inst, next_pin));
      }
      stage.load_cell = next_inst.type->name();
    } else if (stage.wire.num_nodes() > 1 && !stage.wire.sinks().empty()) {
      // Last stage: measure at the PO sink if present, else first sink.
      stage.sink_node = [&] {
        for (const auto& s : stage.wire.sinks()) {
          if (s.pin == "PO") return s.node;
        }
        return stage.wire.sinks().front().node;
      }();
      stage.load_cell = "";
    }
    path.stages.push_back(std::move(stage));
  }
  if (path.stages.empty()) {
    throw std::runtime_error("StaEngine: empty critical path in " +
                             netlist.name());
  }
  return path;
}

}  // namespace

PathDescription StaEngine::extract_critical_path(const GateNetlist& netlist,
                                                 const Result& result) const {
  return extract_path_from(netlist, result, result.critical_net,
                           result.critical_edge);
}

std::vector<PathDescription> StaEngine::extract_worst_paths(
    const GateNetlist& netlist, const Result& result,
    std::size_t max_paths) const {
  struct Endpoint {
    int net;
    int edge;
    double arrival;
  };
  std::vector<Endpoint> endpoints;
  for (int po : netlist.primary_outputs()) {
    const auto& nt = result.nets[static_cast<std::size_t>(po)];
    if (!nt.reachable) continue;
    const int edge = nt.arrival[0] >= nt.arrival[1] ? 0 : 1;
    endpoints.push_back(
        {po, edge, nt.arrival[static_cast<std::size_t>(edge)]});
  }
  std::sort(endpoints.begin(), endpoints.end(),
            [](const Endpoint& a, const Endpoint& b) {
              return a.arrival > b.arrival;
            });
  if (endpoints.size() > max_paths) endpoints.resize(max_paths);

  std::vector<PathDescription> paths;
  paths.reserve(endpoints.size());
  for (const auto& ep : endpoints) {
    paths.push_back(extract_path_from(netlist, result, ep.net, ep.edge));
    paths.back().note =
        "endpoint " + netlist.net(ep.net).name +
        (ep.edge == 0 ? " (rise)" : " (fall)");
  }
  return paths;
}

}  // namespace nsdc
