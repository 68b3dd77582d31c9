#include "sta/sdf.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "sta/annotate.hpp"
#include "sta/engine.hpp"
#include "util/units.hpp"

namespace nsdc {
namespace {

std::string triple(double lo, double typ, double hi) {
  return "(" + format_fixed(to_ps(lo), 3) + ":" + format_fixed(to_ps(typ), 3) +
         ":" + format_fixed(to_ps(hi), 3) + ")";
}

}  // namespace

std::string write_sdf(const GateNetlist& netlist,
                      const ParasiticDb& parasitics,
                      const NSigmaCellModel& cell_model,
                      const NSigmaWireModel& wire_model,
                      const TechParams& tech) {
  // Run the mean engine once to get per-instance operating points.
  StaEngine engine(cell_model, tech);
  const StaEngine::Result sta = engine.run(netlist, parasitics);

  std::ostringstream os;
  os << "(DELAYFILE\n"
     << "  (SDFVERSION \"3.0\")\n"
     << "  (DESIGN \"" << netlist.name() << "\")\n"
     << "  (VENDOR \"nsdc\")\n"
     << "  (TIMESCALE 1ps)\n";

  for (std::size_t c = 0; c < netlist.num_cells(); ++c) {
    const CellInst& inst = netlist.cell(static_cast<int>(c));
    const double load = sta.net_load[static_cast<std::size_t>(inst.out_net)];
    os << "  (CELL (CELLTYPE \"" << inst.type->name() << "\")\n"
       << "    (INSTANCE " << inst.name << ")\n"
       << "    (DELAY (ABSOLUTE\n";
    for (std::size_t pin = 0; pin < inst.fanin_nets.size(); ++pin) {
      const auto fan = static_cast<std::size_t>(inst.fanin_nets[pin]);
      // Rise at the output pairs with the matching input edge per arc.
      const bool inverting = inst.type->inverting();
      for (int edge = 0; edge < 2; ++edge) {
        const bool out_rising = edge == 0;
        const bool in_rising = inverting ? !out_rising : out_rising;
        const double slew =
            sta.nets[fan].slew[static_cast<std::size_t>(in_rising ? 0 : 1)];
        const auto q = cell_model.quantiles(
            inst.type->name(), static_cast<int>(pin), in_rising, slew, load);
        // SDF IOPATH carries (rise fall); emit one entry per input with
        // both edges' (min:typ:max) = (-3s : median : +3s).
        if (edge == 0) {
          os << "      (IOPATH A" << pin << " Z " << triple(q[0], q[3], q[6]);
        } else {
          os << ' ' << triple(q[0], q[3], q[6]) << ")\n";
        }
      }
    }
    os << "    ))\n  )\n";
  }

  // Interconnect delays: driver output -> each sink pin.
  for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
    const Net& net = netlist.net(static_cast<int>(n));
    if (net.driver_cell < 0 || net.sinks.empty()) continue;
    const RcTree& tree = sta.annotated[n];
    if (tree.num_nodes() <= 1) continue;
    const CellInst& driver = netlist.cell(net.driver_cell);
    // One pass for every sink; bit-identical to per-sink tree.elmore.
    const std::vector<double> m1 = tree.elmore_all();
    const SinkIndex sinks(tree);
    for (const auto& sink : net.sinks) {
      const CellInst& rcv = netlist.cell(sink.cell);
      const double elmore = m1[static_cast<std::size_t>(
          sinks.node(sink_pin_name(rcv, sink.pin)))];
      const double xw = wire_model.xw(driver.type->name(), rcv.type->name());
      const auto q = wire_model.quantiles(elmore, xw);
      os << "  (CELL (CELLTYPE \"net\")\n    (INSTANCE " << net.name
         << ")\n    (DELAY (ABSOLUTE\n      (INTERCONNECT " << driver.name
         << "/Z " << rcv.name << "/A" << sink.pin << ' '
         << triple(std::max(q[0], 0.0), q[3], q[6]) << ")\n    ))\n  )\n";
    }
  }
  os << ")\n";
  return os.str();
}

bool save_sdf(const GateNetlist& netlist, const ParasiticDb& parasitics,
              const NSigmaCellModel& cell_model,
              const NSigmaWireModel& wire_model, const TechParams& tech,
              const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << write_sdf(netlist, parasitics, cell_model, wire_model, tech);
  return static_cast<bool>(f);
}

}  // namespace nsdc
