#pragma once
// Flat-graph STA kernels: the full-pass path of every timing engine.
//
// FlatArcRecords packs the per-arc annotation every engine needs —
// resolved charlib surface handles, the Elmore delay to each sink pin,
// the Eq. 7 wire variability X_w — contiguously in propagation (arc)
// order, so the inner loops replace string-keyed map lookups and
// per-visit name construction with array reads.
//
// Byte-identity contract: each flat kernel performs exactly the floating-
// point operations of its sta_kernel twin (engine.hpp, which IncrementalSta
// replays), in the same order, on the same inputs. NSigmaCellModel keys
// arcs by (cell name, input edge) and ignores the pin, so one handle per
// (CellType, edge) reproduces every per-arc string lookup. Elmore is
// precomputed once per net by tree.elmore_all() (O(tree nodes)) and
// scattered to the net's sink arcs; elmore_all()[node] is bit-identical to
// the tree.elmore(node) the sta_kernel twin computes per visit, and sink
// nodes resolve through SinkIndex with sink_node's first-match result, so
// both read the same double. Handles that fail to resolve (cell type
// absent from the model) stay null and the kernels fall back to the
// string-keyed lookup, which throws std::out_of_range when a reachable
// cell of that type is evaluated.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/flatgraph.hpp"
#include "sta/engine.hpp"

namespace nsdc {

class NSigmaWireModel;

/// Per-arc annotation records in propagation order. Arc indexing matches
/// FlatTimingGraph: arc = fanin_begin(pos) + pin.
struct FlatArcRecords {
  /// Resolved charlib handle per input edge (index 0 = input rising);
  /// nullptr = unresolved, kernels fall back to the string path.
  std::array<std::vector<const CellArcModel*>, 2> arc_model;
  /// Elmore root->sink-pin delay; 0.0 when the fanin net has no tree.
  std::vector<double> elmore;
  /// 1 when the fanin net's annotated tree has > 1 node.
  std::vector<std::uint8_t> has_tree;
  /// Raw (unscaled) Eq. 7 X_w per arc with a tree; consumers apply their
  /// variation scale. Filled by bind_wire_xw; empty until then.
  std::vector<double> xw;

  std::size_t memory_bytes() const;
};

namespace flat_kernel {

/// Resolves charlib handles (one resolution per CellType, fanned out to
/// every arc) and precomputes per-arc Elmore delays from the annotated
/// trees in `res`: one elmore_all() per net, in parallel over nets, with
/// one buffer per chunk of nets. Call after annotation, before propagation.
void bind_arc_records(const FlatTimingGraph& graph,
                      const NSigmaCellModel& model,
                      const StaEngine::Result& res, const ExecContext& exec,
                      FlatArcRecords& rec);

/// Fills rec.xw for every arc with a tree: wire.xw(driver cell type,
/// sink cell type), with the "INVx4" driver fallback for PI-driven nets;
/// read by NetlistMonteCarlo, AnalyticSsta and the interval analysis.
/// Cached per (driver type, sink type) pair.
void bind_wire_xw(const FlatTimingGraph& graph, const NSigmaWireModel& wire,
                  FlatArcRecords& rec);

/// sta_kernel::annotate_net on the flat graph: the parasitic lookup still
/// uses the netlist's net name (ParasiticDb is string-keyed), but sink pin
/// caps come from the interned fanout arrays — no per-sink name building.
void flat_annotate_net(const FlatTimingGraph& graph,
                       const GateNetlist& netlist,
                       const ParasiticDb& parasitics, const TechParams& tech,
                       std::size_t n, StaEngine::Result& res);

/// sta_kernel::propagate_cell for the cell at `pos`.
void flat_propagate_cell(const FlatTimingGraph& graph,
                         const FlatArcRecords& rec,
                         const NSigmaCellModel& model,
                         FlatTimingGraph::Id pos, StaEngine::Result& res);

/// sta_kernel::select_critical over graph.primary_outputs().
void flat_select_critical(const FlatTimingGraph& graph,
                          StaEngine::Result& res);

}  // namespace flat_kernel

}  // namespace nsdc
