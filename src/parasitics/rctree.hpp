#pragma once
// RC interconnect trees: storage, moment metrics (Elmore m1, second moment,
// D2M), variation scaling, and export into the transistor-level simulator.
//
// Node 0 is always the root (the driver output pin). Every other node has a
// parent and a resistance on the edge to its parent; capacitance is lumped
// at nodes. Sinks (receiver input pins) are marked nodes.
//
// Complexity: add_node guarantees parent < child, so index order is a
// topological order. Every moment is two linear passes (Rubinstein-
// Penfield-Horowitz): a reverse pass sums each node's downstream
// capacitance Cdown, a forward pass sets m1(k) = m1(parent) + R_k Cdown(k).
// elmore_all() is O(nodes) for every node of the tree; elmore(node) and
// second_moment(node) are O(nodes) and one allocation each. Resolving many
// sink names on one tree goes through SinkIndex (O(1) amortized per name);
// sink_node alone scans the sink list.

#include <string>
#include <string_view>
#include <vector>

#include "spice/circuit.hpp"
#include "util/rng.hpp"

namespace nsdc {

class RcTree {
 public:
  RcTree();

  /// Adds a node hanging off `parent` through resistance `r_ohms`, with
  /// `c_farads` lumped at the new node. Returns the new node index.
  int add_node(int parent, double r_ohms, double c_farads);

  /// Adds extra lumped capacitance at an existing node (e.g. pin caps).
  void add_cap(int node, double c_farads);

  /// Marks a node as a sink pin.
  void mark_sink(int node, std::string pin_name);

  int num_nodes() const { return static_cast<int>(parent_.size()); }
  int parent(int node) const { return parent_.at(static_cast<std::size_t>(node)); }
  double edge_res(int node) const { return res_.at(static_cast<std::size_t>(node)); }
  double node_cap(int node) const { return cap_.at(static_cast<std::size_t>(node)); }

  struct Sink {
    int node = 0;
    std::string pin;
  };
  const std::vector<Sink>& sinks() const { return sinks_; }
  /// Sink node for a pin name; throws std::out_of_range if absent.
  /// Takes a string_view so interned names (FlatTimingGraph arena) look
  /// up without allocating.
  int sink_node(std::string_view pin) const;

  double total_cap() const;
  double total_res() const;

  /// Elmore delay (first moment of the impulse response) root -> every
  /// node, indexed by node (entry 0 is 0). One reverse and one forward
  /// pass; `m1` is resized to num_nodes().
  void elmore_all(std::vector<double>& m1) const;
  std::vector<double> elmore_all() const;
  /// Elmore delay root -> node: the same downstream-cap pass, then the
  /// forward recursion up to index `node` (its root path has no larger
  /// index). Bit-identical to elmore_all()[node]: the same operations in
  /// the same order. Throws std::out_of_range for a bad node.
  double elmore(int node) const;
  /// Second impulse-response moment  m2 = sum_k R_common(i,k) C_k m1(k),
  /// evaluated as the sum over the root path's edges e of R_e times the
  /// sum of C_k m1(k) over e's subtree (the same two passes).
  double second_moment(int node) const;
  /// D2M delay metric: ln(2) * m1^2 / sqrt(m2).
  double d2m(int node) const;

  /// Copy with all resistances / capacitances scaled (variation corners).
  RcTree scaled(double r_factor, double c_factor) const;
  /// Copy with independent per-element local variation factors.
  RcTree perturbed(Rng& rng, double sigma_local, double r_factor,
                   double c_factor) const;

  /// Instantiates the tree into a circuit. `root` is the existing circuit
  /// node for the driver pin; returns circuit nodes indexed by tree node
  /// (entry 0 == root). All tree nodes start at `initial_v`.
  std::vector<NodeId> build_spice(Circuit& ckt, NodeId root,
                                  double initial_v) const;

 private:
  /// In place: w[k] becomes the sum of w over k's subtree (one reverse
  /// pass; each parent adds its children in descending index order).
  void downstream_sums(std::vector<double>& w) const;
  /// In place, for k in [1, last]: w[k] = w[parent] + R_k * w[k], with
  /// w[0] = 0 (the forward pass, root first). Turns downstream sums into
  /// sums of R_e * down[e] over each node's root path.
  void path_sums(std::vector<double>& w, std::size_t last) const;
  /// `node` as an index; throws std::out_of_range when it is no node.
  std::size_t checked_node(int node) const;

  std::vector<int> parent_;
  std::vector<double> res_;
  std::vector<double> cap_;
  std::vector<Sink> sinks_;
};

/// sink_node for every sink name of one tree: the same first-match node in
/// O(1) amortized per name. Small trees scan; larger ones build a hash
/// table once (open addressing over sink indices, one allocation, so a
/// per-net index leaves no scattered small blocks behind). Reads the
/// tree's sinks, so the tree must outlive the index and gain no sinks
/// meanwhile (add_cap is fine).
class SinkIndex {
 public:
  explicit SinkIndex(const RcTree& tree);
  /// Throws std::out_of_range for an unknown pin, like RcTree::sink_node.
  int node(std::string_view pin) const;

 private:
  const RcTree* tree_;
  /// Sink index per slot, -1 = empty; a power of two at least twice the
  /// sink count. Empty => scan.
  std::vector<int> slots_;
};

}  // namespace nsdc
