#include "parasitics/rctree.hpp"

#include <cmath>
#include <functional>
#include <numbers>
#include <stdexcept>
#include <string>

namespace nsdc {

RcTree::RcTree() {
  parent_.push_back(-1);
  res_.push_back(0.0);
  cap_.push_back(0.0);
}

int RcTree::add_node(int parent, double r_ohms, double c_farads) {
  if (parent < 0 || parent >= num_nodes()) {
    throw std::out_of_range("RcTree::add_node: bad parent");
  }
  if (!(r_ohms >= 0.0) || !(c_farads >= 0.0)) {
    throw std::invalid_argument("RcTree::add_node: negative R or C");
  }
  parent_.push_back(parent);
  res_.push_back(r_ohms);
  cap_.push_back(c_farads);
  return num_nodes() - 1;
}

void RcTree::add_cap(int node, double c_farads) {
  cap_.at(static_cast<std::size_t>(node)) += c_farads;
}

void RcTree::mark_sink(int node, std::string pin_name) {
  if (node <= 0 || node >= num_nodes()) {
    throw std::out_of_range("RcTree::mark_sink: bad node");
  }
  sinks_.push_back({node, std::move(pin_name)});
}

int RcTree::sink_node(std::string_view pin) const {
  for (const auto& s : sinks_) {
    if (s.pin == pin) return s.node;
  }
  throw std::out_of_range("RcTree: unknown sink pin " + std::string(pin));
}

double RcTree::total_cap() const {
  double c = 0.0;
  for (double x : cap_) c += x;
  return c;
}

double RcTree::total_res() const {
  double r = 0.0;
  for (double x : res_) r += x;
  return r;
}

void RcTree::downstream_sums(std::vector<double>& w) const {
  for (std::size_t k = w.size(); k-- > 1;) {
    w[static_cast<std::size_t>(parent_[k])] += w[k];
  }
}

void RcTree::path_sums(std::vector<double>& w, std::size_t last) const {
  // parent < child, so w[parent] is final before child k overwrites its
  // downstream sum.
  w[0] = 0.0;
  for (std::size_t k = 1; k <= last; ++k) {
    w[k] = w[static_cast<std::size_t>(parent_[k])] + res_[k] * w[k];
  }
}

void RcTree::elmore_all(std::vector<double>& m1) const {
  m1.assign(cap_.begin(), cap_.end());
  downstream_sums(m1);
  path_sums(m1, m1.size() - 1);
}

std::vector<double> RcTree::elmore_all() const {
  std::vector<double> m1;
  elmore_all(m1);
  return m1;
}

double RcTree::elmore(int node) const {
  const std::size_t i = checked_node(node);
  // The root path of `node` only holds indices <= node, so the forward
  // pass stops there; every value it computes is elmore_all()'s.
  std::vector<double> m1(cap_);
  downstream_sums(m1);
  path_sums(m1, i);
  return m1[i];
}

double RcTree::second_moment(int node) const {
  const std::size_t i = checked_node(node);
  // m2(i) = sum_k R_common(i,k) C_k m1(k) regrouped by edge: each edge e on
  // the root path carries R_e times the sum of C_k m1(k) over its subtree.
  std::vector<double> w;
  elmore_all(w);
  for (std::size_t k = 0; k < w.size(); ++k) w[k] *= cap_[k];
  downstream_sums(w);
  path_sums(w, i);
  return w[i];
}

std::size_t RcTree::checked_node(int node) const {
  if (node < 0 || node >= num_nodes()) {
    throw std::out_of_range("RcTree: bad node " + std::to_string(node));
  }
  return static_cast<std::size_t>(node);
}

double RcTree::d2m(int node) const {
  const double m1 = elmore(node);
  const double m2 = second_moment(node);
  if (m2 <= 0.0) return m1 * std::numbers::ln2;
  return std::numbers::ln2 * m1 * m1 / std::sqrt(m2);
}

RcTree RcTree::scaled(double r_factor, double c_factor) const {
  RcTree t = *this;
  for (std::size_t i = 0; i < t.res_.size(); ++i) {
    t.res_[i] *= r_factor;
    t.cap_[i] *= c_factor;
  }
  return t;
}

RcTree RcTree::perturbed(Rng& rng, double sigma_local, double r_factor,
                         double c_factor) const {
  RcTree t = *this;
  auto local = [&] {
    const double z = rng.normal();
    return std::max(0.3, 1.0 + sigma_local * (z > 4.0 ? 4.0 : (z < -4.0 ? -4.0 : z)));
  };
  for (std::size_t i = 1; i < t.res_.size(); ++i) {
    t.res_[i] *= r_factor * local();
    t.cap_[i] *= c_factor * local();
  }
  t.cap_[0] *= c_factor;
  return t;
}

std::vector<NodeId> RcTree::build_spice(Circuit& ckt, NodeId root,
                                        double initial_v) const {
  std::vector<NodeId> ids(static_cast<std::size_t>(num_nodes()));
  ids[0] = root;
  for (int n = 1; n < num_nodes(); ++n) {
    ids[static_cast<std::size_t>(n)] = ckt.make_node("rc" + std::to_string(n));
    ckt.set_initial_voltage(ids[static_cast<std::size_t>(n)], initial_v);
  }
  for (int n = 1; n < num_nodes(); ++n) {
    const auto ni = static_cast<std::size_t>(n);
    const auto pi = static_cast<std::size_t>(parent_[ni]);
    // A zero-resistance edge would need node merging; clamp to 0.1 Ohm.
    ckt.add_resistor(ids[pi], ids[ni], std::max(res_[ni], 0.1));
    if (cap_[ni] > 0.0) ckt.add_capacitor(ids[ni], kGround, cap_[ni]);
  }
  if (cap_[0] > 0.0) ckt.add_capacitor(root, kGround, cap_[0]);
  return ids;
}

namespace {
/// Sink counts up to this scan the list; larger trees hash the names.
constexpr std::size_t kSinkScanMax = 8;

std::size_t name_hash(std::string_view pin) {
  return std::hash<std::string_view>{}(pin);
}
}  // namespace

SinkIndex::SinkIndex(const RcTree& tree) : tree_(&tree) {
  const auto& sinks = tree.sinks();
  if (sinks.size() <= kSinkScanMax) return;
  std::size_t size = 1;
  while (size < 2 * sinks.size()) size <<= 1;
  slots_.assign(size, -1);
  const std::size_t mask = size - 1;
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    std::size_t h = name_hash(sinks[i].pin) & mask;
    while (slots_[h] >= 0 &&
           sinks[static_cast<std::size_t>(slots_[h])].pin != sinks[i].pin) {
      h = (h + 1) & mask;
    }
    // A repeated name keeps its first entry: sink_node's match.
    if (slots_[h] < 0) slots_[h] = static_cast<int>(i);
  }
}

int SinkIndex::node(std::string_view pin) const {
  if (slots_.empty()) return tree_->sink_node(pin);
  const auto& sinks = tree_->sinks();
  const std::size_t mask = slots_.size() - 1;
  // At most half the slots are used, so every probe run ends at an empty.
  for (std::size_t h = name_hash(pin) & mask; slots_[h] >= 0;
       h = (h + 1) & mask) {
    const auto& s = sinks[static_cast<std::size_t>(slots_[h])];
    if (s.pin == pin) return s.node;
  }
  throw std::out_of_range("RcTree: unknown sink pin " + std::string(pin));
}

}  // namespace nsdc
