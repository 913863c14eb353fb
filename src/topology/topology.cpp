#include "topology/topology.hpp"

#include <algorithm>
#include <queue>

#include "util/assert.hpp"

namespace e2efa {

bool TopologyMask::node_alive(NodeId n) const {
  if (node_up.empty()) return true;
  E2EFA_ASSERT(n >= 0 && n < static_cast<NodeId>(node_up.size()));
  return node_up[static_cast<std::size_t>(n)];
}

bool TopologyMask::link_alive(NodeId a, NodeId b) const {
  if (!node_alive(a) || !node_alive(b)) return false;
  if (down_links.empty()) return true;
  const auto key = std::minmax(a, b);
  for (const auto& l : down_links)
    if (l.first == key.first && l.second == key.second) return false;
  return true;
}

Topology::Topology(std::vector<Point> positions, double tx_range_m,
                   std::optional<double> interference_range_m)
    : positions_(std::move(positions)),
      tx_range_(tx_range_m),
      if_range_(interference_range_m.value_or(tx_range_m)),
      grid_(positions_, if_range_) {
  E2EFA_ASSERT(tx_range_ > 0.0);
  E2EFA_ASSERT_MSG(if_range_ >= tx_range_,
                   "interference range must be at least the transmission range");
  const int n = node_count();
  neighbors_.resize(static_cast<std::size_t>(n));
  if_neighbors_.resize(static_cast<std::size_t>(n));
  // One grid query per node covers both ranges: the interference
  // neighborhood is a superset of the transmission neighborhood (if_range >=
  // tx_range), and the grid reports it in the same ascending order the
  // all-pairs double loop produced, so the cached lists are bit-identical
  // to the quadratic build.
  const double tx2 = tx_range_ * tx_range_;
  for (NodeId i = 0; i < n; ++i) {
    auto& tx = neighbors_[static_cast<std::size_t>(i)];
    auto& ifr = if_neighbors_[static_cast<std::size_t>(i)];
    grid_.for_each_in_range_of(i, if_range_, [&](int j) {
      ifr.push_back(j);
      if (distance_sq(positions_[static_cast<std::size_t>(i)],
                      positions_[static_cast<std::size_t>(j)]) <= tx2)
        tx.push_back(j);
    });
  }
  // Link flags: each transmission neighborhood is an ascending subset of
  // the interference neighborhood, so one merge walk per node marks it.
  std::size_t total = 0;
  for (const auto& ifr : if_neighbors_) total += ifr.size();
  if_links_.reserve(total);
  if_link_start_.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    if_link_start_.push_back(if_links_.size());
    const auto& tx = neighbors_[static_cast<std::size_t>(i)];
    auto next_tx = tx.begin();
    for (const NodeId j : if_neighbors_[static_cast<std::size_t>(i)]) {
      const bool link = next_tx != tx.end() && *next_tx == j;
      if (link) ++next_tx;
      if_links_.push_back(link ? 1 : 0);
    }
  }
}

void Topology::check_node(NodeId n) const {
  E2EFA_ASSERT_MSG(n >= 0 && n < node_count(), "node id out of range");
}

const Point& Topology::position(NodeId n) const {
  check_node(n);
  return positions_[static_cast<std::size_t>(n)];
}

bool Topology::has_link(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  if (a == b) return false;
  return within_range(positions_[a], positions_[b], tx_range_);
}

bool Topology::interferes(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  if (a == b) return false;
  return within_range(positions_[a], positions_[b], if_range_);
}

const std::vector<NodeId>& Topology::neighbors(NodeId n) const {
  check_node(n);
  return neighbors_[static_cast<std::size_t>(n)];
}

const std::vector<NodeId>& Topology::interference_neighbors(NodeId n) const {
  check_node(n);
  return if_neighbors_[static_cast<std::size_t>(n)];
}

const char* Topology::interference_links(NodeId n) const {
  check_node(n);
  return if_links_.data() + if_link_start_[static_cast<std::size_t>(n)];
}

bool Topology::connected() const {
  const int n = node_count();
  if (n <= 1) return true;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  std::queue<NodeId> frontier;
  frontier.push(0);
  seen[0] = true;
  int visited = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : neighbors_[static_cast<std::size_t>(u)]) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        ++visited;
        frontier.push(v);
      }
    }
  }
  return visited == n;
}

void Topology::set_labels(std::vector<std::string> labels) {
  E2EFA_ASSERT(static_cast<int>(labels.size()) == node_count());
  labels_ = std::move(labels);
}

std::string Topology::label(NodeId n) const {
  check_node(n);
  if (!labels_.empty()) return labels_[static_cast<std::size_t>(n)];
  return std::to_string(n);
}

}  // namespace e2efa
