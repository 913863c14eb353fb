#include "alloc/knowledge.hpp"

#include <algorithm>
#include <set>

namespace e2efa {

namespace {

/// Appends s to out[v] unless it is already the last entry. Only s is ever
/// appended while subflow s is being visited, so this check alone dedups
/// (a node can hear both endpoints), and ascending visit order keeps every
/// set sorted.
inline void add_hearer(std::vector<std::vector<int>>& out, NodeId v, int s) {
  auto& set = out[static_cast<std::size_t>(v)];
  if (set.empty() || set.back() != s) set.push_back(s);
}

}  // namespace

std::vector<std::vector<int>> overheard_subflow_sets(const Topology& topo,
                                                     const FlowSet& flows) {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(topo.node_count()));
  for (int s = 0; s < flows.subflow_count(); ++s) {
    const Subflow& sf = flows.subflow(s);
    add_hearer(out, sf.src, s);
    for (NodeId u : topo.interference_neighbors(sf.src)) add_hearer(out, u, s);
    if (sf.dst != sf.src) add_hearer(out, sf.dst, s);
    for (NodeId u : topo.interference_neighbors(sf.dst)) add_hearer(out, u, s);
  }
  return out;
}

std::vector<std::vector<int>> exchanged_knowledge(
    const Topology& topo, const std::vector<std::vector<int>>& own,
    const TopologyMask* mask) {
  const int nn = topo.node_count();
  std::vector<std::vector<int>> out(static_cast<std::size_t>(nn));
  for (NodeId v = 0; v < nn; ++v) {
    std::set<int> k(own[static_cast<std::size_t>(v)].begin(),
                    own[static_cast<std::size_t>(v)].end());
    for (NodeId u : topo.neighbors(v)) {
      if (mask != nullptr && (!mask->node_alive(u) || !mask->link_alive(v, u)))
        continue;
      k.insert(own[static_cast<std::size_t>(u)].begin(),
               own[static_cast<std::size_t>(u)].end());
    }
    out[static_cast<std::size_t>(v)].assign(k.begin(), k.end());
  }
  return out;
}

double visible_weighted_length(const FlowSet& flows, const std::vector<int>& subflows,
                               FlowId also) {
  std::vector<FlowId> ids;
  ids.reserve(subflows.size() + 1);
  for (int s : subflows) ids.push_back(flows.subflow(s).flow);
  if (also >= 0) ids.push_back(also);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  double sum = 0.0;
  for (FlowId j : ids) sum += flows.flow(j).weight * flows.virtual_length_of(j);
  return sum;
}

}  // namespace e2efa
