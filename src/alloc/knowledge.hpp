// The distributed knowledge model of Sec. IV-B, steps 1-2, shared between
// the offline oracle (distributed_allocate) and the in-band control plane
// (src/ctrl): both must derive identical per-node knowledge sets from one
// code path, or the converged protocol state could never match the oracle.
#pragma once

#include <vector>

#include "flow/flow.hpp"
#include "topology/topology.hpp"

namespace e2efa {

/// Step 1 — Own(v) for every node at once: the subflows whose source or
/// destination equals v or lies within v's interference range (what v
/// overhears by listening to RTS/CTS/DATA traffic). One pass over the
/// subflows through the interference adjacency lists, O(subflows · degree),
/// replacing the O(nodes · subflows) per-node rescan with interferes()
/// point queries. Each set is ascending and duplicate-free.
std::vector<std::vector<int>> overheard_subflow_sets(const Topology& topo,
                                                     const FlowSet& flows);

/// Step 2 — one round of neighbor exchange:
/// K(v) = Own(v) ∪ ⋃_{u ∈ neighbors(v)} Own(u).
/// `mask` (optional) restricts the exchange to the surviving topology: a
/// crashed neighbor or a cut (v,u) link contributes nothing, exactly like a
/// HELLO that can no longer be heard in-band. Own(v) itself is kept even
/// for dead v (its local listening history), matching the control plane's
/// bootstrap. Each set is ascending and duplicate-free.
std::vector<std::vector<int>> exchanged_knowledge(
    const Topology& topo, const std::vector<std::vector<int>>& own,
    const TopologyMask* mask = nullptr);

/// The local basic-share denominator Σ_j w_j·v_j (v_j = min(l_j, 3)) over
/// the flows with a subflow in `subflows`, plus `also` when it is >= 0 — a
/// node's estimate of w_i / Σ_j w_j·v_j from what it can see (Sec. IV-B).
/// The distributed solve, the admission gates and the in-band agents all
/// sum through here in ascending flow-id order, so their shares agree
/// bit for bit.
double visible_weighted_length(const FlowSet& flows, const std::vector<int>& subflows,
                               FlowId also = -1);

}  // namespace e2efa
