// Allocation results and the paper's fairness quantities (Sec. II).
//
// All shares are expressed in units of the effective channel capacity B
// (B == 1.0); the simulator scales to bits/s. For an *equalized* allocation
// (all subflows of a flow get the flow share r̂_i), the end-to-end
// throughput u_i equals r̂_i; for a per-subflow allocation (the two-tier
// baseline), u_i = min_j r_{i.j}.
#pragma once

#include <vector>

#include "contention/cliques.hpp"
#include "contention/contention_graph.hpp"
#include "flow/flow.hpp"

namespace e2efa {

/// The outcome of a phase-1 allocation.
struct Allocation {
  /// r̂_i per flow, in units of B. For equalized allocators this is the
  /// share of every subflow of flow i.
  std::vector<double> flow_share;

  /// r_{i.j} per subflow (global subflow index), in units of B.
  std::vector<double> subflow_share;

  /// End-to-end throughput u_i = min_j r_{i.j} per flow, units of B.
  std::vector<double> end_to_end;

  /// Σ_i u_i — the paper's total effective throughput, units of B.
  double total_effective = 0.0;
};

/// Builds an equalized Allocation (subflow share = flow share) from per-flow
/// shares.
Allocation make_equalized_allocation(const FlowSet& flows,
                                     std::vector<double> flow_share);

/// Builds an Allocation from per-subflow shares (two-tier style); flow_share
/// is filled with the per-flow minimum.
Allocation make_subflow_allocation(const FlowSet& flows,
                                   std::vector<double> subflow_share);

/// Basic share of every flow (Sec. II-D): w_i·B / Σ_j w_j·v_j, where the
/// sum runs over ALL flows in `flows`. Correct when the whole set is one
/// contending flow group; for general sets use the group-aware overload.
std::vector<double> basic_shares(const FlowSet& flows);

/// Group-aware basic shares (the paper's actual definition): the
/// denominator Σ w_j·v_j is taken over the flow's *contending flow group*
/// only — disjoint groups do not dilute each other's floors.
std::vector<double> basic_shares(const ContentionGraph& g);

/// Per-subflow basic share used by the two-tier baseline: w_{i.j}·B /
/// Σ_{subflows in the group} w (previous work treats each subflow as an
/// independent single-hop flow). Whole-set denominator variant.
std::vector<double> subflow_basic_shares(const FlowSet& flows);

/// Group-aware per-subflow basic shares.
std::vector<double> subflow_basic_shares(const ContentionGraph& g);

/// Capacity rows over subflows: the 0/1 indicator of each maximal clique,
/// deduplicated and sorted. `cliques`, when given, is the precomputed
/// maximal-clique list of `g`.
std::vector<std::vector<double>> subflow_capacity_rows(
    const ContentionGraph& g, const std::vector<std::vector<int>>* cliques = nullptr);

/// Proposition 1: upper bound of total effective throughput under the
/// (strict) fairness constraint: Σ_i w_i · B / ω_Ω.
double fairness_upper_bound(const ContentionGraph& g);

/// Per-flow shares under the strict fairness constraint at the Prop.-1
/// bound: r̂_i = w_i·B/ω_Ω (may be unachievable, e.g. the pentagon).
std::vector<double> fairness_bound_shares(const ContentionGraph& g);

/// Max over maximal cliques of (Σ subflow shares in clique) — the clique
/// load; the allocation satisfies local capacity iff this is <= B (+eps).
double max_clique_load(const ContentionGraph& g, const std::vector<double>& subflow_share);

/// True when every maximal clique's load is <= B + eps (Eq. (3)/(6)).
bool satisfies_clique_capacity(const ContentionGraph& g,
                               const std::vector<double>& subflow_share,
                               double eps = 1e-9);

/// True when every flow's share is >= its basic share - eps (basic
/// fairness), with the whole-set denominator.
bool satisfies_basic_fairness(const FlowSet& flows,
                              const std::vector<double>& flow_share,
                              double eps = 1e-9);

/// Group-aware basic-fairness check (the stronger, paper-correct floor).
bool satisfies_basic_fairness(const ContentionGraph& g,
                              const std::vector<double>& flow_share,
                              double eps = 1e-9);

/// The fairness-constraint residual: max_{i,j} |r̂_i/w_i − r̂_j/w_j|.
/// Zero for allocations satisfying the strict fairness constraint.
double fairness_residual(const FlowSet& flows, const std::vector<double>& flow_share);

}  // namespace e2efa
