#include "alloc/two_tier.hpp"

namespace e2efa {

TwoTierResult two_tier_allocate(const ContentionGraph& g,
                                const std::vector<std::vector<int>>* cliques) {
  const FlowSet& flows = g.flows();
  const int m = flows.subflow_count();

  TwoTierResult out;
  out.subflow_basic = subflow_basic_shares(g);  // group-aware denominators

  ShareLp lp;
  lp.lower_bounds = out.subflow_basic;
  lp.weights.resize(static_cast<std::size_t>(m));
  for (int s = 0; s < m; ++s)
    lp.weights[static_cast<std::size_t>(s)] = flows.subflow(s).weight;
  lp.capacity_rows = subflow_capacity_rows(g, cliques);

  ShareLpResult r = solve_share_lp(lp);
  out.status = r.status;
  out.min_relaxation = r.min_relaxation;
  if (r.status == LpStatus::kOptimal) {
    out.total_single_hop = r.total;
    out.allocation = make_subflow_allocation(flows, std::move(r.shares));
  }
  return out;
}

}  // namespace e2efa
