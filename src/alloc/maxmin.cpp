#include "alloc/maxmin.hpp"

#include "alloc/refine.hpp"

namespace e2efa {

namespace {

/// Plain weighted max-min over `lp`'s capacity rows: no floors, no total
/// pass, `caps` as the columns' upper bounds.
MaxMinResult solve_maxmin(ShareLp lp, const std::vector<double>& caps) {
  const std::size_t n = lp.weights.size();
  lp.lower_bounds.assign(n, 0.0);
  lp.upper_bounds = caps;
  lp.maximize_total = false;
  ShareLpResult r = solve_share_lp(lp);
  MaxMinResult out;
  for (std::size_t i = 0; i < n; ++i) {
    out.level.push_back(r.shares[i] / lp.weights[i]);
    out.capped.push_back(!caps.empty() && r.shares[i] >= caps[i] - 1e-6);
  }
  out.allocation.flow_share = std::move(r.shares);  // caller re-shapes
  return out;
}

}  // namespace

MaxMinResult maxmin_allocate(const ContentionGraph& g, const std::vector<double>& caps,
                             const std::vector<std::vector<int>>* cliques) {
  const FlowSet& flows = g.flows();
  ShareLp lp;
  for (FlowId f = 0; f < flows.flow_count(); ++f) lp.weights.push_back(flows.flow(f).weight);
  const auto rows = cliques != nullptr ? clique_constraint_rows(g, *cliques)
                                       : clique_constraint_rows(g);
  for (const auto& row : rows) lp.capacity_rows.emplace_back(row.begin(), row.end());
  MaxMinResult out = solve_maxmin(std::move(lp), caps);
  out.allocation = make_equalized_allocation(flows, std::move(out.allocation.flow_share));
  return out;
}

MaxMinResult maxmin_allocate_subflows(const ContentionGraph& g,
                                      const std::vector<double>& caps,
                                      const std::vector<std::vector<int>>* cliques) {
  const FlowSet& flows = g.flows();
  ShareLp lp;
  for (int s = 0; s < flows.subflow_count(); ++s) lp.weights.push_back(flows.subflow(s).weight);
  lp.capacity_rows = subflow_capacity_rows(g, cliques);
  MaxMinResult out = solve_maxmin(std::move(lp), caps);
  out.allocation = make_subflow_allocation(flows, std::move(out.allocation.flow_share));
  return out;
}

}  // namespace e2efa
