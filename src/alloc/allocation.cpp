#include "alloc/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "util/assert.hpp"

namespace e2efa {

namespace {
Allocation finish(const FlowSet& flows, Allocation a) {
  a.end_to_end.assign(static_cast<std::size_t>(flows.flow_count()),
                      std::numeric_limits<double>::infinity());
  for (int s = 0; s < flows.subflow_count(); ++s) {
    const FlowId f = flows.subflow(s).flow;
    auto& u = a.end_to_end[static_cast<std::size_t>(f)];
    u = std::min(u, a.subflow_share[static_cast<std::size_t>(s)]);
  }
  a.total_effective = 0.0;
  for (double u : a.end_to_end) a.total_effective += u;
  return a;
}
}  // namespace

Allocation make_equalized_allocation(const FlowSet& flows, std::vector<double> flow_share) {
  E2EFA_ASSERT(static_cast<int>(flow_share.size()) == flows.flow_count());
  Allocation a;
  a.flow_share = std::move(flow_share);
  a.subflow_share.resize(static_cast<std::size_t>(flows.subflow_count()));
  for (int s = 0; s < flows.subflow_count(); ++s)
    a.subflow_share[static_cast<std::size_t>(s)] =
        a.flow_share[static_cast<std::size_t>(flows.subflow(s).flow)];
  return finish(flows, std::move(a));
}

Allocation make_subflow_allocation(const FlowSet& flows, std::vector<double> subflow_share) {
  E2EFA_ASSERT(static_cast<int>(subflow_share.size()) == flows.subflow_count());
  Allocation a;
  a.subflow_share = std::move(subflow_share);
  a.flow_share.assign(static_cast<std::size_t>(flows.flow_count()),
                      std::numeric_limits<double>::infinity());
  for (int s = 0; s < flows.subflow_count(); ++s) {
    const FlowId f = flows.subflow(s).flow;
    auto& r = a.flow_share[static_cast<std::size_t>(f)];
    r = std::min(r, a.subflow_share[static_cast<std::size_t>(s)]);
  }
  return finish(flows, std::move(a));
}

std::vector<double> basic_shares(const FlowSet& flows) {
  const double denom = flows.weighted_virtual_length_sum();
  E2EFA_ASSERT(denom > 0.0);
  std::vector<double> out(static_cast<std::size_t>(flows.flow_count()));
  for (FlowId f = 0; f < flows.flow_count(); ++f)
    out[static_cast<std::size_t>(f)] = flows.flow(f).weight / denom;
  return out;
}

std::vector<double> subflow_basic_shares(const FlowSet& flows) {
  double denom = 0.0;
  for (const Subflow& s : flows.subflows()) denom += s.weight;
  E2EFA_ASSERT(denom > 0.0);
  std::vector<double> out(static_cast<std::size_t>(flows.subflow_count()));
  for (int s = 0; s < flows.subflow_count(); ++s)
    out[static_cast<std::size_t>(s)] = flows.subflow(s).weight / denom;
  return out;
}

std::vector<double> basic_shares(const ContentionGraph& g) {
  const FlowSet& flows = g.flows();
  std::vector<double> out(static_cast<std::size_t>(flows.flow_count()), 0.0);
  for (const auto& group : g.flow_groups()) {
    double denom = 0.0;
    for (FlowId f : group)
      denom += flows.flow(f).weight * virtual_length(flows.flow(f).length());
    E2EFA_ASSERT(denom > 0.0);
    for (FlowId f : group)
      out[static_cast<std::size_t>(f)] = flows.flow(f).weight / denom;
  }
  return out;
}

std::vector<double> subflow_basic_shares(const ContentionGraph& g) {
  const FlowSet& flows = g.flows();
  std::vector<double> out(static_cast<std::size_t>(flows.subflow_count()), 0.0);
  for (const auto& group : g.flow_groups()) {
    double denom = 0.0;
    for (FlowId f : group)
      denom += flows.flow(f).weight * flows.flow(f).length();
    E2EFA_ASSERT(denom > 0.0);
    for (FlowId f : group)
      for (int h = 0; h < flows.flow(f).length(); ++h)
        out[static_cast<std::size_t>(flows.subflow_index(f, h))] =
            flows.flow(f).weight / denom;
  }
  return out;
}

std::vector<std::vector<double>> subflow_capacity_rows(
    const ContentionGraph& g, const std::vector<std::vector<int>>* cliques) {
  std::vector<std::vector<int>> local;
  if (cliques == nullptr) {
    local = maximal_cliques(g);
    cliques = &local;
  }
  std::set<std::vector<double>> rows;
  for (const auto& clique : *cliques) {
    std::vector<double> row(static_cast<std::size_t>(g.flows().subflow_count()), 0.0);
    for (int v : clique) row[static_cast<std::size_t>(v)] = 1.0;
    rows.insert(std::move(row));
  }
  return {rows.begin(), rows.end()};
}

double fairness_upper_bound(const ContentionGraph& g) {
  const double omega = weighted_clique_number(g);
  double wsum = 0.0;
  for (const Flow& f : g.flows().flows()) wsum += f.weight;
  return wsum / omega;
}

std::vector<double> fairness_bound_shares(const ContentionGraph& g) {
  const double omega = weighted_clique_number(g);
  std::vector<double> out(static_cast<std::size_t>(g.flows().flow_count()));
  for (FlowId f = 0; f < g.flows().flow_count(); ++f)
    out[static_cast<std::size_t>(f)] = g.flows().flow(f).weight / omega;
  return out;
}

double max_clique_load(const ContentionGraph& g, const std::vector<double>& subflow_share) {
  E2EFA_ASSERT(static_cast<int>(subflow_share.size()) == g.flows().subflow_count());
  double worst = 0.0;
  for (const auto& clique : maximal_cliques(g)) {
    double load = 0.0;
    for (int v : clique) load += subflow_share[static_cast<std::size_t>(v)];
    worst = std::max(worst, load);
  }
  return worst;
}

bool satisfies_clique_capacity(const ContentionGraph& g,
                               const std::vector<double>& subflow_share, double eps) {
  return max_clique_load(g, subflow_share) <= 1.0 + eps;
}

namespace {
bool shares_at_least(const std::vector<double>& flow_share,
                     const std::vector<double>& floor, double eps) {
  E2EFA_ASSERT(flow_share.size() == floor.size());
  for (std::size_t f = 0; f < flow_share.size(); ++f)
    if (flow_share[f] < floor[f] - eps) return false;
  return true;
}
}  // namespace

bool satisfies_basic_fairness(const FlowSet& flows, const std::vector<double>& flow_share,
                              double eps) {
  E2EFA_ASSERT(static_cast<int>(flow_share.size()) == flows.flow_count());
  return shares_at_least(flow_share, basic_shares(flows), eps);
}

bool satisfies_basic_fairness(const ContentionGraph& g,
                              const std::vector<double>& flow_share, double eps) {
  E2EFA_ASSERT(static_cast<int>(flow_share.size()) == g.flows().flow_count());
  return shares_at_least(flow_share, basic_shares(g), eps);
}

double fairness_residual(const FlowSet& flows, const std::vector<double>& flow_share) {
  E2EFA_ASSERT(static_cast<int>(flow_share.size()) == flows.flow_count());
  double lo = std::numeric_limits<double>::infinity(), hi = 0.0;
  for (FlowId f = 0; f < flows.flow_count(); ++f) {
    const double per_weight =
        flow_share[static_cast<std::size_t>(f)] / flows.flow(f).weight;
    lo = std::min(lo, per_weight);
    hi = std::max(hi, per_weight);
  }
  return hi - lo;
}

}  // namespace e2efa
