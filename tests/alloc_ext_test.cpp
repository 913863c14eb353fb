// Tests for the allocation extensions: weighted max-min with rate caps
// (footnote 3), the strict-fairness allocator (Prop. 1), and group-aware
// basic shares.
#include <gtest/gtest.h>

#include "alloc/centralized.hpp"
#include "alloc/maxmin.hpp"
#include "alloc/strict_fair.hpp"
#include "alloc/two_tier.hpp"
#include "net/scenarios.hpp"
#include "topology/builders.hpp"

namespace e2efa {
namespace {

constexpr double kTol = 1e-6;

struct Built {
  explicit Built(Scenario s)
      : sc(std::move(s)), flows(sc.topo, sc.flow_specs), graph(sc.topo, flows) {}
  Built(Scenario s, const std::vector<std::pair<int, int>>& edges)
      : sc(std::move(s)), flows(sc.topo, sc.flow_specs), graph(flows, edges) {}
  Scenario sc;
  FlowSet flows;
  ContentionGraph graph;
};

// ---------- weighted max-min (flow level) ----------

TEST(MaxMin, Scenario1GreedySources) {
  Built b(scenario1());
  const auto r = maxmin_allocate(b.graph);
  // Max-min: common level t; constraints 2r1 <= 1, r1 + 2r2 <= 1.
  // Uniform t: 2t <= 1 and 3t <= 1 -> t = 1/3 freezes F2 (and F1 via
  // r1 <= 1 - 2/3 = 1/3 and 2r1 <= 1... F1 can rise to min(1/2, 1-2/3)=1/3).
  EXPECT_NEAR(r.allocation.flow_share[0], 1.0 / 3.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[1], 1.0 / 3.0, kTol);
  EXPECT_FALSE(r.capped[0]);
  EXPECT_FALSE(r.capped[1]);
}

TEST(MaxMin, PentagonUniformHalf) {
  AbstractExample ex = pentagon_example();
  Built b(std::move(ex.scenario), ex.edges);
  const auto r = maxmin_allocate(b.graph);
  for (double s : r.allocation.flow_share) EXPECT_NEAR(s, 0.5, kTol);
}

TEST(MaxMin, RespectsRateCaps) {
  Built b(scenario1());
  // Cap F2 below its uncapped level: surplus flows to F1.
  const auto r = maxmin_allocate(b.graph, {1.0, 0.2});
  EXPECT_NEAR(r.allocation.flow_share[1], 0.2, kTol);
  EXPECT_TRUE(r.capped[1]);
  // F1 then rises to min(1/2 (its clique), 1 - 2*0.2 = 0.6) = 1/2.
  EXPECT_NEAR(r.allocation.flow_share[0], 0.5, kTol);
  EXPECT_FALSE(r.capped[0]);
}

TEST(MaxMin, ZeroCapYieldsZero) {
  Built b(scenario1());
  const auto r = maxmin_allocate(b.graph, {0.0, 1.0});
  EXPECT_NEAR(r.allocation.flow_share[0], 0.0, kTol);
  // F2 alone: r1 + 2r2 <= 1 with r1 = 0 -> 1/2.
  EXPECT_NEAR(r.allocation.flow_share[1], 0.5, kTol);
}

TEST(MaxMin, WeightsScaleLevels) {
  // Single clique, two 1-hop flows with weights 2 and 1: shares 2/3 and 1/3.
  Scenario sc = make_abstract_scenario({1, 1}, {2.0, 1.0});
  Built b(std::move(sc), {{0, 1}});
  const auto r = maxmin_allocate(b.graph);
  EXPECT_NEAR(r.allocation.flow_share[0], 2.0 / 3.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[1], 1.0 / 3.0, kTol);
  EXPECT_NEAR(r.level[0], r.level[1], kTol);  // same freeze level
}

TEST(MaxMin, SatisfiesCliqueCapacity) {
  for (Scenario sc : {scenario1(), scenario2()}) {
    Built b(std::move(sc));
    const auto r = maxmin_allocate(b.graph);
    EXPECT_TRUE(satisfies_clique_capacity(b.graph, r.allocation.subflow_share, 1e-5));
  }
}

TEST(MaxMin, LexicographicallyAboveBasic) {
  // Max-min dominates the basic share per unit weight (basic is a uniform
  // feasible level; max-min's first level is the maximal uniform level).
  Built b(scenario2());
  const auto r = maxmin_allocate(b.graph);
  const auto basic = basic_shares(b.graph);
  for (FlowId f = 0; f < b.flows.flow_count(); ++f)
    EXPECT_GE(r.allocation.flow_share[f], basic[f] - kTol);
}

TEST(MaxMin, RejectsNegativeCap) {
  Built b(scenario1());
  EXPECT_THROW(maxmin_allocate(b.graph, {-0.1, 0.5}), ContractViolation);
}

// ---------- weighted max-min (subflow level) ----------

TEST(MaxMinSubflows, Scenario1EqualSplit) {
  Built b(scenario1());
  const auto r = maxmin_allocate_subflows(b.graph);
  // Bottleneck clique {F1.2, F2.1, F2.2} caps the common level at 1/3;
  // F1.1 can then rise to 1 - 1/3 = 2/3.
  EXPECT_NEAR(r.allocation.subflow_share[0], 2.0 / 3.0, kTol);
  EXPECT_NEAR(r.allocation.subflow_share[1], 1.0 / 3.0, kTol);
  EXPECT_NEAR(r.allocation.subflow_share[2], 1.0 / 3.0, kTol);
  EXPECT_NEAR(r.allocation.subflow_share[3], 1.0 / 3.0, kTol);
  // End-to-end mins: (1/3, 1/3) — kinder to F1 than the max-total two-tier
  // LP (1/4), matching the near-equal subflow services the paper *measured*
  // for two-tier in Table II.
  EXPECT_NEAR(r.allocation.end_to_end[0], 1.0 / 3.0, kTol);
}

TEST(MaxMinSubflows, LessImbalancedThanTwoTierLp) {
  Built b(scenario1());
  const auto mm = maxmin_allocate_subflows(b.graph);
  const auto tt = two_tier_allocate(b.graph);
  const double mm_imb = mm.allocation.subflow_share[0] / mm.allocation.subflow_share[1];
  const double tt_imb = tt.allocation.subflow_share[0] / tt.allocation.subflow_share[1];
  EXPECT_LT(mm_imb, tt_imb);
}

// ---------- strict fairness (Prop. 1) ----------

TEST(StrictFair, Scenario1) {
  Built b(scenario1());
  const auto r = strict_fair_allocate(b.graph);
  EXPECT_NEAR(r.per_unit_share, 1.0 / 3.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[0], 1.0 / 3.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[1], 1.0 / 3.0, kTol);
  EXPECT_TRUE(r.schedulable);
  EXPECT_NEAR(r.schedulable_fraction, 1.0, kTol);
}

TEST(StrictFair, PentagonUnachievable) {
  AbstractExample ex = pentagon_example();
  Built b(std::move(ex.scenario), ex.edges);
  const auto r = strict_fair_allocate(b.graph);
  EXPECT_NEAR(r.per_unit_share, 0.5, kTol);
  EXPECT_FALSE(r.schedulable);
  // κ·B/2 schedulable up to κ = 4/5 (i.e. 2B/5 per flow).
  EXPECT_NEAR(r.schedulable_fraction, 0.8, kTol);
}

TEST(StrictFair, WeightedSharesProportional) {
  AbstractExample ex = fig4_example();
  Built b(std::move(ex.scenario), ex.edges);
  const auto r = strict_fair_allocate(b.graph);
  // ω_Ω = 8: shares w_i/8.
  EXPECT_NEAR(r.allocation.flow_share[0], 1.0 / 8.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[1], 2.0 / 8.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[2], 3.0 / 8.0, kTol);
  EXPECT_NEAR(r.allocation.flow_share[3], 2.0 / 8.0, kTol);
  EXPECT_NEAR(fairness_residual(b.flows, r.allocation.flow_share), 0.0, kTol);
}

TEST(StrictFair, TotalBelowBasicFairnessOptimum) {
  // The strict constraint can only reduce total effective throughput
  // relative to basic fairness (paper: 2B/3 vs 3B/4 on Fig. 1).
  Built b(scenario1());
  const auto strict = strict_fair_allocate(b.graph);
  const auto basic_opt = centralized_allocate(b.graph);
  EXPECT_LE(strict.allocation.total_effective,
            basic_opt.allocation.total_effective + kTol);
}

// ---------- group-aware basic shares ----------

/// Two copies of the Fig.-1 situation, 100 km apart: two contending groups.
Built two_group_case() {
  // Flows: two 2-hop chains close together (group 1), and the same again
  // far away (group 2), with explicit contention edges inside each copy
  // mirroring Fig. 1(b).
  Scenario sc = make_abstract_scenario({2, 2, 2, 2}, {1, 1, 1, 1}, "two-groups");
  // Subflows: F1.1=0 F1.2=1 F2.1=2 F2.2=3 | F3.1=4 F3.2=5 F4.1=6 F4.2=7.
  return Built(std::move(sc), {{1, 2}, {1, 3}, {5, 6}, {5, 7}});
}

TEST(GroupAware, TwoGroupsDetected) {
  Built b = two_group_case();
  EXPECT_EQ(b.graph.flow_groups().size(), 2u);
}

TEST(GroupAware, BasicSharesPerGroup) {
  Built b = two_group_case();
  // Whole-set denominator would be Σ w v = 8 -> B/8; group-aware is B/4.
  const auto whole = basic_shares(b.flows);
  const auto grouped = basic_shares(b.graph);
  for (double s : whole) EXPECT_NEAR(s, 0.125, kTol);
  for (double s : grouped) EXPECT_NEAR(s, 0.25, kTol);
}

TEST(GroupAware, CentralizedMatchesSingleGroupSolution) {
  // Solving both groups jointly must reproduce the Fig.-1 solution (B/2,
  // B/4) in each copy — no dilution across groups.
  Built b = two_group_case();
  const auto r = centralized_allocate(b.graph);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.allocation.flow_share[0], 0.5, kTol);
  EXPECT_NEAR(r.allocation.flow_share[1], 0.25, kTol);
  EXPECT_NEAR(r.allocation.flow_share[2], 0.5, kTol);
  EXPECT_NEAR(r.allocation.flow_share[3], 0.25, kTol);
}

TEST(GroupAware, TwoTierMatchesSingleGroupSolution) {
  Built b = two_group_case();
  const auto r = two_tier_allocate(b.graph);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.allocation.subflow_share[0], 0.75, kTol);
  EXPECT_NEAR(r.allocation.subflow_share[1], 0.25, kTol);
  EXPECT_NEAR(r.allocation.subflow_share[4], 0.75, kTol);
  EXPECT_NEAR(r.allocation.subflow_share[5], 0.25, kTol);
}

TEST(GroupAware, SubflowBasicSharesPerGroup) {
  Built b = two_group_case();
  const auto grouped = subflow_basic_shares(b.graph);
  for (double s : grouped) EXPECT_NEAR(s, 0.25, kTol);  // 4 subflows per group
}

TEST(GroupAware, GroupedFairnessCheckStronger) {
  Built b = two_group_case();
  // A vector at the whole-set floor (B/8) passes the weak check but fails
  // the group-aware one.
  const std::vector<double> weak(4, 0.125 + 1e-9);
  EXPECT_TRUE(satisfies_basic_fairness(b.flows, weak));
  EXPECT_FALSE(satisfies_basic_fairness(b.graph, weak));
}

TEST(GroupAware, SingleGroupOverloadsAgree) {
  Built b(scenario2());
  const auto a = basic_shares(b.flows);
  const auto g = basic_shares(b.graph);
  for (FlowId f = 0; f < b.flows.flow_count(); ++f) EXPECT_NEAR(a[f], g[f], kTol);
}

}  // namespace
}  // namespace e2efa
