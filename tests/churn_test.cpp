// Open-loop churn, mobility, and distributed admission control.
//
// Covers the robustness properties the dynamic machinery promises:
//  - the distributed admission gate is sound against the centralized
//    oracle (brute force over every candidate x active-subset of the
//    paper topologies),
//  - a rejected arrival never sources a packet and is reported with a
//    typed reason,
//  - a departed flow's lanes are never resurrected by stale control
//    messages (the no-stale-rate oracle plus the idle-floor bound),
//  - churn + mobility runs are deterministic across reruns and across
//    BatchRunner thread counts, including every new RunResult field.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/check.hpp"
#include "contention/contention_graph.hpp"
#include "ctrl/admission.hpp"
#include "net/batch.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "run_result_testing.hpp"

namespace e2efa {
namespace {

// A single interference cell: five nodes spaced 50 m apart, all mutually
// in range, so every subflow lands in one maximal clique. The 4-hop flow
// 0->1->2->3->4 has virtual length 3 < 4 subflows in that clique, which is
// exactly the shape the clique-bound admission check must reject.
Scenario single_cell() {
  std::vector<Point> pos{{0, 0}, {50, 0}, {100, 0}, {150, 0}, {200, 0}};
  Topology topo(std::move(pos), /*tx_range_m=*/250.0);
  Scenario sc{"single-cell", std::move(topo), {}, {}, {}, {}};
  Flow founding;
  founding.path = {0, 1};
  Flow overload;
  overload.path = {0, 1, 2, 3, 4};
  sc.flow_specs = {founding, overload};
  return sc;
}

TEST(Admission, BruteForceParityPaperTopologies) {
  for (const Scenario& sc : {scenario1(), scenario2()}) {
    SCOPED_TRACE(sc.name);
    const FlowSet flows(sc.topo, sc.flow_specs);
    const ContentionGraph g(sc.topo, flows);
    const int F = flows.flow_count();
    for (FlowId cand = 0; cand < F; ++cand) {
      for (unsigned mask = 0; mask < (1u << F); ++mask) {
        if (mask & (1u << cand)) continue;
        std::vector<char> active(static_cast<std::size_t>(F), 0);
        for (int j = 0; j < F; ++j)
          active[static_cast<std::size_t>(j)] =
              static_cast<char>((mask >> j) & 1u);
        const AdmissionDecision dist =
            admission_check_distributed(sc.topo, flows, g, active, cand);
        const AdmissionDecision cent =
            admission_check_centralized(flows, g, active, cand);
        SCOPED_TRACE(testing::Message()
                     << "candidate " << cand << " mask " << mask);
        // Soundness: local denominators are never larger than the global
        // one, so the distributed gate may only be stricter.
        EXPECT_GE(dist.worst_load, cent.worst_load - 1e-12);
        if (dist.admitted) {
          EXPECT_TRUE(cent.admitted);
        }
        if (!cent.admitted) {
          EXPECT_FALSE(dist.admitted);
        }
      }
    }
  }
}

TEST(Admission, OverloadedCliqueRejectedByBothGates) {
  const Scenario sc = single_cell();
  const FlowSet flows(sc.topo, sc.flow_specs);
  const ContentionGraph g(sc.topo, flows);
  const std::vector<char> active{1, 0};  // founding flow up, candidate new
  const AdmissionDecision cent =
      admission_check_centralized(flows, g, active, 1);
  const AdmissionDecision dist =
      admission_check_distributed(sc.topo, flows, g, active, 1);
  // denominator = 1*1 + 1*3 = 4; the cell clique holds all 5 subflows.
  EXPECT_FALSE(cent.admitted);
  EXPECT_EQ(cent.reason, AdmissionReason::kCliqueOverload);
  EXPECT_NEAR(cent.worst_load, 1.25, 1e-9);
  EXPECT_FALSE(dist.admitted);
  EXPECT_GE(dist.worst_load, cent.worst_load - 1e-12);
}

TEST(Churn, RejectedArrivalNeverSources) {
  Scenario sc = single_cell();
  sc.activity = {{0.0, kFlowNeverStops}, {2.0, kFlowNeverStops}};
  SimConfig cfg;
  cfg.sim_seconds = 6.0;
  for (Protocol proto : {Protocol::k2paCentralized, Protocol::k2paDistributed,
                         Protocol::k2paDistributedCtrl}) {
    SCOPED_TRACE(to_string(proto));
    CheckContext check;
    cfg.check = &check;
    const RunResult r = run_scenario(sc, proto, cfg);
    ASSERT_EQ(r.admissions.size(), 1u);
    EXPECT_EQ(r.admissions[0].flow, 1);
    EXPECT_FALSE(r.admissions[0].admitted);
    EXPECT_EQ(r.admissions[0].reason, 1);  // clique overload
    EXPECT_GT(r.admissions[0].worst_load, 1.0);
    // The rejected flow never sources: nothing delivered on any lane.
    EXPECT_EQ(r.end_to_end_per_flow[1], 0);
    EXPECT_GT(r.end_to_end_per_flow[0], 0);
    EXPECT_TRUE(check.ok()) << check.report();
  }
  // The in-band ADMIT round under 2pa-dctrl must not contradict the
  // offline gate by admitting the overload.
  CheckContext check;
  cfg.check = &check;
  const RunResult r =
      run_scenario(sc, Protocol::k2paDistributedCtrl, cfg);
  ASSERT_EQ(r.admissions.size(), 1u);
  EXPECT_NE(r.admissions[0].inband, 1);
  EXPECT_TRUE(check.ok()) << check.report();
}

TEST(Churn, AdmittedArrivalReportedWithInBandAgreement) {
  Scenario sc = scenario1();
  sc.activity = {{0.0, kFlowNeverStops}, {3.0, kFlowNeverStops}};
  SimConfig cfg;
  cfg.sim_seconds = 10.0;
  CheckContext check;
  cfg.check = &check;
  const RunResult r = run_scenario(sc, Protocol::k2paDistributedCtrl, cfg);
  ASSERT_EQ(r.admissions.size(), 1u);
  EXPECT_EQ(r.admissions[0].flow, 1);
  EXPECT_TRUE(r.admissions[0].admitted);
  EXPECT_EQ(r.admissions[0].reason, 0);
  EXPECT_NEAR(r.admissions[0].at_s, 3.0, 1e-12);
  EXPECT_EQ(r.admissions[0].inband, 1);  // the ADMIT round agrees
  EXPECT_GT(r.ctrl.admit_req_sent, 0u);
  EXPECT_GT(r.ctrl.admit_rsp_sent, 0u);
  // Both flows deliver, and the arrival epoch re-converged in time.
  EXPECT_GT(r.end_to_end_per_flow[0], 0);
  EXPECT_GT(r.end_to_end_per_flow[1], 0);
  ASSERT_EQ(r.reconv_s.size(), 2u);
  EXPECT_GE(r.reconv_s[1], 0.0);
  EXPECT_TRUE(check.ok()) << check.report();
}

TEST(Churn, DepartedFlowLanesNeverResurrect) {
  // F2 departs at t = 8 while the channel drops 15% of frames: stale RATE
  // messages from before the departure are exactly what the
  // generation stamps must refuse to apply. The no-stale-rate
  // oracle watches every applied share; on top of that the departed lanes
  // must end at the idle floor.
  Scenario sc = scenario1();
  sc.activity = {{0.0, kFlowNeverStops}, {0.0, 8.0}};
  sc.faults.set_default_loss(0.15);
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  CheckContext check;
  cfg.check = &check;
  const RunResult r = run_scenario(sc, Protocol::k2paDistributedCtrl, cfg);
  EXPECT_TRUE(check.ok()) << check.report();
  // No faults or mobility: routes never vary, so sim lanes 2 and 3 are
  // F2's two hops. Both must sit at (or below) the idle floor at the end.
  ASSERT_GE(r.ctrl.applied_subflow_share.size(), 4u);
  EXPECT_LE(r.ctrl.applied_subflow_share[2], 2e-6);
  EXPECT_LE(r.ctrl.applied_subflow_share[3], 2e-6);
  // F1 keeps flowing after the departure.
  EXPECT_GT(r.end_to_end_per_flow[0], 0);
}

// Full-field RunResult equality (bitwise on doubles) comes from the shared
// run_result_testing.hpp helper.

Scenario churny_scenario2() {
  Scenario sc = scenario2();
  sc.activity.assign(sc.flow_specs.size(), FlowActivity{});
  sc.activity[2] = {2.0, 6.0};                // F3 mid-run only
  sc.activity[4] = {3.0, kFlowNeverStops};    // F5 arrives late
  MobilitySpec walk;
  walk.node = 7;  // H, F3's source
  walk.speed_mps = 20.0;
  walk.seed = 5;
  sc.mobility.push_back(walk);
  return sc;
}

TEST(Churn, DeterministicAcrossReruns) {
  const Scenario sc = churny_scenario2();
  SimConfig cfg;
  cfg.sim_seconds = 5.0;
  cfg.seed = 3;
  for (Protocol proto : {Protocol::k2paCentralized, Protocol::k2paDistributed,
                         Protocol::k2paDistributedCtrl}) {
    SCOPED_TRACE(to_string(proto));
    const RunResult a = run_scenario(sc, proto, cfg);
    const RunResult b = run_scenario(sc, proto, cfg);
    expect_identical(a, b);
  }
}

TEST(Churn, BatchRunnerThreadCountInvariant) {
  const Scenario sc = churny_scenario2();
  SimConfig cfg;
  cfg.sim_seconds = 5.0;
  cfg.seed = 3;
  const std::vector<Protocol> protos{Protocol::k2paCentralized,
                                     Protocol::k2paDistributed,
                                     Protocol::k2paDistributedCtrl};
  const std::vector<RunResult> seq =
      BatchRunner(1).run_protocols(sc, protos, cfg);
  const std::vector<RunResult> par =
      BatchRunner(4).run_protocols(sc, protos, cfg);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    SCOPED_TRACE(to_string(protos[i]));
    expect_identical(seq[i], par[i]);
  }
}

}  // namespace
}  // namespace e2efa
