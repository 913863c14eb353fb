// Invariant-checking harness (src/check): a correct stack passes every
// oracle on the paper scenarios under all protocols, an installed observer
// never perturbs the trajectory (bit-identical RunResults), and a
// deliberately wrong expectation (queue_capacity_override) is caught —
// proving the oracles actually look at the run.
#include <gtest/gtest.h>

#include <vector>

#include "check/check.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "run_result_testing.hpp"

namespace e2efa {
namespace {

const Protocol kAllProtocols[] = {
    Protocol::k80211,          Protocol::kTwoTier,
    Protocol::kTwoTierBalanced, Protocol::k2paCentralized,
    Protocol::k2paDistributed,  Protocol::kMaxMin,
    Protocol::k2paStaticCw,     Protocol::k2paDistributedCtrl};

SimConfig short_config() {
  SimConfig cfg;
  cfg.sim_seconds = 5.0;
  cfg.seed = 7;
  return cfg;
}

TEST(CheckTest, CleanOnPaperScenariosAllProtocols) {
  for (const Scenario& sc : {scenario1(), scenario2()}) {
    for (Protocol proto : kAllProtocols) {
      CheckContext check;
      SimConfig cfg = short_config();
      cfg.check = &check;
      run_scenario(sc, proto, cfg);
      EXPECT_TRUE(check.ok()) << sc.name << " / " << to_string(proto) << "\n"
                              << check.report();
    }
  }
}

TEST(CheckTest, CleanUnderFaultsAndLoss) {
  Scenario sc = scenario2();
  sc.faults.node_down(2, 2.0);
  sc.faults.node_up(2, 3.5);
  sc.faults.set_default_loss(0.05);
  for (Protocol proto :
       {Protocol::k80211, Protocol::k2paDistributed, Protocol::k2paDistributedCtrl}) {
    CheckContext check;
    SimConfig cfg = short_config();
    cfg.check = &check;
    run_scenario(sc, proto, cfg);
    EXPECT_TRUE(check.ok()) << to_string(proto) << "\n" << check.report();
  }
}

TEST(CheckTest, CleanInBasicAccessMode) {
  CheckContext check;
  SimConfig cfg = short_config();
  cfg.use_rts_cts = false;
  cfg.check = &check;
  run_scenario(scenario1(), Protocol::k2paDistributed, cfg);
  EXPECT_TRUE(check.ok()) << check.report();
}

TEST(CheckTest, ObserverDoesNotPerturbTheRun) {
  // Every oracle always runs, so a checked run must match an unchecked one
  // on every RunResult field, events_processed included.
  for (const Scenario& sc : {scenario1(), scenario2()}) {
    for (Protocol proto : kAllProtocols) {
      SCOPED_TRACE(sc.name + " / " + to_string(proto));
      const RunResult plain = run_scenario(sc, proto, short_config());
      CheckContext check;
      SimConfig cfg = short_config();
      cfg.check = &check;
      expect_identical(plain, run_scenario(sc, proto, cfg));
    }
  }
}

// The fuzzer's self-test: expecting a capacity one below the configured one
// makes a *correct* run trip the queue oracle, so a silently broken oracle
// cannot pass the suite.
TEST(CheckTest, CapacityOverrideTripsTheQueueOracle) {
  CheckConfig cc;
  cc.queue_capacity_override = 4;
  CheckContext check(cc);
  SimConfig cfg = short_config();
  cfg.queue_capacity = 5;  // small queues saturate within 5 s at 200 pps
  cfg.check = &check;
  run_scenario(scenario1(), Protocol::k2paDistributed, cfg);
  ASSERT_FALSE(check.ok());
  EXPECT_EQ(check.violations().front().category,
            CheckViolation::Category::kQueue);
  EXPECT_NE(check.report().find("exceeds capacity 4"), std::string::npos)
      << check.report();
}

TEST(CheckTest, ViolationRecordingIsCapped) {
  CheckConfig cc;
  cc.queue_capacity_override = 1;
  cc.max_violations = 3;
  CheckContext check(cc);
  SimConfig cfg = short_config();
  cfg.check = &check;
  run_scenario(scenario1(), Protocol::k2paDistributed, cfg);
  ASSERT_FALSE(check.ok());
  EXPECT_EQ(check.violations().size(), 3u);
  EXPECT_GT(check.total_violations(), 3);
  check.clear();
  EXPECT_TRUE(check.ok());
}

TEST(CheckTest, ReusableAcrossRuns) {
  CheckContext check;
  SimConfig cfg = short_config();
  cfg.check = &check;
  run_scenario(scenario1(), Protocol::k2paCentralized, cfg);
  run_scenario(scenario2(), Protocol::k2paDistributed, cfg);
  EXPECT_TRUE(check.ok()) << check.report();
}

}  // namespace
}  // namespace e2efa
