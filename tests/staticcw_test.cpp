// Tests for the static weighted-CW ablation protocol and ScaledCwBackoff.
#include <gtest/gtest.h>

#include <algorithm>

#include "mac/backoff.hpp"
#include "mac/dcf_params.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "util/assert.hpp"

namespace e2efa {
namespace {

TEST(ScaledCwBackoff, WindowScalesInverselyWithShare) {
  Rng rng(1);
  ScaledCwBackoff half(31, 0.5);   // window ~62
  ScaledCwBackoff full(31, 1.0);   // window 31
  double m_half = 0, m_full = 0;
  for (int i = 0; i < 20000; ++i) {
    m_half += half.draw_slots(rng, 0, 0);
    m_full += full.draw_slots(rng, 0, 0);
  }
  EXPECT_NEAR(m_half / m_full, 2.0, 0.2);
}

TEST(ScaledCwBackoff, CapsAtCwMax) {
  Rng rng(2);
  ScaledCwBackoff tiny(31, 0.01);  // 31/0.01 = 3100 -> capped at kCwMax
  int max_draw = 0;
  for (int i = 0; i < 500; ++i) max_draw = std::max(max_draw, tiny.draw_slots(rng, 5, 0));
  EXPECT_LE(max_draw, kCwMax);
  EXPECT_GT(max_draw, kCwMax / 2);
}

TEST(ScaledCwBackoff, RejectsBadShare) {
  EXPECT_THROW(ScaledCwBackoff(31, 0.0), ContractViolation);
  EXPECT_THROW(ScaledCwBackoff(31, 1.5), ContractViolation);
}

TEST(StaticCwProtocol, RunsWithSameTargetsAs2pa) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  const RunResult a = run_scenario(sc, Protocol::k2paCentralized, cfg);
  const RunResult b = run_scenario(sc, Protocol::k2paStaticCw, cfg);
  ASSERT_TRUE(b.has_target);
  EXPECT_EQ(a.target_flow_share, b.target_flow_share);
  EXPECT_GT(b.total_end_to_end, 0);
}

TEST(StaticCwProtocol, TagFeedbackBeatsStaticWindowOnRelayLoss) {
  // The ablation's headline: without the tag feedback loop, upstream and
  // downstream service decouple and the relay overflows.
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 60.0;
  const RunResult tag = run_scenario(sc, Protocol::k2paCentralized, cfg);
  const RunResult fix = run_scenario(sc, Protocol::k2paStaticCw, cfg);
  EXPECT_GT(fix.lost_packets, 10 * tag.lost_packets);
}

}  // namespace
}  // namespace e2efa
