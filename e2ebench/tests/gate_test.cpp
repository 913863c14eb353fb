// The correctness gate's accounting: a broken expectation must show up in
// `failed` (and so in failed_frac / pass_frac), and an intact one must not.
// Also the run counts and the host-speed scaling of the untraced pass.
#include <gtest/gtest.h>

#include <cmath>

#include "bench.hpp"

namespace e2ebench {
namespace {

Options tiny(const std::string& workload) {
  Options opt;
  opt.workload = workload;
  opt.seeds = {3};
  opt.seconds = 0.0;  // the minimum run counts only
  opt.horizon = 0.2;
  return opt;
}

double metric(const Report& r, const std::string& name) {
  for (const Metric& m : r.metrics)
    if (m.name == name) return m.value;
  ADD_FAILURE() << "no metric " << name;
  return -1.0;
}

TEST(Gate, IntactExpectationPasses) {
  const Workload* w = find_workload("paper-s2");
  ASSERT_NE(w, nullptr);
  const Report r = run_end_to_end(*w, tiny("paper-s2"));
  EXPECT_TRUE(r.correct()) << r.first_failure;
  EXPECT_EQ(r.failed, 0);
  EXPECT_EQ(metric(r, "pass_frac"), 1.0);
}

TEST(Gate, BrokenExpectationCountsEveryRunAsFailed) {
  Workload w = *find_workload("paper-s2");
  w.expected_flow_share[3] = 1.0 / 7.0;  // Table I says B/8
  const Report r = run_end_to_end(w, tiny("paper-s2"));
  EXPECT_FALSE(r.correct());
  EXPECT_GT(r.attempted, 0);
  EXPECT_EQ(r.failed, r.attempted);
  EXPECT_EQ(metric(r, "pass_frac"), 0.0);
  EXPECT_NE(r.first_failure.find("expected shares"), std::string::npos) << r.first_failure;
}

TEST(Gate, ProtocolInvariantsHoldOnEveryWorkload) {
  for (const Workload& w : workloads()) {
    const Gate gate(w, w.build());
    const e2efa::RunResult r = e2efa::run_scenario(w.build(), w.proto, base_config(3, 0.0));
    EXPECT_EQ(gate.check(r), "") << w.name;
  }
}

TEST(Gate, RejectsTargetsThatDifferFromPhaseOne) {
  const Workload& w = *find_workload("paper-s2");
  const Gate gate(w, w.build());
  e2efa::RunResult r = e2efa::run_scenario(w.build(), w.proto, base_config(3, 0.0));
  r.target_flow_share[0] += 1e-3;
  EXPECT_EQ(gate.check(r), "targets differ from a direct Phase-1 call");
}

TEST(Gate, ThrowingRunIsCountedAsFailed) {
  Workload w = *find_workload("paper-s2");
  w.build = [] {
    e2efa::Scenario sc = e2efa::scenario2();
    sc.flow_specs[0].path = {sc.flow_specs[0].path.front(), sc.flow_specs[0].path.front()};
    return sc;
  };
  const Report r = run_end_to_end(w, tiny("paper-s2"));
  EXPECT_EQ(r.failed, r.attempted);
  EXPECT_NE(r.first_failure.find("threw"), std::string::npos) << r.first_failure;
}

TEST(Seeds, EachGivenSeedStandsForDistinctRunSeeds) {
  EXPECT_EQ(run_seeds({1, 2}), (std::vector<std::uint64_t>{4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(FullRunCount, SetByTheBudgetAlone) {
  const Workload& w = *find_workload("paper-s2");
  EXPECT_EQ(full_run_count(w, 0.0, 4), kMinFullRuns);
  EXPECT_EQ(full_run_count(w, 100.0 * w.nominal_run_s, 4), 100u);
  EXPECT_EQ(full_run_count(w, 0.0, 40), 40u);  // one run per run seed
  const Report r = run_end_to_end(w, tiny("paper-s2"));
  for (const Metric& m : r.metrics)
    if (m.name == "wall_s") EXPECT_EQ(m.note, "median of 31 runs");
}

TEST(Scaling, IdentityAtTheReferenceSpeed) {
  EXPECT_DOUBLE_EQ(scaled_seconds(0.25, kRefCalibrationS), 0.25);
}

TEST(Scaling, CancelsAContendedHost) {
  // Calibration 1.3x slower: a full run is 1.3^kCalibrationExponent slower.
  const double k = 1.3;
  EXPECT_NEAR(scaled_seconds(0.25 * std::pow(k, kCalibrationExponent), kRefCalibrationS * k),
              0.25, 1e-12);
}

TEST(Scaling, CalibrationTakesMeasurableTime) {
  const double t = calibration_s();
  EXPECT_GT(t, 0.1 * kRefCalibrationS);
  EXPECT_LT(t, 100.0 * kRefCalibrationS);
}

TEST(Stats, MedianOfEvenAndOddCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

}  // namespace
}  // namespace e2ebench
