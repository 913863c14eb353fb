#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace e2efa {
namespace {

// ---------- Rng ----------

TEST(Strings, ParseDoubleIsStrictAndFinite) {
  EXPECT_EQ(parse_double("2.5"), 2.5);
  EXPECT_EQ(parse_double("-1e-3"), -1e-3);
  for (const char* bad : {"", "x", "1x", "1.5 ", "nan", "NaN", "inf", "-inf", "1e999"})
    EXPECT_FALSE(parse_double(bad).has_value()) << bad;
}

TEST(Strings, ParseIntIsStrict) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  for (const char* bad : {"", "5.7", "3x", "0x10", "99999999999999999999"})
    EXPECT_FALSE(parse_int(bad).has_value()) << bad;
}

TEST(Time, SecondsFitTimeNs) {
  EXPECT_TRUE(seconds_fit_time_ns(0.0));
  EXPECT_TRUE(seconds_fit_time_ns(9.2e9));
  EXPECT_FALSE(seconds_fit_time_ns(9.3e9));
  EXPECT_FALSE(seconds_fit_time_ns(1e30));
  EXPECT_FALSE(seconds_fit_time_ns(-1.0));
  EXPECT_FALSE(seconds_fit_time_ns(std::nan("")));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const auto first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, Uniform01InRange) {
  Rng r(3);
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng r(11);
  RunningStat s;
  for (int i = 0; i < 100'000; ++i) s.add(r.uniform01());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, UniformU64RespectsBound) {
  Rng r(5);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 31ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) ASSERT_LT(r.uniform_u64(bound), bound);
  }
}

TEST(Rng, UniformU64HitsAllResidues) {
  Rng r(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_u64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformI64Inclusive) {
  Rng r(17);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_i64(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, ExponentialMean) {
  Rng r(23);
  RunningStat s;
  for (int i = 0; i < 200'000; ++i) s.add(r.exponential(5.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
}

TEST(Rng, BernoulliProbability) {
  Rng r(29);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate) {
  Rng r(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(99);
  Rng child = a.split();
  // The child must differ from a fresh copy of the parent stream.
  Rng b(99);
  (void)b.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child() == b()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformBoundZeroThrows) {
  Rng r(1);
  EXPECT_THROW(r.uniform_u64(0), ContractViolation);
}

TEST(Rng, ExponentialNonPositiveMeanThrows) {
  Rng r(1);
  EXPECT_THROW(r.exponential(0.0), ContractViolation);
  EXPECT_THROW(r.exponential(-1.0), ContractViolation);
}

// ---------- RunningStat ----------

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, KnownValues) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, SingleSampleVarianceZero) {
  RunningStat s;
  s.add(3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

// ---------- fairness metrics ----------

TEST(Fairness, JainIndexPerfect) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({5, 5, 5, 5}), 1.0);
}

TEST(Fairness, JainIndexWorstCase) {
  // One user hogs everything: index -> 1/n.
  EXPECT_NEAR(jain_fairness_index({1, 0, 0, 0}), 0.25, 1e-12);
}

TEST(Fairness, JainIndexEmptyAndZero) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0, 0}), 1.0);
}

TEST(Fairness, MaxMinRatio) {
  EXPECT_DOUBLE_EQ(max_min_ratio({2, 4, 8}), 4.0);
  EXPECT_DOUBLE_EQ(max_min_ratio({3, 3}), 1.0);
  EXPECT_TRUE(std::isinf(max_min_ratio({0, 1})));
  EXPECT_DOUBLE_EQ(max_min_ratio({}), 1.0);
}

TEST(Fairness, NormalizedByDividesElementwise) {
  const std::vector<double> u = normalized_by({4.0, 9.0}, {2.0, 3.0});
  ASSERT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u[0], 2.0);
  EXPECT_DOUBLE_EQ(u[1], 3.0);
}

TEST(Fairness, NormalizedByDropsNonPositiveWeights) {
  // A zero target (suspended flow) must not poison the index with an inf.
  const std::vector<double> u = normalized_by({4.0, 7.0, 9.0}, {2.0, 0.0, 3.0});
  ASSERT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u[0], 2.0);
  EXPECT_DOUBLE_EQ(u[1], 3.0);
}

TEST(Fairness, NormalizedByTruncatesToShorterInput) {
  EXPECT_EQ(normalized_by({1.0, 2.0, 3.0}, {1.0}).size(), 1u);
  EXPECT_TRUE(normalized_by({1.0, 2.0}, {}).empty());
}

TEST(Fairness, WindowedRates) {
  const auto rates = windowed_rates({{10, 20}, {30, 0}}, 2.0);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0][0], 5.0);
  EXPECT_DOUBLE_EQ(rates[0][1], 10.0);
  EXPECT_DOUBLE_EQ(rates[1][0], 15.0);
  EXPECT_DOUBLE_EQ(rates[1][1], 0.0);
}

TEST(Fairness, JainTrajectoryNormalizesByTargets) {
  // Window 0 matches the 2:1 target split exactly -> 1.0; window 1 inverts
  // it -> jain({1, 4}) = 25/34.
  const std::vector<std::vector<std::int64_t>> windows = {{20, 10}, {10, 20}};
  const auto traj = jain_trajectory(windows, {2.0, 1.0});
  ASSERT_EQ(traj.size(), 2u);
  EXPECT_DOUBLE_EQ(traj[0], 1.0);
  EXPECT_NEAR(traj[1], 25.0 / 34.0, 1e-12);
}

TEST(Fairness, JainTrajectoryEmptyTargetsUsesRawValues) {
  const std::vector<std::vector<double>> windows = {{5.0, 5.0}, {1.0, 0.0}};
  const auto traj = jain_trajectory(windows, {});
  ASSERT_EQ(traj.size(), 2u);
  EXPECT_DOUBLE_EQ(traj[0], 1.0);
  EXPECT_NEAR(traj[1], 0.5, 1e-12);
}

TEST(Fairness, JainTrajectoryScaleInvariant) {
  const std::vector<std::vector<std::int64_t>> counts = {{12, 34}, {56, 7}};
  const auto from_counts = jain_trajectory(counts, {0.5, 0.25});
  const auto from_rates = jain_trajectory(windowed_rates(counts, 2.0), {0.5, 0.25});
  ASSERT_EQ(from_counts.size(), from_rates.size());
  for (std::size_t w = 0; w < from_counts.size(); ++w)
    EXPECT_NEAR(from_counts[w], from_rates[w], 1e-12);
}

TEST(Fairness, PercentileNearestRank) {
  const std::vector<double> xs = {15, 20, 35, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 15.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 30), 20.0);   // rank ceil(1.5) = 2
  EXPECT_DOUBLE_EQ(percentile(xs, 40), 20.0);   // rank 2 exactly
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 35.0);   // rank ceil(2.5) = 3
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
}

TEST(Fairness, PercentileUnsortedAndEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({9, 1, 5}, 50), 5.0);  // sorts internally
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({42}, 95), 42.0);
}

// ---------- strings ----------

TEST(Strings, StrFormat) {
  EXPECT_EQ(strformat("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(strformat("%s", ""), "");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"solo"}, ", "), "solo");
}

TEST(Strings, FormatShareOfB) {
  EXPECT_EQ(format_share_of_b(0.5), "B/2");
  EXPECT_EQ(format_share_of_b(0.75), "3B/4");
  EXPECT_EQ(format_share_of_b(1.0), "B");
  EXPECT_EQ(format_share_of_b(1.0 / 3.0), "B/3");
  EXPECT_EQ(format_share_of_b(0.7), "7B/10");
  EXPECT_EQ(format_share_of_b(0.0), "0");
  EXPECT_EQ(format_share_of_b(2.5), "5B/2");
}

TEST(Strings, FormatShareFallsBackToDecimal) {
  const std::string s = format_share_of_b(0.123456789, 8);
  EXPECT_NE(s.find("0.1235"), std::string::npos);
}

// ---------- TextTable ----------

TEST(TextTable, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("| x |"), std::string::npos);
}

// ---------- time ----------

TEST(Time, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(kMillisecond * 1000, kSecond);
  EXPECT_EQ(kMicrosecond * 1000, kMillisecond);
}

TEST(Time, TxDurationExact) {
  // 512-byte frame at 2 Mbps = 4096 bits / 2e6 bps = 2.048 ms.
  EXPECT_EQ(tx_duration(4096, 2'000'000), 2'048'000);
}

TEST(Time, TxDurationRoundsUp) {
  // 1 bit at 3 bps = 333333333.33.. ns -> rounded up.
  EXPECT_EQ(tx_duration(1, 3), 333'333'334);
}

// ---------- contract checks ----------

TEST(Assert, ThrowsWithMessage) {
  try {
    E2EFA_ASSERT_MSG(false, "custom detail");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail"), std::string::npos);
  }
}

TEST(Assert, PassesSilently) {
  EXPECT_NO_THROW(E2EFA_ASSERT(1 + 1 == 2));
}

}  // namespace
}  // namespace e2efa
