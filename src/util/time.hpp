// Simulation time: 64-bit signed nanoseconds since simulation start.
//
// Nanosecond resolution keeps MAC-layer timing exact (a 512-byte DATA frame
// at 2 Mbps lasts 2,048,000 ns; SIFS/DIFS/slots are all integral ns) while a
// 64-bit count still covers ~292 years of simulated time.
#pragma once

#include <cstdint>

namespace e2efa {

using TimeNs = std::int64_t;

constexpr TimeNs kNanosecond = 1;
constexpr TimeNs kMicrosecond = 1'000;
constexpr TimeNs kMillisecond = 1'000'000;
constexpr TimeNs kSecond = 1'000'000'000;

constexpr double to_seconds(TimeNs t) { return static_cast<double>(t) / 1e9; }
constexpr TimeNs from_seconds(double s) { return static_cast<TimeNs>(s * 1e9); }

/// True when from_seconds(s) is defined: s is finite, non-negative and
/// below 2^63 ns (about 292 years). NaN compares false.
constexpr bool seconds_fit_time_ns(double s) {
  return s >= 0.0 && s * 1e9 < 9223372036854775808.0;
}

/// Duration of transmitting `bits` at `bits_per_second`, rounded up to a
/// whole nanosecond so that back-to-back transmissions never overlap.
constexpr TimeNs tx_duration(std::int64_t bits, std::int64_t bits_per_second) {
  // ceil(bits * 1e9 / rate)
  const std::int64_t num = bits * kSecond;
  return (num + bits_per_second - 1) / bits_per_second;
}

}  // namespace e2efa
