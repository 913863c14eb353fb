// Small string/formatting helpers (GCC 12 lacks <format>).
#pragma once

#include <cstdarg>
#include <optional>
#include <string>
#include <vector>

namespace e2efa {

/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins items with a separator: join({"a","b"}, ", ") == "a, b".
std::string join(const std::vector<std::string>& items, const std::string& sep);

/// Formats a bandwidth fraction like 0.333333 as "B/3", 0.75 as "3B/4", etc.,
/// when the value is close to a small rational p/q (q <= max_den); otherwise
/// falls back to fixed-point decimal. Used by benches to print paper-style
/// allocations.
std::string format_share_of_b(double fraction, int max_den = 64);

/// Strict number parsing for flags and specs: all of `text` must be one
/// finite number in strtod syntax (parse_double) or one base-10 integer
/// (parse_int). Empty text, trailing characters, out-of-range values, NaN
/// and infinities give nullopt.
std::optional<double> parse_double(const std::string& text);
std::optional<long long> parse_int(const std::string& text);

}  // namespace e2efa
