#include "util/strings.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace e2efa {

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

std::string join(const std::vector<std::string>& items, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

std::string format_share_of_b(double fraction, int max_den) {
  constexpr double kTol = 1e-6;
  if (std::abs(fraction) < kTol) return "0";
  for (int q = 1; q <= max_den; ++q) {
    const double pf = fraction * q;
    const double p = std::round(pf);
    if (p >= 1.0 && std::abs(pf - p) < kTol * q) {
      const int pi = static_cast<int>(p);
      if (q == 1) return pi == 1 ? "B" : strformat("%dB", pi);
      if (pi == 1) return strformat("B/%d", q);
      return strformat("%dB/%d", pi, q);
    }
  }
  return strformat("%.4fB", fraction);
}

std::optional<double> parse_double(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0' || !std::isfinite(v))
    return std::nullopt;
  return v;
}

std::optional<long long> parse_int(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return std::nullopt;
  return v;
}

}  // namespace e2efa
