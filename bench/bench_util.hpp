// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "net/runner.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace e2efa::benchutil {

/// Shared bench flags. Benches default to the paper's T = 1000 s, which
/// takes a few seconds per protocol — pass a smaller --seconds for quick
/// runs. --jobs > 1 fans independent runs across a BatchRunner thread pool
/// (0 = one per hardware thread); results are identical to --jobs 1.
struct BenchArgs {
  double seconds = 1000.0;
  std::uint64_t seed = 1;
  double alpha = 1e-4;
  int jobs = 1;
};

[[noreturn]] inline void usage(const char* prog, const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
  std::fprintf(stderr,
               "usage: %s [--seconds T] [--seed N] [--alpha A] [--jobs J]\n"
               "  --seconds T  simulated seconds per run (T > 0; default 1000)\n"
               "  --seed N     RNG seed (default 1)\n"
               "  --alpha A    tag-feedback step size (A > 0; default 1e-4)\n"
               "  --jobs J     parallel runs; 0 = hardware threads (default 1)\n",
               prog);
  std::exit(2);
}

inline double number_or_usage(const char* prog, const std::string& key,
                              const char* text) {
  const auto v = parse_double(text);
  if (!v) usage(prog, key + ": malformed number '" + text + "'");
  return *v;
}

inline long long integer_or_usage(const char* prog, const std::string& key,
                                  const char* text) {
  const auto v = parse_int(text);
  if (!v) usage(prog, key + ": malformed integer '" + text + "'");
  return *v;
}

/// Strict flag parsing: every flag takes exactly one value; unknown keys,
/// malformed numbers, missing values, and out-of-range settings all abort
/// with a usage message instead of being silently ignored.
inline BenchArgs parse_args(int argc, char** argv) {
  const char* prog = argc > 0 ? argv[0] : "bench";
  BenchArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h") usage(prog, "");
    if (i + 1 >= argc) usage(prog, key + ": missing value");
    const char* val = argv[++i];
    if (key == "--seconds") {
      a.seconds = number_or_usage(prog, key, val);
      if (a.seconds <= 0.0) usage(prog, "--seconds must be > 0");
    } else if (key == "--seed") {
      const long long s = integer_or_usage(prog, key, val);
      if (s < 0) usage(prog, "--seed must be >= 0");
      a.seed = static_cast<std::uint64_t>(s);
    } else if (key == "--alpha") {
      a.alpha = number_or_usage(prog, key, val);
      if (a.alpha <= 0.0) usage(prog, "--alpha must be > 0");
    } else if (key == "--jobs") {
      const long long j = integer_or_usage(prog, key, val);
      if (j < 0 || j > 1024) usage(prog, "--jobs must be in [0, 1024]");
      a.jobs = static_cast<int>(j);
    } else {
      usage(prog, "unknown flag '" + key + "'");
    }
  }
  return a;
}

inline std::string fmt_count(std::int64_t v) { return strformat("%lld", static_cast<long long>(v)); }

inline std::string fmt_ratio(double v) { return strformat("%.3f", v); }

}  // namespace e2efa::benchutil
