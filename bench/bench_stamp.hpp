// The machine stamp every committed BENCH_*.json row carries, so a figure
// is never read without the hardware and build that produced it.
#pragma once

#include <cstdio>
#include <string>
#include <thread>

#include "util/strings.hpp"

namespace e2efa {

/// `git describe --always --dirty --tags` of the source tree the bench was
/// built from, read when the bench runs (a configure-time value would go
/// stale with every commit); "unknown" when git or the tree is unavailable.
inline std::string bench_git_describe() {
  const std::string cmd = std::string("git -C '") + E2EFA_BENCH_SOURCE_DIR +
                          "' describe --always --dirty --tags 2>/dev/null";
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return "unknown";
  std::string out;
  char buf[128];
  while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
  const int status = pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return status == 0 && !out.empty() ? out : "unknown";
}

/// JSON object {"hardware_concurrency", "compiler", "build_type",
/// "git_describe"}, the same fields e2ebench stamps its rows with.
inline std::string bench_stamp_json() {
  return strformat(
      "{\"hardware_concurrency\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_describe\": \"%s\"}",
      std::thread::hardware_concurrency(), E2EFA_BENCH_COMPILER,
      E2EFA_BENCH_BUILD_TYPE, bench_git_describe().c_str());
}

}  // namespace e2efa
