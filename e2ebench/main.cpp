// e2ebench: one workload, one pass. Prints each metric by name and unit,
// then the stamped result row, then the result object as the last line.
//
//   e2ebench --workload paper-s2 --seed 1[,2,...] --seconds 10 --trace 0
//            [--horizon S] [--git-describe TEXT] [--spans PATH]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N[,N...] --seconds S "
               "--trace 0|1 [--horizon S] [--git-describe TEXT] [--spans PATH]\nworkloads:",
               why.c_str());
  for (const auto& w : e2ebench::workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double parse_double(const std::string& flag, const std::string& s) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != s.size()) usage("bad number for " + flag + ": " + s);
  return v;
}

std::uint64_t parse_seed(const std::string& s) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    usage("bad seed: " + s);
  try {
    return std::stoull(s);
  } catch (const std::exception&) {
    usage("bad seed: " + s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options opt;
  bool have_trace = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string val = argv[++i];
    if (flag == "--workload") {
      opt.workload = val;
    } else if (flag == "--seed") {
      std::size_t pos = 0;
      while (pos <= val.size()) {
        const std::size_t comma = std::min(val.find(',', pos), val.size());
        opt.seeds.push_back(parse_seed(val.substr(pos, comma - pos)));
        pos = comma + 1;
      }
    } else if (flag == "--seconds") {
      opt.seconds = parse_double(flag, val);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      opt.trace = val == "1";
      have_trace = true;
    } else if (flag == "--horizon") {
      opt.horizon = parse_double(flag, val);
      if (!(opt.horizon > 0.0)) usage("--horizon must be positive");
    } else if (flag == "--git-describe") {
      opt.git_describe = val;
    } else if (flag == "--spans") {
      opt.spans_path = val;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const e2ebench::Workload* w = e2ebench::find_workload(opt.workload);
  if (w == nullptr) usage("unknown workload '" + opt.workload + "'");
  if (opt.seeds.empty()) usage("--seed is required");
  if (!have_seconds || !(opt.seconds >= 0.0)) usage("--seconds is required and >= 0");
  if (!have_trace) usage("--trace is required");

  const e2ebench::Report rep =
      opt.trace ? e2ebench::run_traced(*w, opt) : e2ebench::run_end_to_end(*w, opt);
  for (const auto& m : rep.metrics)
    std::printf("%-30s %.9g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  for (const auto& line : rep.notes) std::printf("# %s\n", line.c_str());
  if (!rep.first_failure.empty())
    std::printf("# first failure: %s\n", rep.first_failure.c_str());
  std::printf("%s\n", e2ebench::row_json(opt, rep).c_str());
  std::printf("%s\n", e2ebench::result_json(rep).c_str());
  return 0;
}
