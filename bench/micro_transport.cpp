// Transport-layer overhead tracker: event-engine throughput (processed
// events per wall-clock second) on scenario 1 under 2PA-C, measured with
// the open-loop CBR source and with each elastic transport:
//
//   cbr    the golden path — no AckPlane is constructed, no transport
//          listeners are installed; this is the baseline the elastic
//          modes are guarded against.
//   aimd   closed-loop Reno-style source + cumulative-ACK return path.
//   bbr    closed-loop BBR-style source (paced sends) + ACK return path.
//
// The elastic modes schedule *more* events (pacing timers, RTOs, delayed
// ACKs, ACK control frames) and drive a heavier event mix (saturated
// queues, broadcast ACK receptions at every neighbor), so wall-clock per
// run is not comparable; events per second through the engine is — and
// even that sits below the CBR rate by design. What must not move is the
// *ratio*: modes alternate within every round, each round yields every
// elastic mode's events/sec over the same round's CBR rate (host speed
// drifting over seconds cancels within a round), and the median of those
// ratios over at least five rounds is guarded against the baseline
// recorded below (one slow or fast run cannot move a median, which a
// best-of or single run cannot promise). A drop of more than --tolerance
// (default 10%) under the baseline fails the run. Median absolute rates
// land in JSON (default BENCH_transport.json) for the historical record,
// every row stamped with the machine and build (bench_stamp.hpp).
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_stamp.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"
#include "transport/transport.hpp"
#include "util/strings.hpp"

using namespace e2efa;

namespace {

using Clock = std::chrono::steady_clock;

/// Fewest rounds a median is taken over.
constexpr int kMinRounds = 5;

struct Options {
  double seconds = 30.0;
  int rounds = 9;  // median over 9 alternated rounds
  double tolerance = 0.10;
  std::string out = "BENCH_transport.json";
};

[[noreturn]] void usage(const char* prog, const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
  std::fprintf(stderr,
               "usage: %s [--seconds T] [--rounds N] [--tolerance F] [--out PATH]\n"
               "  --seconds T    simulated seconds per run (default 30)\n"
               "  --rounds N     alternated rounds, median taken (>= %d, default 9)\n"
               "  --tolerance F  max allowed events/sec drop vs cbr (default 0.1)\n"
               "  --out PATH     JSON output (default BENCH_transport.json)\n",
               prog, kMinRounds);
  std::exit(2);
}

double parse_positive_double(const char* prog, const std::string& key,
                             const char* text) {
  const auto v = parse_double(text);
  if (!v || *v <= 0.0)
    usage(prog, key + ": expected a positive number, got '" + text + "'");
  return *v;
}

Options parse_options(int argc, char** argv) {
  const char* prog = argc > 0 ? argv[0] : "micro_transport";
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h") usage(prog, "");
    if (i + 1 >= argc) usage(prog, key + ": missing value");
    const char* val = argv[++i];
    if (key == "--seconds") {
      o.seconds = parse_positive_double(prog, key, val);
    } else if (key == "--rounds") {
      o.rounds = static_cast<int>(parse_positive_double(prog, key, val));
      if (o.rounds < kMinRounds)
        usage(prog, key + ": the median needs at least " +
                        std::to_string(kMinRounds) + " rounds");
    } else if (key == "--tolerance") {
      o.tolerance = parse_positive_double(prog, key, val);
    } else if (key == "--out") {
      o.out = val;
    } else {
      usage(prog, "unknown flag '" + key + "'");
    }
  }
  return o;
}

struct ModeResult {
  std::vector<double> eps;    ///< Events/sec, one entry per round.
  std::vector<double> ratio;  ///< eps over the same round's CBR eps.
  std::uint64_t events = 0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Events/sec relative to the same-process CBR run, recorded at the
/// default 30 s horizon. Machine-independent (both sides scale with the
/// host): a future change that slows elastic event processing relative to
/// the open-loop path drags the measured ratio under these.
constexpr double kBaselineRatio[] = {1.0, 0.78, 0.75};  // cbr, aimd, bbr

/// One timed run; returns events/sec and the event count.
std::pair<double, std::uint64_t> timed_run(TransportKind kind, double seconds) {
  Scenario sc = scenario1();
  sc.transport = kind;
  SimConfig cfg;
  cfg.sim_seconds = seconds;
  cfg.seed = 1;
  const auto t0 = Clock::now();
  const RunResult r = run_scenario(sc, Protocol::k2paCentralized, cfg);
  const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
  return {static_cast<double>(r.events_processed) / dt, r.events_processed};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const std::vector<TransportKind> kinds{
      TransportKind::kCbr, TransportKind::kAimd, TransportKind::kBbr};

  // Warm-up run (page-in, allocator steady state) before any timing.
  timed_run(TransportKind::kCbr, std::min(opt.seconds, 2.0));

  std::vector<ModeResult> results(kinds.size());
  for (int r = 0; r < opt.rounds; ++r) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const auto [eps, events] = timed_run(kinds[k], opt.seconds);
      results[k].eps.push_back(eps);
      results[k].ratio.push_back(eps / results[0].eps.back());
      results[k].events = events;
    }
  }

  bool failed = false;
  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s: %s\n", opt.out.c_str(),
                 std::strerror(errno));
    return 1;
  }
  const std::string stamp = bench_stamp_json();
  std::fprintf(f, "[\n");
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const double eps = median(results[k].eps);
    const double ratio = median(results[k].ratio);
    std::printf("%-5s %10.0f events/s  (%llu events, %.2fx vs cbr)\n",
                to_string(kinds[k]), eps,
                static_cast<unsigned long long>(results[k].events), ratio);
    std::fprintf(f,
                 "  {\"name\": \"transport_%s\", \"events_per_sec\": %.1f, "
                 "\"events\": %llu, \"ratio_vs_cbr\": %.4f, \"stamp\": %s}%s\n",
                 to_string(kinds[k]), eps,
                 static_cast<unsigned long long>(results[k].events), ratio,
                 stamp.c_str(), k + 1 < kinds.size() ? "," : "");
    if (k > 0 && ratio < kBaselineRatio[k] * (1.0 - opt.tolerance)) {
      std::fprintf(stderr,
                   "FAIL: %s events/sec ratio %.3fx vs cbr regressed more "
                   "than %.0f%% under the recorded baseline %.2fx\n",
                   to_string(kinds[k]), ratio, opt.tolerance * 1e2,
                   kBaselineRatio[k]);
      failed = true;
    }
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s\n", opt.out.c_str());
  return failed ? 1 : 0;
}
