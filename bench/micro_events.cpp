// Scheduler-core microbenchmark: events/sec of the event engine on
// MAC/PHY-shaped workloads.
//
// Emits machine-readable JSON (default BENCH_events.json): one record per
// workload with {"name", "events_per_sec", "ns_per_event", "stamp"}, the
// stamp naming the machine and build (bench_stamp.hpp). Each workload is
// timed best-of-`rounds`, so the figure is robust to other load on the
// machine.
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
#include "sim/simulator.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace {

using Clock = std::chrono::steady_clock;

using e2efa::Simulator;

// The workloads below schedule small function objects — the event shapes
// the product code actually produces ([this]-captured ticks and guard
// timers, frame-carrying end-of-reception closures).

/// Bulk schedule of n empty events, then one drain.
double bench_schedule_drain(int n, int reps) {
  const auto t0 = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    Simulator sim;
    for (int i = 0; i < n; ++i) sim.schedule_at(i, [] {});
    sim.run();
  }
  return reps * n / std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Self-rescheduling chain: each event schedules its successor (a CBR tick
/// or backoff countdown; the closure is one `this` pointer).
struct CascadeCtx {
  Simulator* sim;
  int count = 0;
  int n;
  struct Tick {
    CascadeCtx* c;
    void operator()() const {
      if (++c->count < c->n) c->sim->schedule_in(1, Tick{c});
    }
  };
};

double bench_cascade(int n, int reps) {
  const auto t0 = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    Simulator sim;
    CascadeCtx ctx{&sim, 0, n};
    sim.schedule_in(1, CascadeCtx::Tick{&ctx});
    sim.run();
  }
  return reps * n / std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The MAC timeout pattern: every step cancels the previous guard timer and
/// arms a new one, so half the scheduled events die un-fired.
struct TimerCtx {
  Simulator* sim;
  std::uint64_t pending = 0;
  int count = 0;
  int n;
  struct Step {
    TimerCtx* c;
    void operator()() const {
      if (c->pending) c->sim->cancel(c->pending);
      if (++c->count < c->n) {
        c->pending = c->sim->schedule_at(c->sim->now() + 1000, [] {});
        c->sim->schedule_in(7, Step{c});
      }
    }
  };
};

double bench_timer_mix(int n, int reps) {
  const auto t0 = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    Simulator sim;
    TimerCtx ctx{&sim, 0, 0, n};
    sim.schedule_in(7, TimerCtx::Step{&ctx});
    sim.run();
  }
  return reps * n / std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The PHY shape: each "transmission" fans out four end-of-frame events
/// whose closures carry frame-sized state (~40 bytes).
struct FanCtx {
  Simulator* sim;
  int fired = 0;
  int n;
  long long sink = 0;
  struct FrameEnd {
    FanCtx* ctx;
    long long end;
    unsigned long long tx_id;
    int r;
    char body[12];
    void operator()() const {
      ++ctx->fired;
      ctx->sink += end + r;
    }
  };
  struct Tx {
    FanCtx* c;
    void operator()() const {
      if (c->fired >= c->n) return;
      for (int k = 0; k < 4; ++k)
        c->sim->schedule_at(c->sim->now() + 2048,
                            FrameEnd{c, c->sim->now() + 2048, 1, k, {}});
      c->sim->schedule_in(2048, Tx{c});
    }
  };
};

double bench_phy_fanout(int n, int reps) {
  const auto t0 = Clock::now();
  long long sink = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Simulator sim;
    FanCtx ctx{&sim, 0, n, 0};
    sim.schedule_in(1, FanCtx::Tx{&ctx});
    sim.run();
    sink += ctx.sink;
  }
  if (sink == 42) std::printf("~");  // defeat whole-benchmark elision
  return reps * n / std::chrono::duration<double>(Clock::now() - t0).count();
}

/// K interleaved self-rescheduling cascades: the heap holds K entries at
/// once, so every pop sifts through real levels (a single cascade keeps
/// the heap at one entry).
struct alignas(64) MultiCtx {
  Simulator* sim = nullptr;
  int count = 0;
  int n = 0;
  struct Tick {
    MultiCtx* c;
    void operator()() const {
      if (++c->count < c->n) c->sim->schedule_in(1, Tick{c});
    }
  };
};

constexpr int kCascades = 64;

double bench_multi_cascade(int n, int reps) {
  const int per = std::max(1, n / kCascades);
  const auto t0 = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    Simulator sim;
    std::vector<MultiCtx> ctxs(kCascades);
    for (MultiCtx& c : ctxs) {
      c = {&sim, 0, per};
      sim.schedule_at(1, MultiCtx::Tick{&c});
    }
    sim.run();
  }
  return reps * (static_cast<double>(per) * kCascades) /
         std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  int events = 10'000;
  int reps = 150;
  int rounds = 5;
  std::string out = "BENCH_events.json";
};

[[noreturn]] void usage(const char* prog, const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
  std::fprintf(stderr,
               "usage: %s [--events N] [--reps N] [--rounds N] [--out PATH]\n",
               prog);
  std::exit(2);
}

int parse_positive(const char* prog, const std::string& key, const char* text) {
  const auto v = e2efa::parse_int(text);
  if (!v || *v <= 0 || *v > 100'000'000)
    usage(prog, key + ": expected a positive integer, got '" + text + "'");
  return static_cast<int>(*v);
}

Options parse_options(int argc, char** argv) {
  const char* prog = argc > 0 ? argv[0] : "micro_events";
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h") usage(prog, "");
    if (i + 1 >= argc) usage(prog, key + ": missing value");
    const char* val = argv[++i];
    if (key == "--events") o.events = parse_positive(prog, key, val);
    else if (key == "--reps") o.reps = parse_positive(prog, key, val);
    else if (key == "--rounds") o.rounds = parse_positive(prog, key, val);
    else if (key == "--out") o.out = val;
    else usage(prog, "unknown flag '" + key + "'");
  }
  return o;
}

struct Result {
  std::string name;
  double events_per_sec = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  struct Workload {
    const char* name;
    double (*run)(int, int);
  };
  const Workload workloads[] = {
      {"schedule_drain", bench_schedule_drain},
      {"cascade", bench_cascade},
      {"timer_mix", bench_timer_mix},
      {"phy_fanout", bench_phy_fanout},
      {"multi_cascade", bench_multi_cascade},
  };

  std::vector<Result> results;
  for (const Workload& w : workloads) {
    double best = 0.0;
    for (int r = 0; r < opt.rounds; ++r)
      best = std::max(best, w.run(opt.events, opt.reps));
    results.push_back({w.name, best});
    std::printf("%-16s %8.2f M events/s\n", w.name, best / 1e6);
  }

  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s: %s\n", opt.out.c_str(),
                 std::strerror(errno));
    return 1;
  }
  const std::string stamp = e2efa::bench_stamp_json();
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"events_per_sec\": %.0f, "
                 "\"ns_per_event\": %.3f, \"stamp\": %s}%s\n",
                 results[i].name.c_str(), results[i].events_per_sec,
                 1e9 / results[i].events_per_sec, stamp.c_str(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s\n", opt.out.c_str());
  return 0;
}
