#include "bench.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "alloc/allocation.hpp"
#include "alloc/centralized.hpp"
#include "alloc/distributed.hpp"
#include "contention/clique_store.hpp"
#include "contention/contention_graph.hpp"
#include "net/scenario_gen.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace e2ebench {

using e2efa::ContentionGraph;
using e2efa::FlowSet;
using e2efa::Protocol;
using e2efa::RunResult;
using e2efa::Scenario;
using e2efa::SimConfig;
using e2efa::strformat;
using Clock = std::chrono::steady_clock;

namespace {

/// Side measurements (zero-horizon runs, direct layer calls) taken after
/// each full run: at least one per round until kMinSideSamples exist, then
/// more while their total time is under kSideTimeShare of the full runs'
/// total, at most kMaxSidePerRound per round.
constexpr std::size_t kMinSideSamples = 5;
constexpr double kSideTimeShare = 0.15;
constexpr int kMaxSidePerRound = 20;
/// Fewest traced runs behind the Profiler figures.
constexpr std::size_t kMinTracedRuns = 5;
/// Flight-recorder ring of the traced pass's TraceSink (records).
constexpr std::size_t kTraceRing = std::size_t{1} << 16;
/// Slack of the gate's floating-point Phase-1 checks: the one src/check
/// grants (CheckConfig::alloc_eps), and the tolerance of the repository's
/// own Fig. 6 tests. The balanced refinement lands up to 2e-7 off the
/// exact Table I fractions.
constexpr double kAllocEps = 1e-6;

// random200-2pa-d: one fixed 200-node network. Setup time ranges over
// 0.19-1.1 s across generator seeds 1-6, so a network drawn per run seed
// would bury any change in input variance.
constexpr std::uint64_t kRandom200TopoSeed = 1;

Scenario paper_s2() { return e2efa::scenario2(); }

Scenario inband_aimd() {
  Scenario sc = e2efa::scenario2();
  sc.transport = e2efa::TransportKind::kAimd;
  return sc;
}

Scenario random200() {
  e2efa::GenConfig g;
  g.min_nodes = g.max_nodes = 200;
  g.min_flows = g.max_flows = 60;
  g.density_m = 130.0;
  g.max_hops = 4;
  g.p_faults = 0.0;
  g.p_loss = 0.0;
  return e2efa::generate_scenario(kRandom200TopoSeed, g);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

volatile std::uint64_t calibration_sink;

/// One pass of the work calibration_s() times (bench.hpp), in host seconds.
double calibration_pass() {
  const auto t0 = Clock::now();
  std::mt19937_64 rng(20050607);
  struct Ev {
    double t;
    std::uint32_t id;
  };
  auto later = [](const Ev& a, const Ev& b) { return a.t > b.t; };
  std::priority_queue<Ev, std::vector<Ev>, decltype(later)> events(later);
  for (std::uint32_t i = 0; i < 256; ++i) events.push({static_cast<double>(rng() % 1000), i});
  std::vector<std::uint32_t> state(4096);
  std::uint64_t acc = 0;
  for (int k = 0; k < 100000; ++k) {
    const Ev e = events.top();
    events.pop();
    const std::uint32_t h = e.id * 2654435761u;
    std::uint32_t& s = state[(h >> 20) & 4095];
    if ((s & 1) != 0) {
      acc += s;
      s = h;
    } else {
      s += 3;
      acc ^= h;
    }
    events.push({e.t + static_cast<double>((rng() >> 40) % 100 + 1), e.id});
  }
  std::vector<std::uint32_t> bits(1 << 16);
  for (std::uint32_t& x : bits) x = static_cast<std::uint32_t>(rng());
  for (int rep = 0; rep < 16; ++rep) {
    for (const std::uint32_t x : bits) {
      if ((x & 1) != 0)
        acc += x;
      else
        acc ^= x >> 3;
      if ((x & 4) != 0) acc *= 3;
    }
  }
  calibration_sink = acc;
  return seconds_since(t0);
}

bool distributed_family(Protocol p) {
  return p == Protocol::k2paDistributed || p == Protocol::k2paDistributedCtrl;
}

/// Peak resident set of this process (VmHWM), MiB.
double vm_hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return e2efa::profiler_peak_rss_mb();
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += strformat("\\u%04x", c);
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string num(double v) { return strformat("%.17g", v); }

/// The highest percentile with at least 10 samples beyond it: the 11th
/// largest of n >= kMinFullRuns samples, at percentile 100·(n−10)/n.
Metric tail_metric(const std::string& name, std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  const double pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return {name, "s", xs[n - 11],
          strformat("p%.1f of %zu samples, 10 beyond it", pct, n)};
}

/// Spans recorded by the benchmark around its calls into each layer:
/// name, start, end, parent, and the id of the run they belong to.
class SpanLog {
 public:
  int begin(const char* name, int parent, int run) {
    spans_.push_back({name, static_cast<int>(spans_.size()) + 1, parent, run, ns(), -1});
    return spans_.back().id;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id - 1)].end_ns = ns(); }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_)
      out << strformat("{\"id\": %d, \"parent\": %d, \"run\": %d, \"name\": \"%s\", "
                       "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                       s.id, s.parent, s.run, s.name,
                       static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    return static_cast<bool>(out);
  }

  /// Per span name: total self time (duration minus the time its child
  /// spans cover) in seconds, and the number of spans.
  std::map<std::string, std::pair<double, int>> self_times() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const Span& s : spans_)
      if (s.parent > 0)
        self[static_cast<std::size_t>(s.parent - 1)] -= s.end_ns - s.start_ns;
    std::map<std::string, std::pair<double, int>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& e = out[spans_[i].name];
      e.first += static_cast<double>(self[i]) * 1e-9;
      ++e.second;
    }
    return out;
  }

 private:
  struct Span {
    const char* name;
    int id, parent, run;
    std::int64_t start_ns, end_ns;
  };
  std::int64_t ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, int parent, int run)
      : log_(log), id_(log != nullptr ? log->begin(name, parent, run) : 0) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Runs the workload and keeps the tally: every run_scenario call is one
/// attempt. The first full run of a seed is its reference and must pass the
/// gate; every later run of the seed must match the reference. A run also
/// fails if it throws.
class Runs {
 public:
  Runs(const Workload& w, double horizon, Report* rep) : w_(w), horizon_(horizon), rep_(rep) {
    try {
      gate_ = std::make_unique<Gate>(w, w.build());
    } catch (const std::exception& e) {
      gate_failure_ = std::string("gate set-up threw: ") + e.what();
    }
  }

  /// An untimed full run that becomes the seed's reference, unless the
  /// seed has one already.
  void warm(std::uint64_t seed) {
    if (refs_.count(seed) != 0) return;
    RunResult r;
    full(seed, &r);
  }

  /// One full run, timed from scenario build to RunResult; the seed's
  /// reference when it has none yet.
  double full(std::uint64_t seed, RunResult* out) {
    return full(seed, [](SimConfig&) {}, [](const RunResult& a, const RunResult& b) { return a == b; },
                out);
  }

  /// The same, with observers armed by `cfg_hook`; `same` compares the
  /// result with the reference, which is made first if need be.
  template <class Hook, class Same>
  double full(std::uint64_t seed, Hook&& cfg_hook, Same&& same, RunResult* out,
              SpanLog* spans = nullptr, int parent = 0, int run = 0) {
    SimConfig cfg = base_config(seed, horizon_);
    cfg_hook(cfg);
    // An armed run is compared with an unarmed reference: make that first.
    const bool armed = cfg.profile != nullptr || cfg.trace != nullptr ||
                       cfg.metrics_period_seconds > 0.0;
    if (armed) warm(seed);
    ++rep_->attempted;
    std::string threw;
    const auto t0 = Clock::now();
    try {
      std::optional<Scenario> sc;
      {
        SpanScope s(spans, "net.gen", parent, run);
        sc.emplace(w_.build());
      }
      SpanScope s(spans, "net.run_scenario", parent, run);
      *out = e2efa::run_scenario(*sc, w_.proto, cfg);
    } catch (const std::exception& e) {
      threw = std::string("run threw: ") + e.what();
    }
    const double t = seconds_since(t0);
    auto it = refs_.find(seed);
    if (it == refs_.end()) {
      std::string failure = threw;
      if (failure.empty()) failure = gate_ ? gate_->check(*out) : gate_failure_;
      refs_.emplace(seed, Ref{*out, failure});
      if (!failure.empty())
        fail(strformat("seed %llu: %s", static_cast<unsigned long long>(seed), failure.c_str()));
    } else if (!threw.empty()) {
      fail(threw);
    } else if (!it->second.failure.empty()) {
      fail("seed failed its gate");
    } else if (!same(*out, it->second.result)) {
      fail(strformat("seed %llu: rerun differs from the reference run",
                     static_cast<unsigned long long>(seed)));
    }
    return t;
  }

  /// The same run with a zero simulated horizon: everything before the
  /// first event. Its Phase-1 outcome must equal the reference's.
  double setup(std::uint64_t seed) {
    warm(seed);
    const Ref& ref = refs_.at(seed);
    ++rep_->attempted;
    const auto t0 = Clock::now();
    RunResult r;
    try {
      const Scenario sc = w_.build();
      r = e2efa::run_scenario(sc, w_.proto, base_config(seed, 0.0));
    } catch (const std::exception& e) {
      fail(std::string("setup run threw: ") + e.what());
      return seconds_since(t0);
    }
    const double t = seconds_since(t0);
    if (!ref.failure.empty())
      fail("seed failed its gate");
    else if (r.epoch_lp_status != ref.result.epoch_lp_status ||
             r.target_flow_share != ref.result.target_flow_share ||
             r.target_subflow_share != ref.result.target_subflow_share)
      fail("zero-horizon run's Phase-1 outcome differs from the reference run");
    return t;
  }

  /// The seed's reference result (after a full run of the seed).
  const RunResult& reference(std::uint64_t seed) const { return refs_.at(seed).result; }

  void fail(const std::string& why) {
    ++rep_->failed;
    if (rep_->first_failure.empty()) rep_->first_failure = why;
  }

 private:
  struct Ref {
    RunResult result;
    std::string failure;
  };
  const Workload& w_;
  double horizon_;
  Report* rep_;
  std::unique_ptr<Gate> gate_;
  std::string gate_failure_;
  std::map<std::uint64_t, Ref> refs_;
};

/// Samples of one side measurement and their running total.
struct Side {
  std::vector<double> samples;
  double total_s = 0.0;

  /// One round after a full run; `f` takes one sample and returns seconds.
  template <class F>
  void round(double full_total_s, F&& f) {
    for (int k = 0; k < kMaxSidePerRound; ++k) {
      if (samples.size() >= kMinSideSamples && total_s >= kSideTimeShare * full_total_s)
        break;
      samples.push_back(f());
      total_s += samples.back();
    }
  }
};

double horizon_of(const Workload& w, const Options& opt) {
  return opt.horizon > 0.0 ? opt.horizon : w.sim_seconds;
}

double goodput_pps(const RunResult& r) {
  return static_cast<double>(r.total_end_to_end) / r.sim_seconds;
}

/// Jain's index over each flow's end-to-end rate divided by its target.
double share_jain(const RunResult& r) {
  std::vector<double> rate;
  for (std::int64_t n : r.end_to_end_per_flow)
    rate.push_back(static_cast<double>(n) / r.sim_seconds);
  return e2efa::jain_fairness_index(e2efa::normalized_by(rate, r.target_flow_share));
}

double mean(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return xs.empty() ? 0.0 : s / static_cast<double>(xs.size());
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper-s2", Protocol::k2paCentralized, 30.0, 0.17, paper_s2,
       {1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0, 1.0 / 8.0, 3.0 / 4.0}},
      {"inband-aimd", Protocol::k2paDistributedCtrl, 30.0, 0.21, inband_aimd, {}},
      {"random200-2pa-d", Protocol::k2paDistributed, 5.0, 1.26, random200, {}},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::size_t full_run_count(const Workload& w, double seconds, std::size_t run_seeds) {
  const auto budgeted = static_cast<std::size_t>(std::llround(seconds / w.nominal_run_s));
  return std::max({budgeted, kMinFullRuns, run_seeds});
}

double calibration_s() {
  calibration_pass();
  return calibration_pass();
}

double scaled_seconds(double host_s, double calibration_s) {
  return host_s * std::pow(kRefCalibrationS / calibration_s, kCalibrationExponent);
}

SimConfig base_config(std::uint64_t seed, double sim_seconds) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.sim_seconds = sim_seconds;
  return cfg;
}

std::vector<std::uint64_t> run_seeds(const std::vector<std::uint64_t>& given) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s : given)
    for (std::uint64_t k = 0; k < kSeedsPerArg; ++k) out.push_back(s * kSeedsPerArg + k);
  return out;
}

Gate::Gate(const Workload& w, Scenario sc)
    : proto_(w.proto),
      expected_(w.expected_flow_share),
      sc_(std::move(sc)),
      flows_(sc_.topo, sc_.flow_specs),
      graph_(sc_.topo, flows_) {
  if (distributed_family(proto_)) {
    // 2PA-D promises capacity on the cliques each source knows, not on
    // global cliques: sources with disjoint knowledge may together
    // oversubscribe one (src/check grants this slack too).
    const e2efa::DistributedResult d = e2efa::distributed_allocate(sc_.topo, flows_, graph_);
    for (const e2efa::LocalProblem& lp : d.locals) {
      if (lp.status != e2efa::LpStatus::kOptimal) {
        phase1_failure_ = strformat("local problem of flow %d not optimal", lp.flow);
        return;
      }
      for (const std::vector<int>& row : lp.rows) {
        double load = 0.0;
        for (std::size_t i = 0; i < row.size(); ++i) load += row[i] * lp.solution[i];
        if (load > 1.0 + kAllocEps) {
          phase1_failure_ = strformat(
              "local problem of flow %d exceeds a local clique (load %.9f)", lp.flow, load);
          return;
        }
      }
    }
    direct_flow_share_ = d.allocation.flow_share;
  } else {
    const e2efa::CentralizedResult c = e2efa::centralized_allocate(graph_);
    if (c.status != e2efa::LpStatus::kOptimal) {
      phase1_failure_ = "direct Phase-1 solve not optimal";
      return;
    }
    direct_flow_share_ = c.allocation.flow_share;
  }
}

std::string Gate::check(const RunResult& r) const {
  if (!phase1_failure_.empty()) return phase1_failure_;
  if (!r.has_target) return "run has no Phase-1 targets";
  if (r.epoch_lp_status.empty()) return "run reports no Phase-1 solve";
  for (e2efa::LpStatus s : r.epoch_lp_status)
    if (s != e2efa::LpStatus::kOptimal) return "Phase-1 solve not optimal";
  if (r.target_flow_share != direct_flow_share_) return "targets differ from a direct Phase-1 call";
  if (!distributed_family(proto_) &&
      !e2efa::satisfies_clique_capacity(graph_, r.target_subflow_share, kAllocEps))
    return strformat("targets exceed clique capacity (max load %.9f)",
                     e2efa::max_clique_load(graph_, r.target_subflow_share));
  if (!e2efa::satisfies_basic_fairness(graph_, r.target_flow_share, kAllocEps))
    return "targets break basic fairness";
  if (!expected_.empty()) {
    if (expected_.size() != r.target_flow_share.size())
      return "targets differ from the expected shares";
    for (std::size_t i = 0; i < expected_.size(); ++i)
      if (std::abs(r.target_flow_share[i] - expected_[i]) > kAllocEps)
        return "targets differ from the expected shares";
  }
  return "";
}

Report run_end_to_end(const Workload& w, const Options& opt) {
  Report rep;
  const double horizon = horizon_of(w, opt);
  Runs runs(w, horizon, &rep);
  const std::vector<std::uint64_t> seeds = run_seeds(opt.seeds);
  runs.warm(seeds.front());

  // Every time is scaled by the calibration work timed on either side of
  // its round.
  std::vector<double> raw_wall, wall, setup_s, calib = {calibration_s()};
  double wall_total = 0.0;
  Side setup;
  const std::size_t n_full = full_run_count(w, opt.seconds, seeds.size());
  for (std::size_t i = 0; i < n_full; ++i) {
    const std::uint64_t seed = seeds[i % seeds.size()];
    RunResult r;
    raw_wall.push_back(runs.full(seed, &r));
    wall_total += raw_wall.back();
    const std::size_t first_setup = setup.samples.size();
    setup.round(wall_total, [&] { return runs.setup(seed); });
    calib.push_back(calibration_s());
    const double around = 0.5 * (calib[i] + calib[i + 1]);
    wall.push_back(scaled_seconds(raw_wall.back(), around));
    for (std::size_t k = first_setup; k < setup.samples.size(); ++k)
      setup_s.push_back(scaled_seconds(setup.samples[k], around));
  }

  std::vector<double> goodput, jain;
  for (std::uint64_t seed : seeds) {
    const RunResult& ref = runs.reference(seed);
    goodput.push_back(goodput_pps(ref));
    jain.push_back(share_jain(ref));
  }
  const double failed_frac = static_cast<double>(rep.failed) / static_cast<double>(rep.attempted);
  rep.metrics = {
      {"wall_s", "s", median(wall), strformat("median of %zu runs", wall.size())},
      tail_metric("wall_tail_s", wall),
      {"setup_s", "s", median(setup_s), strformat("median of %zu runs", setup_s.size())},
      {"peak_rss_mb", "MiB", vm_hwm_mb(), "VmHWM of the workload process"},
      {"goodput_pps", "pkt/s", mean(goodput), "end-to-end packets / simulated s"},
      {"jain", "index", mean(jain), "over each flow's rate / target share"},
      {"pass_frac", "ratio", 1.0 - failed_frac, "1 - failed_frac"},
  };
  rep.notes.push_back(strformat(
      "host seconds, unscaled: wall %.6f, setup %.6f; calibration %.6f (reference %.6f)",
      median(raw_wall), median(setup.samples), median(calib), kRefCalibrationS));
  rep.notes.push_back(strformat("failed_frac = %.17g (%lld of %lld runs)", failed_frac,
                                static_cast<long long>(rep.failed),
                                static_cast<long long>(rep.attempted)));
  return rep;
}

namespace {

/// The benchmark's own calls into each layer's public functions, as the
/// workload's protocol makes them during setup.
struct LayerCalls {
  std::vector<double> gen, graph, clique, phase1;  // seconds per call
  double edges = 0.0, cliques = 0.0, lp_vars_max = 0.0;

  /// One round of calls; returns its total seconds.
  double once(const Workload& w, SpanLog* spans, int run) {
    SpanScope root(spans, "layers", 0, run);
    double total = 0.0;
    auto timed = [&](std::vector<double>& samples, const char* name, auto&& f) {
      SpanScope s(spans, name, root.id(), run);
      const auto t0 = Clock::now();
      f();
      samples.push_back(seconds_since(t0));
      total += samples.back();
    };
    std::optional<Scenario> sc;
    timed(gen, "net.gen", [&] { sc.emplace(w.build()); });
    const FlowSet flows(sc->topo, sc->flow_specs);
    std::optional<ContentionGraph> g;
    timed(graph, "contention.graph", [&] { g.emplace(sc->topo, flows); });
    std::optional<e2efa::CliqueStore> store;
    timed(clique, "contention.cliques", [&] { store.emplace(*g); });
    timed(phase1, "alloc.phase1", [&] {
      if (distributed_family(w.proto)) {
        const e2efa::DistributedResult d = e2efa::distributed_allocate(sc->topo, flows, *g);
        lp_vars_max = 0.0;
        for (const e2efa::LocalProblem& lp : d.locals)
          lp_vars_max = std::max(lp_vars_max, static_cast<double>(lp.vars.size()));
      } else {
        const std::vector<std::vector<int>> all = store->cliques();
        const e2efa::CentralizedResult c = e2efa::centralized_allocate(*g, &all);
        lp_vars_max = static_cast<double>(c.allocation.flow_share.size());
      }
    });
    edges = 0.0;
    for (int v = 0; v < g->vertex_count(); ++v) edges += g->degree(v);
    edges /= 2.0;
    cliques = store->clique_count();
    return total;
  }

  /// Seconds of the calls the protocol's setup makes: the contention
  /// graph and Phase 1, plus the global clique store for 2PA-C.
  double setup_share_s(const Workload& w) const {
    return median(graph) + median(phase1) + (distributed_family(w.proto) ? 0.0 : median(clique));
  }
};

/// A traced run must equal the reference but for what the metrics sampler
/// adds: its samples and one simulator event per sample.
bool same_but_sampler(RunResult a, const RunResult& b) {
  a.events_processed -= a.metrics.samples.size();
  a.metrics = {};
  return a == b;
}

}  // namespace

Report run_traced(const Workload& w, const Options& opt) {
  Report rep;
  const double horizon = horizon_of(w, opt);
  Runs runs(w, horizon, &rep);
  const std::vector<std::uint64_t> seeds = run_seeds(opt.seeds);
  runs.warm(seeds.front());
  SpanLog spans;
  int run_id = 0;
  LayerCalls layers;
  Side setup, layer_rounds;
  std::vector<double> wall, traced_wall;
  double full_total = 0.0;
  std::map<std::string, std::vector<double>> v;  // one value per traced run
  e2efa::Profiler prof;
  const double period = horizon / 20.0;

  // Untraced runs, zero-horizon runs, traced runs and direct layer calls,
  // interleaved so that drift in the machine hits all of them alike.
  const auto start = Clock::now();
  for (std::size_t i = 0; seconds_since(start) < opt.seconds || traced_wall.size() < kMinTracedRuns;
       ++i) {
    const std::uint64_t seed = seeds[i % seeds.size()];
    RunResult plain, traced;
    wall.push_back(runs.full(seed, &plain));
    full_total += wall.back();
    setup.round(full_total, [&] { return runs.setup(seed); });

    prof.clear();
    e2efa::TraceSink sink;
    sink.set_ring(kTraceRing);
    {
      SpanScope root(&spans, "traced_run", 0, ++run_id);
      traced_wall.push_back(runs.full(
          seed,
          [&](SimConfig& cfg) {
            cfg.profile = &prof;
            cfg.trace = &sink;
            cfg.metrics_period_seconds = period;
          },
          same_but_sampler, &traced, &spans, root.id(), run_id));
    }
    layer_rounds.round(full_total, [&] {
      try {
        return layers.once(w, &spans, ++run_id);
      } catch (const std::exception& e) {
        runs.fail(std::string("layer call threw: ") + e.what());
        return 0.0;
      }
    });

    using Phase = e2efa::Profiler::Phase;
    v["contention.clique_busy_s"].push_back(prof.seconds(Phase::kClique));
    v["alloc.solve_busy_s"].push_back(prof.seconds(Phase::kSolve));
    v["alloc.solve_calls"].push_back(static_cast<double>(prof.calls(Phase::kSolve)));
    v["phy.fanout_busy_s"].push_back(prof.seconds(Phase::kPhy));
    v["phy.fanout_calls"].push_back(static_cast<double>(prof.calls(Phase::kPhy)));
    v["ctrl.busy_s"].push_back(prof.seconds(Phase::kCtrl));
    v["obs.trace_records"].push_back(static_cast<double>(sink.recorded()));

    // Counts from the untraced run; sampled gauges from the traced one.
    const double events = static_cast<double>(plain.events_processed);
    const double frames = static_cast<double>(plain.channel.frames_transmitted);
    v["sim.events"].push_back(events);
    v["sim.events_per_frame"].push_back(ratio(events, frames));
    v["phy.frames"].push_back(frames);
    v["phy.collision_frac"].push_back(ratio(
        static_cast<double>(plain.channel.frames_corrupted),
        static_cast<double>(plain.channel.frames_delivered + plain.channel.frames_corrupted)));
    v["mac.drops"].push_back(static_cast<double>(plain.dropped_mac));
    v["sched.queue_drops"].push_back(static_cast<double>(plain.dropped_queue));
    std::vector<double> retry, p95;
    for (const e2efa::MetricsSample& s : traced.metrics.samples) {
      retry.push_back(s.mac_retry_rate);
      p95.push_back(s.queue_depth_p95);
    }
    v["mac.retry_rate"].push_back(mean(retry));
    v["sched.queue_depth_p95"].push_back(mean(p95));
    double delay_sum = 0.0, delivered = 0.0;
    for (std::size_t f = 0; f < plain.end_to_end_per_flow.size(); ++f) {
      delay_sum += plain.mean_delay_s[f] * static_cast<double>(plain.end_to_end_per_flow[f]);
      delivered += static_cast<double>(plain.end_to_end_per_flow[f]);
    }
    v["traffic.delay_mean_s"].push_back(ratio(delay_sum, delivered));
    v["traffic.loss_ratio"].push_back(plain.loss_ratio);
    v["ctrl.frames"].push_back(static_cast<double>(plain.ctrl.ctrl_frames));
    v["ctrl.solves"].push_back(static_cast<double>(plain.ctrl.solves));
    v["ctrl.overhead"].push_back(
        traced.metrics.samples.empty() ? 0.0 : traced.metrics.samples.back().ctrl_overhead);
    v["transport.acks_delivered_frac"].push_back(
        ratio(static_cast<double>(plain.transport.acks_delivered),
              static_cast<double>(plain.transport.acks_sent)));
  }

  const double wall_med = median(wall), setup_med = median(setup.samples);
  const double loop_s = wall_med - setup_med;
  auto m = [&](const char* name) { return median(v[name]); };
  const bool dist = distributed_family(w.proto);
  rep.metrics = {
      {"net.gen_s", "s", median(layers.gen), "direct call"},
      {"contention.graph_s", "s", median(layers.graph), "ContentionGraph, direct call"},
      {"contention.edges", "count", layers.edges, ""},
      {"contention.clique_s", "s", median(layers.clique), "CliqueStore, direct call"},
      {"contention.cliques", "count", layers.cliques, "maximal cliques"},
      {"contention.clique_busy_s", "s", m("contention.clique_busy_s"),
       dist ? "Profiler clique; 2PA-D keeps no clique store" : "Profiler clique"},
      {"alloc.phase1_s", "s", median(layers.phase1),
       dist ? "distributed_allocate, direct call" : "centralized_allocate, direct call"},
      {"alloc.local_lp_vars_max", "count", layers.lp_vars_max, "variables of the largest LP"},
      {"alloc.solve_busy_s", "s", m("alloc.solve_busy_s"), "Profiler solve"},
      {"alloc.solve_calls", "count", m("alloc.solve_calls"), "Profiler solve"},
      {"sim.loop_s", "s", loop_s, "wall_s - setup_s, untraced"},
      {"sim.events", "count", m("sim.events"), ""},
      {"sim.events_per_frame", "ratio", m("sim.events_per_frame"), "events / frames sent"},
      {"sim.events_per_s", "1/s", ratio(m("sim.events"), loop_s), "events / sim.loop_s"},
      {"phy.frames", "count", m("phy.frames"), "frames sent"},
      {"phy.collision_frac", "ratio", m("phy.collision_frac"),
       "corrupted / (delivered + corrupted) receptions"},
      {"phy.fanout_busy_s", "s", m("phy.fanout_busy_s"), "Profiler phy"},
      {"phy.fanout_calls", "count", m("phy.fanout_calls"), "Profiler phy"},
      {"mac.drops", "count", m("mac.drops"), "retry-limit drops"},
      {"mac.retry_rate", "ratio", m("mac.retry_rate"), "mean of sampled windows"},
      {"sched.queue_drops", "count", m("sched.queue_drops"), "drop-tail drops"},
      {"sched.queue_depth_p95", "pkt", m("sched.queue_depth_p95"), "mean of sampled windows"},
      {"traffic.delay_mean_s", "s", m("traffic.delay_mean_s"), "per delivered packet"},
      {"traffic.loss_ratio", "ratio", m("traffic.loss_ratio"), ""},
      {"ctrl.frames", "count", m("ctrl.frames"), ""},
      {"ctrl.solves", "count", m("ctrl.solves"), ""},
      {"ctrl.overhead", "ratio", m("ctrl.overhead"), "ctrl bytes / data bytes"},
      {"ctrl.busy_s", "s", m("ctrl.busy_s"), "Profiler ctrl"},
      {"transport.acks_delivered_frac", "ratio", m("transport.acks_delivered_frac"), ""},
      {"obs.trace_overhead", "ratio", median(traced_wall) / wall_med - 1.0,
       strformat("traced / untraced wall_s - 1, %zu / %zu runs", traced_wall.size(),
                 wall.size())},
      {"obs.trace_records", "count", m("obs.trace_records"), "TraceSink records per run"},
      {"setup.wall_frac", "ratio", ratio(setup_med, wall_med), "setup_s / wall_s, untraced"},
      {"setup.layer_frac", "ratio", ratio(layers.setup_share_s(w), setup_med),
       dist ? "(contention.graph_s + alloc.phase1_s) / setup_s"
            : "(contention.graph_s + contention.clique_s + alloc.phase1_s) / setup_s"},
  };
  for (const auto& [name, e] : spans.self_times())
    rep.notes.push_back(strformat("span %-20s self %.6f s over %d spans", name.c_str(),
                                  e.first, e.second));
  if (!opt.spans_path.empty()) {
    if (spans.write(opt.spans_path))
      rep.notes.push_back("spans written to " + opt.spans_path);
    else
      runs.fail("cannot write spans to " + opt.spans_path);
  }
  return rep;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string stamp_json(const Options& opt) {
  return strformat(
      "{\"hardware_concurrency\": %u, \"nproc\": %d, \"compiler\": %s, "
      "\"build_type\": %s, \"git_describe\": %s}",
      std::thread::hardware_concurrency(), nproc(), json_string(E2EBENCH_COMPILER).c_str(),
      json_string(E2EBENCH_BUILD_TYPE).c_str(), json_string(opt.git_describe).c_str());
}

namespace {
std::string metrics_json(const Report& r, bool with_notes) {
  std::string out = "{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += strformat("%s%s: {\"value\": %s, \"unit\": %s", i ? ", " : "",
                     json_string(m.name).c_str(), num(m.value).c_str(),
                     json_string(m.unit).c_str());
    if (with_notes && !m.note.empty()) out += ", \"note\": " + json_string(m.note);
    out += "}";
  }
  return out + "}";
}
}  // namespace

std::string row_json(const Options& opt, const Report& r) {
  auto list = [](const std::vector<std::uint64_t>& xs) {
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i)
      out += strformat("%s%llu", i ? ", " : "", static_cast<unsigned long long>(xs[i]));
    return out + "]";
  };
  const Workload* w = find_workload(opt.workload);
  return strformat(
      "{\"row\": {\"stamp\": %s, \"workload\": %s, \"seeds\": %s, \"run_seeds\": %s, "
      "\"trace\": %d, \"horizon_s\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"first_failure\": %s, \"metrics\": %s}}",
      stamp_json(opt).c_str(), json_string(opt.workload).c_str(), list(opt.seeds).c_str(),
      list(run_seeds(opt.seeds)).c_str(), opt.trace ? 1 : 0,
      num(w != nullptr ? horizon_of(*w, opt) : 0.0).c_str(), static_cast<long long>(r.attempted),
      static_cast<long long>(r.failed), json_string(r.first_failure).c_str(),
      metrics_json(r, true).c_str());
}

std::string result_json(const Report& r) {
  return strformat("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}",
                   r.correct() ? "true" : "false", static_cast<long long>(r.attempted),
                   static_cast<long long>(r.failed), metrics_json(r, false).c_str());
}

}  // namespace e2ebench
