// End-to-end benchmark of record: `run_scenario` on three workloads, timed
// with tracing off, plus a separate traced pass that attributes time and
// work to the product's layers (src/ modules). See README.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "contention/contention_graph.hpp"
#include "flow/flow.hpp"
#include "net/runner.hpp"
#include "net/scenarios.hpp"

namespace e2ebench {

struct Workload {
  std::string name;
  e2efa::Protocol proto = e2efa::Protocol::k2paCentralized;
  /// Simulated seconds of one full run.
  double sim_seconds = 0.0;
  /// Host seconds of one untraced full run on the reference machine (a
  /// 4-core 2.0 GHz Xeon KVM guest, Release build). It turns a time budget
  /// into a fixed count of full runs (full_run_count), so that every pass
  /// given the same budget takes the same order statistic as its tail,
  /// however fast the host or the program happens to be.
  double nominal_run_s = 0.0;
  /// Builds the scenario, only through scenario2() or generate_scenario().
  /// Each workload is one fixed scenario; run seeds vary the simulation.
  e2efa::Scenario (*build)() = nullptr;
  /// When non-empty, the Phase-1 flow targets must equal these (units of
  /// B, within 1e-6; paper-s2: B/3, B/3, 2B/3, B/8, 3B/4 of Fig. 6).
  std::vector<double> expected_flow_share;
};

const std::vector<Workload>& workloads();

/// Fewest full runs an untraced pass makes. The tail (the 11th largest)
/// then sits clear of the median on every workload: at p67.7 of 31.
inline constexpr std::size_t kMinFullRuns = 31;
/// The untraced pass's full-run count for a budget of `seconds`:
/// seconds / nominal_run_s, rounded, at least kMinFullRuns and at least one
/// per run seed. It depends on the budget and the seed list only.
std::size_t full_run_count(const Workload& w, double seconds, std::size_t run_seeds);
/// Host seconds of a fixed piece of calibration work that shares no code
/// with the product (an event heap over a state table, then branches on
/// random bits, all in a core's own caches), timed after one warm-up pass.
/// On a shared host it slows down together with a full run when other
/// tenants contend for the core, where a register-only loop or a pointer
/// chase through memory does not. Changing it rescales every reported time.
double calibration_s();
/// A fixed scale: calibration_s() near its fastest on the reference
/// machine, 0.0147-0.0160 s.
inline constexpr double kRefCalibrationS = 0.015;
/// A full run slows down as the calibration time to this power: fitted on
/// the reference machine over whole passes of all three workloads and over
/// 10 s windows (README.md, "Steadiness").
inline constexpr double kCalibrationExponent = 1.5;
/// The untraced pass's times: host seconds scaled to the reference machine
/// by the calibration time taken around them,
/// host_s · (kRefCalibrationS / calibration_s)^kCalibrationExponent.
double scaled_seconds(double host_s, double calibration_s);

/// Null when no workload has this name.
const Workload* find_workload(const std::string& name);

/// The configuration of one run: the paper's defaults, tracing, checks and
/// profiling off. The workload's scenario carries everything else.
e2efa::SimConfig base_config(std::uint64_t seed, double sim_seconds);

/// The run seeds behind the seeds given on the command line: each given
/// seed s stands for kSeedsPerArg run seeds, s·kSeedsPerArg + k, so that
/// seed-dependent outputs (goodput, fairness, event counts) are averaged
/// over several simulations in every pass.
inline constexpr std::uint64_t kSeedsPerArg = 4;
std::vector<std::uint64_t> run_seeds(const std::vector<std::uint64_t>& given);

/// The correctness gate, using only public functions (README.md). The
/// constructor checks the workload's Phase 1 by direct calls, once; check()
/// then checks one run's result:
///   - every Phase-1 solve is optimal (the runner's epoch statuses; for the
///     distributed family also every source's local problem);
///   - the targets equal the direct Phase-1 call's;
///   - clique capacity holds: on every maximal clique for 2PA-C, on each
///     source's local cliques for the distributed family;
///   - basic fairness holds on the targets;
///   - `expected_flow_share`, when given, matches.
class Gate {
 public:
  Gate(const Workload& w, e2efa::Scenario sc);
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  /// Empty when the run passes, otherwise the first failed check.
  std::string check(const e2efa::RunResult& r) const;

 private:
  e2efa::Protocol proto_;
  std::vector<double> expected_;
  e2efa::Scenario sc_;
  e2efa::FlowSet flows_;  // over sc_.topo
  e2efa::ContentionGraph graph_;  // over flows_
  std::string phase1_failure_;
  std::vector<double> direct_flow_share_;
};

struct Options {
  std::string workload;
  std::vector<std::uint64_t> seeds;
  /// Time budget: the untraced pass turns it into a fixed full-run count
  /// (full_run_count); the traced pass runs until it is spent.
  double seconds = 10.0;
  bool trace = false;
  /// Simulated seconds per full run; <= 0 selects the workload's own.
  double horizon = 0.0;
  std::string git_describe = "unknown";
  /// Traced pass only: where the span log is written (empty: nowhere).
  std::string spans_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< Human-readable detail printed beside the value.
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_failure;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< Extra human-readable lines.
  bool correct() const { return attempted > 0 && failed == 0; }
};

/// Untraced pass: the end-to-end metrics.
Report run_end_to_end(const Workload& w, const Options& opt);
/// Traced pass: the per-layer metrics.
Report run_traced(const Workload& w, const Options& opt);

/// The machine and build this binary ran on, as a JSON object.
std::string stamp_json(const Options& opt);
/// The stamped result row: stamp, workload, seeds and every metric.
std::string row_json(const Options& opt, const Report& r);
/// The final line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Report& r);

/// Median of the samples (mean of the middle two for an even count).
double median(std::vector<double> xs);

}  // namespace e2ebench
