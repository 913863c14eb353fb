// Determinism regression: the event-engine rewrite (pooled slab + 4-ary
// heap + SBO callbacks + single-event channel completion) must reproduce
// the seed engine's trajectories bit-for-bit. The golden values below were
// captured from the pre-rewrite engine (scenario 1, T = 5 s, seed = 1) for
// all seven protocols; any divergence in event ordering shows up as a
// different packet count somewhere in this table.
//
// Full-result goldens (tests/goldens/*.txt) pin every RunResult field but
// events_processed on the benchmark's scenario-2 workloads, basic access,
// a lossy random network, the churn/mobility repro and a relay crash with
// recovery under AIMD.
//
// Also covers: same-seed reruns are identical in every RunResult field,
// and BatchRunner produces exactly the sequential results regardless of
// thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/batch.hpp"
#include "net/cli.hpp"
#include "net/runner.hpp"
#include "net/scenario_file.hpp"
#include "net/scenarios.hpp"
#include "obs/trace.hpp"
#include "route/routing.hpp"
#include "run_result_testing.hpp"
#include "util/rng.hpp"

namespace e2efa {
namespace {

const Protocol kAllProtocols[] = {
    Protocol::k80211,          Protocol::kTwoTier,
    Protocol::kTwoTierBalanced, Protocol::k2paCentralized,
    Protocol::k2paDistributed,  Protocol::kMaxMin,
    Protocol::k2paStaticCw,     Protocol::k2paDistributedCtrl};

SimConfig golden_config() {
  SimConfig cfg;
  cfg.sim_seconds = 5.0;
  cfg.seed = 1;
  return cfg;
}

struct Golden {
  Protocol protocol;
  std::vector<std::int64_t> delivered_per_subflow;
  std::vector<std::int64_t> end_to_end_per_flow;
  std::int64_t total_end_to_end;
  std::int64_t lost_packets;
  std::int64_t dropped_queue;
  std::int64_t dropped_mac;
  std::uint64_t frames_transmitted;
  std::uint64_t frames_delivered;
  std::uint64_t frames_corrupted;
  std::uint64_t bytes_corrupted;
};

// Captured from the seed engine at commit 877a039 (scenario1, 5 s, seed 1).
const Golden kGolden[] = {
    {Protocol::k80211,
      {1000, 50, 881, 879},
      {50, 879},
      929, 952, 926, 44,
      11925, 19245, 1112, 475664},
    {Protocol::kTwoTier,
      {995, 269, 667, 667},
      {269, 667},
      936, 726, 942, 22,
      11127, 18027, 856, 359706},
    {Protocol::kTwoTierBalanced,
      {933, 354, 600, 599},
      {354, 599},
      953, 580, 910, 24,
      10705, 17474, 790, 334510},
    {Protocol::k2paCentralized,
      {814, 528, 503, 501},
      {528, 501},
      1029, 288, 817, 23,
      10258, 16863, 707, 277362},
    {Protocol::k2paDistributed,
      {737, 450, 545, 544},
      {450, 544},
      994, 288, 888, 19,
      9996, 16546, 715, 297142},
    {Protocol::kMaxMin,
      {763, 434, 610, 605},
      {434, 605},
      1039, 334, 778, 31,
      10482, 17349, 787, 316970},
    // Re-captured when Phase-1 shares became exact (0.75 instead of
    // 0.7499999 on scenario 1): this ablation derives static contention
    // windows from the shares, so the windows and the run moved.
    {Protocol::k2paStaticCw,
      {997, 225, 650, 650},
      {225, 650},
      875, 772, 1013, 10,
      10671, 17361, 794, 351496},
};

TEST(Determinism, MatchesSeedEngineGoldens) {
  const Scenario sc = scenario1();
  const SimConfig cfg = golden_config();
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(to_string(g.protocol));
    const RunResult r = run_scenario(sc, g.protocol, cfg);
    EXPECT_EQ(r.delivered_per_subflow, g.delivered_per_subflow);
    EXPECT_EQ(r.end_to_end_per_flow, g.end_to_end_per_flow);
    EXPECT_EQ(r.total_end_to_end, g.total_end_to_end);
    EXPECT_EQ(r.lost_packets, g.lost_packets);
    EXPECT_EQ(r.dropped_queue, g.dropped_queue);
    EXPECT_EQ(r.dropped_mac, g.dropped_mac);
    EXPECT_EQ(r.channel.frames_transmitted, g.frames_transmitted);
    EXPECT_EQ(r.channel.frames_delivered, g.frames_delivered);
    EXPECT_EQ(r.channel.frames_corrupted, g.frames_corrupted);
    EXPECT_EQ(r.channel.bytes_corrupted, g.bytes_corrupted);
  }
}

// ---- Full-result goldens ------------------------------------------------
// Each case's golden_dump text lives in tests/goldens/<name>.txt. A mismatch
// reports the first differing line. The files were captured before the
// one-event-per-backoff MAC landed and must never be re-captured to absorb
// a trajectory change; E2EFA_WRITE_GOLDENS=1 (re)writes them only for a new
// case or a deliberate, documented behaviour change.

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(E2EFA_GOLDEN_DIR) + "/" + name + ".txt";
  const char* write = std::getenv("E2EFA_WRITE_GOLDENS");
  if (write != nullptr && std::string(write) == "1") {
    std::ofstream(path) << actual;
    return;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << path;
  if (expected == actual) return;
  std::istringstream e(expected), a(actual);
  std::string le, la;
  for (int line = 1;; ++line) {
    const bool more_e = static_cast<bool>(std::getline(e, le));
    const bool more_a = static_cast<bool>(std::getline(a, la));
    if (!more_e && !more_a) break;
    if (le != la || more_e != more_a) {
      ADD_FAILURE() << name << ".txt line " << line << "\n  golden: " << le
                    << "\n  actual: " << la;
      return;
    }
  }
}

std::string dump_runs(const Scenario& sc, const std::vector<Protocol>& protos,
                      const SimConfig& cfg) {
  std::string out;
  for (Protocol p : protos) out += golden_dump(run_scenario(sc, p, cfg));
  return out;
}

// The benchmark's paper-s2 workload: Fig. 6 topology, 2PA-C, CBR.
TEST(Determinism, GoldenScenario2TwoPaCCbr) {
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  cfg.seed = 1;
  expect_golden("s2_2pa-c_cbr",
                dump_runs(scenario2(), {Protocol::k2paCentralized}, cfg));
}

// The benchmark's inband-aimd workload: in-band control plane + AIMD.
TEST(Determinism, GoldenScenario2DctrlAimd) {
  Scenario sc = scenario2();
  sc.transport = TransportKind::kAimd;
  SimConfig cfg;
  cfg.sim_seconds = 20.0;
  cfg.seed = 1;
  expect_golden("s2_2pa-dctrl_aimd",
                dump_runs(sc, {Protocol::k2paDistributedCtrl}, cfg));
}

// Basic access (no RTS/CTS): hidden terminals collide on full DATA frames.
TEST(Determinism, GoldenScenario1BasicAccess) {
  SimConfig cfg = golden_config();
  cfg.use_rts_cts = false;
  expect_golden("s1_basic_access",
                dump_runs(scenario1(),
                          std::vector<Protocol>(std::begin(kAllProtocols),
                                                std::end(kAllProtocols)),
                          cfg));
}

// A lossy random network (the CLI's random:40 with --loss 0.05) under
// 2PA-D, with the metrics sampler and per-window counts armed.
TEST(Determinism, GoldenRandom40Lossy) {
  Rng rng(2);
  Scenario sc = make_named_scenario("random:40", rng);
  sc.faults.set_default_loss(0.05);
  SimConfig cfg;
  cfg.sim_seconds = 10.0;
  cfg.seed = 2;
  cfg.sample_interval_seconds = 1.0;
  cfg.metrics_period_seconds = 1.0;
  expect_golden("random40_lossy_2pa-d",
                dump_runs(sc, {Protocol::k2paDistributed}, cfg));
}

// The churn + mobility fuzz repro, replayed with its recorded run settings.
TEST(Determinism, GoldenChurnMobilityRepro) {
  const std::string path =
      std::string(E2EFA_REPRO_DIR) + "/churn-mobility.scn";
  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty()) << "missing " << path;
  const Scenario sc = parse_scenario_text(text, path);
  SimConfig cfg;
  cfg.sim_seconds = 2.0;
  cfg.warmup_seconds = 2.0;
  cfg.seed = 7;
  cfg.metrics_period_seconds = 0.5;
  expect_golden("churn_mobility",
                dump_runs(sc,
                          {Protocol::k2paDistributedCtrl,
                           Protocol::k2paDistributed, Protocol::k80211},
                          cfg));
}

// A scripted relay crash and recovery under elastic transport, with a
// warm-up and both samplers armed. B relays A -> D (which re-routes over C
// while B is down, then returns) and is the only way to E (so D -> E
// suspends and resumes): recoveries, per-epoch shares, warm-up-offset
// windows and the AIMD metrics gauges all land in the dump.
TEST(Determinism, GoldenCrashRecoveryAimd) {
  Scenario sc{"crash-recovery",
              Topology({{0, 0}, {200, 150}, {200, -150}, {400, 0}, {200, 300}},
                       250.0),
              {},
              {}};
  sc.topo.set_labels({"A", "B", "C", "D", "E"});
  sc.flow_specs.push_back(make_routed_flow(sc.topo, 0, 3));
  sc.flow_specs.push_back(make_routed_flow(sc.topo, 3, 4));
  sc.flow_specs.push_back(make_routed_flow(sc.topo, 2, 0));
  sc.transport = TransportKind::kAimd;
  sc.faults.node_down(1, 3.0);
  sc.faults.node_up(1, 6.0);
  SimConfig cfg;
  cfg.sim_seconds = 11.0;
  cfg.warmup_seconds = 1.0;
  cfg.seed = 3;
  cfg.sample_interval_seconds = 1.0;
  cfg.metrics_period_seconds = 1.0;
  expect_golden("crash_recovery_aimd",
                dump_runs(sc,
                          {Protocol::k2paCentralized,
                           Protocol::k2paDistributedCtrl},
                          cfg));
}

// Engine work per transmitted frame, a deterministic count. Ticking every
// backoff slot as its own event cost about 21 events per frame on this
// run; one event per countdown segment brings it to about 2.6. The bound
// keeps that gain without timing anything.
TEST(EventBudget, Scenario2AtMostFourEventsPerFrame) {
  SimConfig cfg;
  cfg.sim_seconds = 30.0;
  cfg.seed = 4;
  const RunResult r = run_scenario(scenario2(), Protocol::k2paCentralized, cfg);
  ASSERT_GT(r.channel.frames_transmitted, 0u);
  const double per_frame = static_cast<double>(r.events_processed) /
                           static_cast<double>(r.channel.frames_transmitted);
  EXPECT_LE(per_frame, 4.0) << r.events_processed << " events for "
                            << r.channel.frames_transmitted << " frames";
}

// Full-field equality, including bitwise-compared doubles, lives in
// run_result_testing.hpp (shared with fault/churn/transport
// tests): determinism means *identical*, not merely close.

TEST(Determinism, SameSeedSameResultAllProtocols) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 2.0;
  cfg.seed = 7;
  cfg.sample_interval_seconds = 0.5;
  cfg.metrics_period_seconds = 0.5;
  for (Protocol p : kAllProtocols) {
    SCOPED_TRACE(to_string(p));
    const RunResult a = run_scenario(sc, p, cfg);
    const RunResult b = run_scenario(sc, p, cfg);
    expect_identical(a, b);
  }
}

// The clique thread budget (SimConfig::clique_threads) parallelizes the
// centralized protocols' clique enumeration and must be invisible in the
// results. random:96 carries enough subflows to cross the store's
// parallel seed threshold.
TEST(Determinism, CliqueThreadsDoNotChangeTheResult) {
  Rng rng(11);
  const Scenario sc = make_named_scenario("random:96", rng);
  SimConfig cfg;
  cfg.sim_seconds = 1.0;
  cfg.seed = 11;
  const RunResult serial = run_scenario(sc, Protocol::k2paCentralized, cfg);
  cfg.clique_threads = 4;
  expect_identical(serial, run_scenario(sc, Protocol::k2paCentralized, cfg));
}

TEST(Determinism, BatchRunnerMatchesSequential) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 2.0;
  cfg.metrics_period_seconds = 0.5;
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};

  std::vector<RunResult> sequential;
  for (std::uint64_t s : seeds) {
    SimConfig c = cfg;
    c.seed = s;
    sequential.push_back(run_scenario(sc, Protocol::k2paCentralized, c));
  }

  for (int jobs : {1, 2, 4}) {
    SCOPED_TRACE(jobs);
    const std::vector<RunResult> batch =
        BatchRunner(jobs).run_seeds(sc, Protocol::k2paCentralized, cfg, seeds);
    ASSERT_EQ(batch.size(), sequential.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      expect_identical(batch[i], sequential[i]);
  }
}

// Packet uids are numbered per run, so a run's uids depend only on its own
// scenario and seed: the same under BatchRunner at any pool size as in a
// sequential loop, where earlier runs in the process used to shift them.
// The queue trace carries each enqueued packet's uid.
std::vector<double> traced_uids(const TraceSink& sink) {
  std::vector<double> uids;
  for (const TraceRecord& r : sink.records())
    if (r.event() == TraceEvent::kQueueEnqueue) uids.push_back(r.v0);
  return uids;
}

TEST(Determinism, PacketUidsArePerRun) {
  Scenario cbr = scenario1();
  Scenario aimd = scenario1();
  aimd.transport = TransportKind::kAimd;  // retransmissions take fresh uids
  SimConfig base;
  base.sim_seconds = 1.0;
  std::vector<BatchRunner::Job> jobs;
  for (const Scenario* sc : {&cbr, &aimd})
    for (std::uint64_t seed : {1, 2}) {
      BatchRunner::Job j;
      j.scenario = sc;
      j.protocol = Protocol::k2paCentralized;
      j.config = base;
      j.config.seed = seed;
      jobs.push_back(j);
    }

  auto traced = [&jobs](std::vector<std::unique_ptr<TraceSink>>& sinks) {
    std::vector<BatchRunner::Job> armed = jobs;
    for (BatchRunner::Job& j : armed) {
      sinks.push_back(std::make_unique<TraceSink>());
      sinks.back()->set_filter(trace_bit(TraceCat::kQueue));
      j.config.trace = sinks.back().get();
    }
    return armed;
  };

  std::vector<std::unique_ptr<TraceSink>> seq_sinks;
  std::vector<std::vector<double>> sequential;
  for (const BatchRunner::Job& j : traced(seq_sinks)) {
    run_scenario(*j.scenario, j.protocol, j.config);
    sequential.push_back(traced_uids(*seq_sinks[sequential.size()]));
    ASSERT_FALSE(sequential.back().empty());
  }
  // Seed 1's CBR run comes first in the loop; its uids start at flow 0's
  // first emission.
  EXPECT_EQ(sequential[0].front(), static_cast<double>((1ull << 32) | 1));

  for (int pool : {1, 4}) {
    SCOPED_TRACE(pool);
    std::vector<std::unique_ptr<TraceSink>> sinks;
    BatchRunner(pool).run(traced(sinks));
    for (std::size_t i = 0; i < jobs.size(); ++i)
      EXPECT_EQ(traced_uids(*sinks[i]), sequential[i]) << "job " << i;
  }
}

// Fault plans (node crashes, link cuts, lossy channels) draw from a
// dedicated RNG stream derived from the run seed, so a faulted run must be
// just as reproducible as a clean one — sequentially and under BatchRunner
// at any thread count.
TEST(Determinism, FaultPlanRunsAreReproducible) {
  Scenario sc = scenario1();
  sc.faults.node_down(2, 0.6);
  sc.faults.node_up(2, 1.2);
  sc.faults.link_down(0, 1, 0.9);
  sc.faults.link_up(0, 1, 1.4);
  sc.faults.set_default_loss(0.05);

  SimConfig cfg;
  cfg.sim_seconds = 2.0;
  cfg.sample_interval_seconds = 0.5;
  cfg.metrics_period_seconds = 0.5;
  const std::vector<std::uint64_t> seeds = {7, 8, 9};

  for (Protocol p : kAllProtocols) {
    SCOPED_TRACE(to_string(p));
    const RunResult a = run_scenario(sc, p, cfg);
    const RunResult b = run_scenario(sc, p, cfg);
    EXPECT_GT(a.channel.frames_faulted, 0u);
    expect_identical(a, b);
  }

  std::vector<RunResult> sequential;
  for (std::uint64_t s : seeds) {
    SimConfig c = cfg;
    c.seed = s;
    sequential.push_back(run_scenario(sc, Protocol::k2paCentralized, c));
  }
  for (int jobs : {1, 2, 4}) {
    SCOPED_TRACE(jobs);
    const std::vector<RunResult> batch =
        BatchRunner(jobs).run_seeds(sc, Protocol::k2paCentralized, cfg, seeds);
    ASSERT_EQ(batch.size(), sequential.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      expect_identical(batch[i], sequential[i]);
  }
}

TEST(Determinism, BatchRunnerProtocolFanout) {
  const Scenario sc = scenario1();
  SimConfig cfg;
  cfg.sim_seconds = 1.0;
  const std::vector<Protocol> protos(std::begin(kAllProtocols),
                                     std::end(kAllProtocols));
  const std::vector<RunResult> batch =
      BatchRunner(0).run_protocols(sc, protos, cfg);  // 0 = hardware threads
  ASSERT_EQ(batch.size(), protos.size());
  for (std::size_t i = 0; i < protos.size(); ++i) {
    SCOPED_TRACE(to_string(protos[i]));
    expect_identical(batch[i], run_scenario(sc, protos[i], cfg));
  }
}

}  // namespace
}  // namespace e2efa
