#include "net/runner.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <set>

#include "alloc/centralized.hpp"
#include "alloc/distributed.hpp"
#include "check/check.hpp"
#include "alloc/maxmin.hpp"
#include "alloc/two_tier.hpp"
#include "contention/clique_store.hpp"
#include "contention/contention_graph.hpp"
#include "ctrl/admission.hpp"
#include "ctrl/agent.hpp"
#include "net/mobility.hpp"
#include "net/node_stack.hpp"
#include "route/routing.hpp"
#include "sched/fifo_queue.hpp"
#include "sched/tag_scheduler.hpp"
#include "sim/simulator.hpp"
#include "traffic/cbr_source.hpp"
#include "transport/ack_plane.hpp"
#include "transport/aimd.hpp"
#include "transport/bbr.hpp"
#include "util/assert.hpp"

namespace e2efa {

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::k80211: return "802.11";
    case Protocol::kTwoTier: return "two-tier";
    case Protocol::kTwoTierBalanced: return "two-tier-mm";
    case Protocol::k2paCentralized: return "2PA-C";
    case Protocol::k2paDistributed: return "2PA-D";
    case Protocol::kMaxMin: return "maxmin";
    case Protocol::k2paStaticCw: return "2PA-staticCW";
    case Protocol::k2paDistributedCtrl: return "2PA-Dctrl";
  }
  return "?";
}

double RunResult::measured_subflow_share(int s, std::int64_t bps, int payload_bytes) const {
  E2EFA_ASSERT(s >= 0 && s < static_cast<int>(delivered_per_subflow.size()));
  const double bits =
      static_cast<double>(delivered_per_subflow[static_cast<std::size_t>(s)]) * 8.0 *
      payload_bytes;
  return bits / (sim_seconds * static_cast<double>(bps));
}

namespace {

/// Poll period of the in-band re-convergence probe.
constexpr TimeNs kReconvPeriod = 100 * kMillisecond;

/// Phase-1 dispatch for an allocating protocol over an arbitrary flow set
/// and its contention graph. For the centralized family a solve whose
/// basic-share floors had to be relaxed (min_relaxation < 1: the clique rows
/// cannot carry every flow's basic share) reports kInfeasible — the
/// distributed form keeps its by-design local relaxations. The in-band
/// protocol's oracle runs the identical distributed algorithm with the
/// neighbor exchange restricted to `mask`, the epoch's surviving topology (a
/// dead neighbor's HELLOs go unheard); every other caller passes null.
LpStatus compute_allocation(Protocol proto, const Topology& topo, const FlowSet& flows,
                            const ContentionGraph& graph, const TopologyMask* mask,
                            const std::vector<std::vector<int>>* cliques,
                            Allocation* out) {
  auto floored = [out](const auto& r) {
    if (r.status != LpStatus::kOptimal) return r.status;
    if (r.min_relaxation < 1.0 - 1e-9) return LpStatus::kInfeasible;
    *out = r.allocation;
    return LpStatus::kOptimal;
  };
  switch (proto) {
    case Protocol::kTwoTier:
      return floored(two_tier_allocate(graph, cliques));
    case Protocol::k2paCentralized:
    case Protocol::k2paStaticCw:
      return floored(centralized_allocate(graph, cliques));
    case Protocol::kTwoTierBalanced:
      *out = maxmin_allocate_subflows(graph, {}, cliques).allocation;
      break;
    case Protocol::kMaxMin:
      *out = maxmin_allocate(graph, {}, cliques).allocation;
      break;
    case Protocol::k2paDistributed:
    case Protocol::k2paDistributedCtrl:
      *out = distributed_allocate(topo, flows, graph, mask).allocation;
      break;
    case Protocol::k80211:
      break;
  }
  return LpStatus::kOptimal;
}

/// Global-index allocation for one epoch: flows inactive in the epoch get
/// share 0 (lanes get kInactiveShare). Indices are over the *sim* flow set
/// (provisioned flows plus repair-route variants).
struct EpochAllocation {
  bool has_target = false;
  LpStatus status = LpStatus::kOptimal;
  std::vector<double> flow_share;     ///< Sim flow ids; 0 when inactive.
  std::vector<double> subflow_share;  ///< Sim subflow ids; kInactiveShare
                                      ///< when inactive.
};

EpochAllocation allocate_epoch(Protocol proto, const Topology& topo,
                               const FlowSet& all_flows,
                               const std::vector<FlowId>& active, double start_s,
                               const TopologyMask* mask, CheckContext* check,
                               CliqueStore* store, Profiler* profile) {
  EpochAllocation out;
  out.flow_share.assign(static_cast<std::size_t>(all_flows.flow_count()), 0.0);
  out.subflow_share.assign(static_cast<std::size_t>(all_flows.subflow_count()),
                           kInactiveShare);
  if (active.empty() || proto == Protocol::k80211) return out;

  std::vector<Flow> specs;
  specs.reserve(active.size());
  for (FlowId f : active) specs.push_back(all_flows.flow(f));
  FlowSet sub(topo, specs);

  // Incremental clique path (centralized family): the store maintains the
  // maximal cliques of the *sim* contention graph restricted to the
  // epoch's active subflows, so an epoch boundary re-derives only the
  // cliques around the flows that toggled. The epoch's subgraph is
  // vertex-for-vertex the graph over `sub` (contention is pure geometry of
  // the unchanged endpoints), so relabeling the snapshot into sub ids and
  // re-canonicalizing yields exactly what from-scratch enumeration on
  // `sub` would — downstream LP rows are bit-identical.
  std::vector<std::vector<int>> epoch_cliques;
  const std::vector<std::vector<int>>* cliques = nullptr;
  if (store != nullptr) {
    Profiler::Scope prof(profile, Profiler::Phase::kClique);
    std::vector<char> want(static_cast<std::size_t>(all_flows.subflow_count()), 0);
    std::vector<int> sub_id(static_cast<std::size_t>(all_flows.subflow_count()), -1);
    for (std::size_t i = 0; i < active.size(); ++i) {
      const FlowId g = active[i];
      for (int h = 0; h < all_flows.flow(g).length(); ++h) {
        const int full = all_flows.subflow_index(g, h);
        want[static_cast<std::size_t>(full)] = 1;
        sub_id[static_cast<std::size_t>(full)] =
            sub.subflow_index(static_cast<FlowId>(i), h);
      }
    }
    store->set_active(want);
    epoch_cliques = store->cliques();
    for (auto& c : epoch_cliques) {
      for (int& v : c) v = sub_id[static_cast<std::size_t>(v)];
      std::sort(c.begin(), c.end());
    }
    std::sort(epoch_cliques.begin(), epoch_cliques.end());
    cliques = &epoch_cliques;
  }

  Allocation a;
  {
    Profiler::Scope prof(profile, Profiler::Phase::kSolve);
    const ContentionGraph graph(topo, sub);
    out.status = compute_allocation(proto, topo, sub, graph, mask, cliques, &a);
    E2EFA_ASSERT_MSG(out.status == LpStatus::kOptimal,
                     "phase-1 allocation infeasible: basic shares exceed clique capacity");
    out.has_target = true;
    if (check != nullptr) {
      // Post-solve oracle. Only centralized 2PA *rejects* solves whose
      // flow-level basic-share floors had to be relaxed, so only it promises
      // the floor (two-tier floors per-subflow shares — the end-to-end gap
      // is the paper's critique of it — and the distributed variants keep
      // their by-design local relaxations); everything else is held to
      // clique feasibility alone.
      const bool expect_floor = proto == Protocol::k2paCentralized ||
                                proto == Protocol::k2paStaticCw;
      // The distributed family's per-source local solves may mildly
      // oversubscribe a clique (partial knowledge); they get the documented
      // envelope instead of the strict bound.
      const bool strict_clique = proto != Protocol::k2paDistributed &&
                                 proto != Protocol::k2paDistributedCtrl;
      check->check_allocation(graph, a, expect_floor, strict_clique, start_s);
    }
  }
  for (std::size_t i = 0; i < active.size(); ++i) {
    const FlowId g = active[i];
    out.flow_share[static_cast<std::size_t>(g)] = a.flow_share[i];
    for (int h = 0; h < all_flows.flow(g).length(); ++h) {
      out.subflow_share[static_cast<std::size_t>(all_flows.subflow_index(g, h))] =
          a.subflow_share[static_cast<std::size_t>(sub.subflow_index(static_cast<FlowId>(i), h))];
    }
  }
  return out;
}

/// True when every link of `path` (and so every node: link_alive checks
/// both endpoints) survives under `mask`.
bool path_alive(const std::vector<NodeId>& path, const TopologyMask& mask) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    if (!mask.link_alive(path[i], path[i + 1])) return false;
  return true;
}

/// Per-entry increase since the previous call (the first call counts from
/// zero). Epoch goodput, sample windows and the metrics sampler each keep
/// one.
template <typename T>
class DeltaCursor {
 public:
  std::vector<T> advance(const std::vector<T>& now) {
    prev_.resize(now.size(), T{});
    std::vector<T> delta(now.size());
    for (std::size_t i = 0; i < now.size(); ++i) delta[i] = now[i] - prev_[i];
    prev_ = now;
    return delta;
  }

 private:
  std::vector<T> prev_;
};

// ---- Stage `plan`: everything fixed before any solve. ----

struct Plan {
  /// The effective fault schedule: scripted faults plus whatever link churn
  /// the mobility walks compile down to.
  FaultPlan faults;
  /// The scenario's own flows ("logical" flows: what the caller asked for
  /// and what the RunResult reports on).
  FlowSet logical;
  /// The sim flow set: one flow per (logical flow, route variant). All
  /// provisioned variants come first, so sim flow/subflow ids are a prefix
  /// extension of the logical ids (fault-free runs: identical sets).
  FlowSet flows;
  bool dynamic = false;                ///< The scenario carries activity windows.
  std::vector<FlowActivity> activity;  ///< Per logical flow.
  double total_s = 0.0;                ///< Warm-up plus measured seconds.
  TimeNs horizon = 0;
  /// Epoch starts: 0, activity changes and fault event times.
  std::vector<double> boundaries;
  std::vector<TopologyMask> masks;     ///< Surviving topology per epoch.
  std::vector<FlowId> logical_of;      ///< Sim flow -> logical flow.
  std::vector<std::vector<FlowId>> sim_flow_of;  ///< [logical][variant] -> sim.
  /// active_of[e][f]: sim flow carrying logical flow f in epoch e (-1 when
  /// suspended — the destination is unreachable under the epoch's mask).
  std::vector<std::vector<FlowId>> active_of;

  FlowId flow_count() const { return logical.flow_count(); }
  int epoch_count() const { return static_cast<int>(boundaries.size()); }
  /// The epoch in force at t_s.
  std::size_t epoch_at(double t_s) const {
    const auto it = std::upper_bound(boundaries.begin(), boundaries.end(), t_s + 1e-12);
    return static_cast<std::size_t>(it - boundaries.begin()) - 1;
  }
};

Plan make_plan(const Scenario& sc, const SimConfig& cfg) {
  // Structural validation up front, with messages naming the actual defect
  // (FlowSet would reject these too, but less helpfully).
  for (const Flow& spec : sc.flow_specs) {
    E2EFA_ASSERT_MSG(spec.path.size() >= 2, "flow path needs at least two nodes");
    E2EFA_ASSERT_MSG(spec.path.front() != spec.path.back(),
                     "flow source equals destination");
  }
  const double total_s = cfg.warmup_seconds + cfg.sim_seconds;
  E2EFA_ASSERT_MSG(seconds_fit_time_ns(total_s),
                   "warmup + sim seconds do not fit the simulated clock");
  // With no mobility this is an exact copy of sc.faults, so fault-free and
  // scripted-fault runs are untouched.
  FaultPlan faults = sc.faults;
  if (!sc.mobility.empty()) compile_mobility(sc.topo, sc.mobility, total_s, faults);
  faults.validate(sc.topo.node_count());

  FlowSet logical(sc.topo, sc.flow_specs);
  const FlowId F = logical.flow_count();
  const bool dynamic = !sc.activity.empty();
  E2EFA_ASSERT_MSG(!dynamic || static_cast<FlowId>(sc.activity.size()) == F,
                   "one FlowActivity per flow required");
  std::vector<FlowActivity> activity =
      dynamic ? sc.activity
              : std::vector<FlowActivity>(static_cast<std::size_t>(F),
                                          FlowActivity{0.0, 1e300});

  // ---- Epoch boundaries: activity changes ∪ fault event times. ----
  std::set<double> boundary_set{0.0};
  for (const FlowActivity& w : activity) {
    E2EFA_ASSERT_MSG(w.start_s >= 0.0 && w.stop_s > w.start_s, "bad activity window");
    if (w.start_s > 0.0 && w.start_s < total_s) boundary_set.insert(w.start_s);
    if (w.stop_s > 0.0 && w.stop_s < total_s) boundary_set.insert(w.stop_s);
  }
  for (double t : faults.event_times()) {
    // Events at t == 0 fold into the initial mask; events past the horizon
    // never fire.
    if (t > 0.0 && t < total_s) boundary_set.insert(t);
  }
  std::vector<double> boundaries(boundary_set.begin(), boundary_set.end());
  const std::size_t E = boundaries.size();

  // ---- Per-epoch surviving topology and route repair. ----
  std::vector<TopologyMask> masks;
  masks.reserve(E);
  for (double t : boundaries) masks.push_back(faults.mask_at(t, sc.topo.node_count()));

  // Route variants per logical flow; variant 0 is the provisioned path.
  // Repair keeps the provisioned route whenever it is still alive (route
  // stability) and otherwise re-runs min-hop routing on the surviving graph.
  std::vector<std::vector<std::vector<NodeId>>> variants(static_cast<std::size_t>(F));
  for (FlowId f = 0; f < F; ++f)
    variants[static_cast<std::size_t>(f)].push_back(logical.flow(f).path);
  // epoch_variant[e][f]: variant index active in epoch e, -1 = suspended.
  std::vector<std::vector<int>> epoch_variant(
      E, std::vector<int>(static_cast<std::size_t>(F), 0));
  for (std::size_t e = 0; e < E; ++e) {
    const TopologyMask& mask = masks[e];
    if (mask.all_up()) continue;  // everything on its provisioned route
    for (FlowId f = 0; f < F; ++f) {
      auto& vars = variants[static_cast<std::size_t>(f)];
      int& chosen = epoch_variant[e][static_cast<std::size_t>(f)];
      if (path_alive(vars[0], mask)) continue;
      auto repaired = shortest_path(sc.topo, vars[0].front(), vars[0].back(), mask);
      if (!repaired.has_value()) {
        chosen = -1;
        continue;
      }
      auto it = std::find(vars.begin(), vars.end(), *repaired);
      if (it == vars.end()) {
        vars.push_back(std::move(*repaired));
        it = vars.end() - 1;
      }
      chosen = static_cast<int>(it - vars.begin());
    }
  }

  std::vector<Flow> sim_specs = logical.flows();
  std::vector<FlowId> logical_of(static_cast<std::size_t>(F));
  std::iota(logical_of.begin(), logical_of.end(), 0);
  std::vector<std::vector<FlowId>> sim_flow_of(static_cast<std::size_t>(F));
  for (FlowId f = 0; f < F; ++f) {
    const auto& vars = variants[static_cast<std::size_t>(f)];
    auto& ids = sim_flow_of[static_cast<std::size_t>(f)];
    ids.push_back(f);
    for (std::size_t v = 1; v < vars.size(); ++v) {
      Flow repaired;
      repaired.path = vars[v];
      repaired.weight = logical.flow(f).weight;
      ids.push_back(static_cast<FlowId>(sim_specs.size()));
      sim_specs.push_back(std::move(repaired));
      logical_of.push_back(f);
    }
  }

  std::vector<std::vector<FlowId>> active_of(
      E, std::vector<FlowId>(static_cast<std::size_t>(F)));
  for (std::size_t e = 0; e < E; ++e) {
    for (FlowId f = 0; f < F; ++f) {
      const int v = epoch_variant[e][static_cast<std::size_t>(f)];
      active_of[e][static_cast<std::size_t>(f)] =
          v < 0 ? -1 : sim_flow_of[static_cast<std::size_t>(f)][static_cast<std::size_t>(v)];
    }
  }

  return Plan{std::move(faults),        std::move(logical),
              FlowSet(sc.topo, std::move(sim_specs)),
              dynamic,                  std::move(activity),
              total_s,                  from_seconds(total_s),
              std::move(boundaries),    std::move(masks),
              std::move(logical_of),    std::move(sim_flow_of),
              std::move(active_of)};
}

/// Latches the run parameters into the invariant oracles before any hook
/// can fire (the phase-1 post-solve checks and every packet-sim hook).
void begin_check(CheckContext& check, const Scenario& sc, Protocol proto,
                 const SimConfig& cfg, const FlowSet& flows) {
  CheckRunInfo info;
  info.node_count = sc.topo.node_count();
  info.cw_min = cfg.cw_min;
  info.use_rts_cts = cfg.use_rts_cts;
  info.scaled_cw = proto == Protocol::k2paStaticCw;
  info.queue_capacity = cfg.queue_capacity;
  info.transport_dupack_threshold = kDupackThreshold;
  info.subflows.resize(static_cast<std::size_t>(flows.subflow_count()));
  for (int s = 0; s < flows.subflow_count(); ++s) {
    const Subflow& sf = flows.subflow(s);
    CheckRunInfo::SubflowInfo& m = info.subflows[static_cast<std::size_t>(s)];
    m.flow = sf.flow;
    m.hop = sf.hop;
    m.src = sf.src;
    m.dst = sf.dst;
    m.last_hop = sf.hop + 1 >= flows.flow(sf.flow).length();
    m.prev_subflow = sf.hop > 0 ? flows.subflow_index(sf.flow, sf.hop - 1) : -1;
  }
  check.begin_run(info);
}

// ---- Stage `admit`: admission control over open-loop arrivals. ----
//
// A flow whose window starts mid-run is a *candidate*: it enters only if
// every clique its subflows touch keeps all admitted flows' basic shares
// feasible (Ganesan's clique bound). The founding population (start_s == 0)
// is the scenario's own responsibility. Decisions are made in arrival order
// against the flows admitted so far, on provisioned routes; the distributed
// protocols use the distributed gate (per-node partial knowledge under the
// arrival instant's mask — as strict or stricter than the oracle), the
// centralized family the centralized twin, and plain 802.11 admits
// everything (it allocates nothing). Returns the per-logical-flow verdict.
std::vector<char> admit(const Scenario& sc, Protocol proto, const Plan& plan,
                        CheckContext* check,
                        std::vector<RunResult::Admission>* records) {
  const FlowId F = plan.flow_count();
  std::vector<char> admitted(static_cast<std::size_t>(F), 1);
  if (!plan.dynamic || proto == Protocol::k80211) return admitted;
  std::vector<std::pair<double, FlowId>> arrivals;
  for (FlowId f = 0; f < F; ++f) {
    const double t = plan.activity[static_cast<std::size_t>(f)].start_s;
    if (t > 0.0 && t < plan.total_s) arrivals.emplace_back(t, f);
  }
  if (arrivals.empty()) return admitted;
  std::sort(arrivals.begin(), arrivals.end());
  const ContentionGraph gate_graph(sc.topo, plan.logical);
  const bool dist_gate = proto == Protocol::k2paDistributed ||
                         proto == Protocol::k2paDistributedCtrl;
  for (const auto& [t, f] : arrivals) {
    std::vector<char> present(static_cast<std::size_t>(F), 0);
    for (FlowId j = 0; j < F; ++j) {
      if (j == f || !admitted[static_cast<std::size_t>(j)]) continue;
      const FlowActivity& w = plan.activity[static_cast<std::size_t>(j)];
      if (w.start_s <= t && t < w.stop_s) present[static_cast<std::size_t>(j)] = 1;
    }
    AdmissionDecision d;
    if (dist_gate) {
      const TopologyMask gate_mask = plan.faults.mask_at(t, sc.topo.node_count());
      d = admission_check_distributed(sc.topo, plan.logical, gate_graph, present, f,
                                      gate_mask.all_up() ? nullptr : &gate_mask);
    } else {
      d = admission_check_centralized(plan.logical, gate_graph, present, f);
    }
    admitted[static_cast<std::size_t>(f)] = d.admitted ? 1 : 0;
    records->push_back({f, t, d.admitted, static_cast<int>(d.reason), d.worst_load, -1});
    if (check != nullptr)
      check->on_admission(f, d.admitted, d.worst_load, dist_gate, from_seconds(t));
  }
  return admitted;
}

// ---- Stage `allocate`: per-epoch phase-1 allocations. ----

struct Allocations {
  std::vector<EpochAllocation> epochs;
  std::vector<std::vector<FlowId>> active_flows;  ///< [e]: sim flows solved for.
  /// logical_share[e][f]: logical flow f's share in epoch e (0 when the flow
  /// is inactive or suspended there, or when nothing is allocated).
  std::vector<std::vector<double>> logical_share;
};

/// Solves every epoch over its reachable active flows. For the in-band
/// protocol this allocation is the *oracle*: the sim's AllocAgents must
/// converge to it on their own, so it is computed against the epoch's
/// surviving topology but never pushed into the schedulers.
Allocations allocate(const Scenario& sc, Protocol proto, const SimConfig& cfg,
                     const Plan& plan, const std::vector<char>& admitted) {
  const bool dctrl = proto == Protocol::k2paDistributedCtrl;
  // The centralized family solves over global cliques; maintain them
  // incrementally across epochs (the distributed variants enumerate
  // per-node local cliques instead, which are already neighborhood-sized).
  const bool centralized_family =
      proto == Protocol::kTwoTier || proto == Protocol::kTwoTierBalanced ||
      proto == Protocol::kMaxMin || proto == Protocol::k2paCentralized ||
      proto == Protocol::k2paStaticCw;
  std::unique_ptr<ContentionGraph> sim_graph;
  std::unique_ptr<CliqueStore> clique_store;
  if (centralized_family) {
    sim_graph = std::make_unique<ContentionGraph>(sc.topo, plan.flows);
    // Start all-inactive: epoch 0's set_active seeds the first enumeration.
    clique_store = std::make_unique<CliqueStore>(
        *sim_graph,
        std::vector<char>(static_cast<std::size_t>(plan.flows.subflow_count()), 0));
    // The store's parallel path is id-identical to serial, so the thread
    // budget never changes results (see CliqueStore::set_threads).
    clique_store->set_threads(cfg.clique_threads);
  }
  const FlowId F = plan.flow_count();
  Allocations out;
  for (int e = 0; e < plan.epoch_count(); ++e) {
    const std::size_t ue = static_cast<std::size_t>(e);
    const double t = plan.boundaries[ue];
    std::vector<FlowId> active;
    for (FlowId f = 0; f < F; ++f) {
      const FlowActivity& w = plan.activity[static_cast<std::size_t>(f)];
      if (!admitted[static_cast<std::size_t>(f)] || !(w.start_s <= t && t < w.stop_s))
        continue;
      const FlowId g = plan.active_of[ue][static_cast<std::size_t>(f)];
      if (g >= 0) active.push_back(g);
    }
    out.epochs.push_back(allocate_epoch(proto, sc.topo, plan.flows, active, t,
                                        dctrl ? &plan.masks[ue] : nullptr, cfg.check,
                                        clique_store.get(), cfg.profile));
    out.active_flows.push_back(std::move(active));
    const EpochAllocation& epoch = out.epochs.back();
    std::vector<double> share(static_cast<std::size_t>(F), 0.0);
    for (FlowId f = 0; f < F; ++f) {
      const FlowId g = plan.active_of[ue][static_cast<std::size_t>(f)];
      if (g >= 0 && epoch.has_target)
        share[static_cast<std::size_t>(f)] = epoch.flow_share[static_cast<std::size_t>(g)];
    }
    out.logical_share.push_back(std::move(share));
  }
  return out;
}

// ---- Stages `wire`, `observe` and `collect`: the packet simulation. ----

/// Everything the packet simulation's scheduled events and listeners touch.
/// run_scenario owns the one instance; events capture `this`.
struct RunState {
  RunState(const Scenario& sc_, Protocol proto_, const SimConfig& cfg_,
           const Plan& plan_, const Allocations& alloc_)
      : sc(sc_), proto(proto_), cfg(cfg_), plan(plan_), alloc(alloc_),
        F(plan_.flow_count()), E(plan_.epoch_count()),
        dctrl(proto_ == Protocol::k2paDistributedCtrl),
        elastic(sc_.transport != TransportKind::kCbr),
        trace(cfg_.trace), check(cfg_.check),
        channel(sim, sc_.topo, cfg_.channel_bps), stats(plan_.flows), master(cfg_.seed),
        tag_scheds(static_cast<std::size_t>(sc_.topo.node_count()), nullptr) {
    stats.set_warmup(from_seconds(cfg.warmup_seconds));
  }

  void trace_epoch(int e, TimeNs t) {
    if (trace == nullptr) return;
    const EpochAllocation& epoch = alloc.epochs[static_cast<std::size_t>(e)];
    trace->record<TraceCat::kLp>(t, TraceEvent::kLpResolve, -1, e,
                                 static_cast<std::int32_t>(epoch.status),
                                 plan.boundaries[static_cast<std::size_t>(e)]);
    for (FlowId f = 0; f < F; ++f)
      trace->record<TraceCat::kLp>(
          t, TraceEvent::kFlowTarget, -1, f, -1,
          alloc.logical_share[static_cast<std::size_t>(e)][static_cast<std::size_t>(f)]);
  }

  std::vector<std::int64_t> logical_e2e() const {
    std::vector<std::int64_t> total(static_cast<std::size_t>(F), 0);
    for (FlowId g = 0; g < plan.flows.flow_count(); ++g)
      total[static_cast<std::size_t>(plan.logical_of[static_cast<std::size_t>(g)])] +=
          stats.end_to_end(g);
    return total;
  }

  /// Activity bitmap over sim subflows for epoch e (what the agents may
  /// hear: inactive subflows carry no traffic and leave every Own set).
  std::vector<char> active_subflows(int e) const {
    std::vector<char> b(static_cast<std::size_t>(plan.flows.subflow_count()), 0);
    for (FlowId g : alloc.active_flows[static_cast<std::size_t>(e)])
      for (int h = 0; h < plan.flows.flow(g).length(); ++h)
        b[static_cast<std::size_t>(plan.flows.subflow_index(g, h))] = 1;
    return b;
  }

  /// Per-sim-flow activity bitmap for epoch e (the admission oracle's view).
  std::vector<char> active_sim_flows(int e) const {
    std::vector<char> b(static_cast<std::size_t>(plan.flows.flow_count()), 0);
    for (FlowId g : alloc.active_flows[static_cast<std::size_t>(e)])
      b[static_cast<std::size_t>(g)] = 1;
    return b;
  }

  /// Phase 2's components in dependency order: channel and its observers,
  /// the epoch-0 trace, fault state, per-node stacks, the in-band control
  /// plane, then the traffic sources (constructed, not yet started).
  void wire() {
    // Observability: one sink pointer threaded through every layer. Null —
    // the default — keeps all hot paths on their pre-observability branch.
    channel.set_trace(trace);
    channel.set_check(check);
    channel.set_profiler(cfg.profile);
    if (trace != nullptr) {
      trace->record<TraceCat::kMeta>(
          0, TraceEvent::kRunMeta, -1, sc.topo.node_count(), F,
          static_cast<double>(cfg.channel_bps), static_cast<double>(cfg.payload_bytes));
      for (int s = 0; s < plan.flows.subflow_count(); ++s) {
        const Subflow& sf = plan.flows.subflow(s);
        trace->record<TraceCat::kMeta>(
            0, TraceEvent::kSubflowMeta, static_cast<std::int16_t>(sf.src), s,
            plan.logical_of[static_cast<std::size_t>(sf.flow)], static_cast<double>(sf.hop));
      }
    }
    trace_epoch(0, 0);

    // Live fault state for the PHY. Installed only when the plan does
    // anything, so fault-free runs keep the exact pre-fault channel path.
    if (!plan.faults.empty()) {
      faults = std::make_unique<FaultRuntime>(plan.faults, sc.topo.node_count(), cfg.seed);
      channel.set_faults(faults.get());
    }
    wire_stacks();
    if (check != nullptr) check->note_active_flows(active_sim_flows(0));
    if (dctrl) wire_agents();
    wire_sources();
  }

  void wire_stacks() {
    stacks.reserve(static_cast<std::size_t>(sc.topo.node_count()));
    for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
      std::unique_ptr<TxQueue> queue;
      std::unique_ptr<BackoffPolicy> backoff;
      TagScheduler* tags = nullptr;
      if (proto == Protocol::k80211) {
        auto fifo = std::make_unique<FifoQueue>(cfg.queue_capacity);
        fifo->set_check(check, n);
        queue = std::move(fifo);
        backoff = std::make_unique<BebBackoff>(cfg.cw_min);
      } else {
        std::vector<TagScheduler::SubflowConfig> lanes;
        // In-band runs must not start from the oracle's answer: lanes begin
        // at the inactive floor and the agents bootstrap them locally.
        for (int s : plan.flows.sourced_at(n))
          lanes.push_back(
              {s, dctrl ? kInactiveShare
                        : alloc.epochs.front().subflow_share[static_cast<std::size_t>(s)]});
        auto sched = std::make_unique<TagScheduler>(std::move(lanes), cfg.queue_capacity,
                                                    cfg.channel_bps, cfg.alpha);
        sched->set_trace(trace, static_cast<std::int16_t>(n));
        sched->set_check(check, n);
        tag_scheds[static_cast<std::size_t>(n)] = sched.get();
        if (proto == Protocol::k2paStaticCw) {
          // Ablation: weighted queueing, but no tag feedback over the air.
          backoff = std::make_unique<ScaledCwBackoff>(
              cfg.cw_min, std::min(1.0, std::max(sched->node_share(), 1e-3)));
        } else {
          tags = sched.get();
          backoff = std::make_unique<TagBackoff>(cfg.cw_min, *sched);
        }
        queue = std::move(sched);
      }
      stacks.push_back(std::make_unique<NodeStack>(sim, channel, n, plan.flows, stats,
                                                   cfg.use_rts_cts, std::move(queue),
                                                   std::move(backoff), master.split(), tags));
      stacks.back()->set_trace(trace);
      stacks.back()->set_check(check);
    }
  }

  /// In-band control plane: one AllocAgent per node, wired into its MAC.
  /// Only k2paDistributedCtrl gets here (including the extra RNG splits), so
  /// every other protocol's trajectory is untouched.
  void wire_agents() {
    ctrl_graph = std::make_unique<ContentionGraph>(sc.topo, plan.flows);
    Rng ctrl_master = master.split();
    for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
      agents.push_back(std::make_unique<AllocAgent>(
          sim, stacks[static_cast<std::size_t>(n)]->mac(), sc.topo, plan.flows,
          *ctrl_graph, tag_scheds[static_cast<std::size_t>(n)], ctrl_master.split(),
          trace));
      agents.back()->set_check(check);
      agents.back()->set_profiler(cfg.profile);
    }
    const std::vector<char> b0 = active_subflows(0);
    for (auto& a : agents) a->note_active_set(b0);
    for (auto& a : agents) a->start();
  }

  /// One traffic source at each flow's origin. Packets of a suspended flow
  /// are suppressed at the source (and counted): there is no route to put
  /// them on.
  ///
  /// Elastic runs additionally stand up the ACK plane: every node may relay
  /// returning kTransAck frames, every stack's last-hop deliveries route
  /// through the plane's freshness gate, and each flow's controller hangs
  /// off its provisioned path. CBR runs construct none of this — their
  /// trajectory (and RNG stream) is byte-identical to pre-transport builds.
  void wire_sources() {
    if (elastic) {
      ack = std::make_unique<AckPlane>(sim, trace, check);
      for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
        NodeStack* stack = stacks[static_cast<std::size_t>(n)].get();
        ack->register_mac(n, &stack->mac());
        stack->mac().set_transport_listener(
            [a = ack.get(), n](const Frame& fr) { a->on_ctrl_frame(n, fr); });
        // The plane keys state by *logical* flow: a repaired route variant's
        // deliveries fold onto the same cumulative-ack stream.
        stack->set_transport_sink([this](const Packet& p, TimeNs now) {
          Packet q = p;
          q.flow = plan.logical_of[static_cast<std::size_t>(p.flow)];
          return ack->on_final_delivery(q, now);
        });
      }
    }
    for (FlowId f = 0; f < F; ++f) {
      const Flow& flow = plan.logical.flow(f);
      NodeStack* stack = stacks[static_cast<std::size_t>(flow.source())].get();
      // Packet uids are per run: flow f's n-th emission (retransmissions
      // included) is (f + 1) << 32 | n, unique in the run and independent of
      // every other run in the process.
      const std::uint64_t uid_base = (static_cast<std::uint64_t>(f) + 1) << 32;
      auto emit = [this, stack, f, uid_base, emitted = std::uint64_t{0}](Packet p) mutable {
        p.uid = uid_base | ++emitted;
        const FlowId g = active_now[static_cast<std::size_t>(f)];
        if (g < 0) {
          stats.count_suspended(f);
          return;
        }
        stack->inject_from_source(p, g);
      };
      std::unique_ptr<TransportSource> src;
      if (!elastic) {
        src = std::make_unique<CbrTransport>(sim, cfg.cbr_pps, cfg.payload_bytes,
                                             std::move(emit), master);
      } else if (sc.transport == TransportKind::kAimd) {
        src = std::make_unique<AimdTransport>(sim, cfg.payload_bytes, std::move(emit), master,
                                              f, flow.source(), trace, check);
      } else {
        src = std::make_unique<BbrTransport>(sim, cfg.payload_bytes, std::move(emit), master,
                                             f, flow.source(), trace, check);
      }
      if (elastic) ack->add_flow(f, flow.path, src.get());
      sources.push_back(std::move(src));
    }
  }

  /// Schedules everything that happens at fixed instants, in the order
  /// same-instant events must fire: epoch boundaries, source starts, the
  /// re-convergence probe, sample windows, metrics samples. Also arms the
  /// delivery listener. Nothing here perturbs the trajectory except the
  /// epoch events and the source starts themselves.
  void observe(const std::vector<char>& admitted,
               const std::vector<RunResult::Admission>& admissions) {
    // In-band ADMIT rounds: at each admission-gated arrival's boundary the
    // candidate's source runs the hop-by-hop ADMIT_REQ/ADMIT_RSP round over
    // the live control plane. The verdict is diagnostic (the offline gate
    // already decided); RunResult::Admission::inband records what the
    // network itself concluded, for differential comparison.
    inband_at.resize(static_cast<std::size_t>(E));
    inband_sim_flow.assign(admissions.size(), -1);
    if (dctrl) {
      for (std::size_t i = 0; i < admissions.size(); ++i) {
        const double t = admissions[i].at_s;
        const auto it = std::lower_bound(plan.boundaries.begin(), plan.boundaries.end(), t);
        if (it == plan.boundaries.end() || *it != t) continue;
        const std::size_t e = static_cast<std::size_t>(it - plan.boundaries.begin());
        const FlowId f = admissions[i].flow;
        // A suspended candidate still asks along its provisioned route, whose
        // sim flow id is the logical id.
        const FlowId g = plan.active_of[e][static_cast<std::size_t>(f)];
        inband_sim_flow[i] = g >= 0 ? g : f;
        inband_at[e].push_back(i);
      }
    }

    active_now = plan.active_of[0];
    pending_fault_s.assign(static_cast<std::size_t>(F), -1.0);
    for (FlowId f = 0; f < F; ++f)
      if (active_now[static_cast<std::size_t>(f)] < 0)
        pending_fault_s[static_cast<std::size_t>(f)] = 0.0;
    // Recovery detection composed with delivery tracing; both ride the same
    // TrafficStats listener slot.
    const bool want_recovery = !plan.faults.events().empty();
    if (want_recovery || trace != nullptr)
      stats.set_delivery_listener([this, want_recovery](FlowId g, TimeNs now, TimeNs delay) {
        on_delivery(g, now, delay, want_recovery);
      });

    // Scheduled at setup, so each boundary precedes all same-instant packet
    // events.
    for (int e = 1; e < E; ++e)
      sim.schedule_at(from_seconds(plan.boundaries[static_cast<std::size_t>(e)]),
                      [this, e] { on_epoch(e); });

    // Sources start and stop with their activity windows. A rejected
    // arrival's source never starts (the flow offers no traffic); the source
    // object still exists so the RNG stream layout is identical whichever
    // way the gate decided.
    for (FlowId f = 0; f < F; ++f) {
      const FlowActivity& w = plan.activity[static_cast<std::size_t>(f)];
      const TimeNs until =
          std::min(plan.horizon, from_seconds(std::min(w.stop_s, plan.total_s)));
      TransportSource* raw = sources[static_cast<std::size_t>(f)].get();
      if (admitted[static_cast<std::size_t>(f)])
        sim.schedule_at(from_seconds(std::min(w.start_s, plan.total_s)),
                        [raw, until] { raw->start(until); });
    }

    // Re-convergence probe (in-band protocol, multi-epoch runs): pure reads
    // of the applied lane shares on a fixed grid.
    if (dctrl && E > 1) {
      reconv.assign(static_cast<std::size_t>(E), -1.0);
      every(kReconvPeriod, kReconvPeriod, &RunState::probe_reconv);
    }
    // Optional short-term fairness sampling: per-flow end-to-end deliveries
    // per fixed window, starting after the warm-up.
    if (cfg.sample_interval_seconds > 0.0) {
      const TimeNs interval = from_seconds(cfg.sample_interval_seconds);
      E2EFA_ASSERT(interval > 0);
      every(from_seconds(cfg.warmup_seconds) + interval, interval, &RunState::sample_window);
    }
    // Periodic metrics: read at sample instants only, so runs without
    // metrics pay nothing and runs with metrics stay bit-identical (sampling
    // never mutates sim state).
    if (cfg.metrics_period_seconds > 0.0) {
      metrics.period_s = cfg.metrics_period_seconds;
      metrics_period = from_seconds(cfg.metrics_period_seconds);
      E2EFA_ASSERT(metrics_period > 0);
      every(metrics_period, metrics_period, &RunState::sample_metrics);
    }
  }

  /// Runs `sample` at `first`, then every `period` while the next run stays
  /// within the horizon: one event per sample.
  void every(TimeNs first, TimeNs period, void (RunState::*sample)()) {
    sim.schedule_at(first, [this, period, sample] { repeat(period, sample); });
  }
  void repeat(TimeNs period, void (RunState::*sample)()) {
    (this->*sample)();
    if (sim.now() + period <= plan.horizon)
      sim.schedule_in(period, [this, period, sample] { repeat(period, sample); });
  }

  /// One event per later epoch boundary: close the ending epoch's goodput
  /// window, apply the new surviving topology, push the re-converged shares
  /// into the live schedulers, and switch every flow to its epoch route.
  void on_epoch(int e) {
    const std::size_t ue = static_cast<std::size_t>(e);
    epoch_e2e.push_back(epoch_cursor.advance(logical_e2e()));
    if (faults) faults->apply(plan.masks[ue]);
    if (trace != nullptr && !plan.faults.empty())
      trace->record<TraceCat::kFault>(sim.now(), TraceEvent::kFaultEpoch, -1, e, -1,
                                      plan.boundaries[ue]);
    trace_epoch(e, sim.now());
    // The admission/stale-rate oracle learns the new population before the
    // control plane reacts, so every lane update at or after the boundary is
    // judged against the current flow set.
    if (check != nullptr) check->note_active_flows(active_sim_flows(e));
    if (dctrl) {
      // No oracle push: tell the agents what went (in)active and let the
      // network re-converge through its own HELLO/CONSTRAINT/RATE cycle.
      const std::vector<char> b = active_subflows(e);
      for (auto& a : agents) a->note_active_set(b);
      for (std::size_t i : inband_at[ue]) {
        const FlowId g = inband_sim_flow[i];
        agents[static_cast<std::size_t>(plan.flows.flow(g).source())]->request_admission(g);
      }
    } else {
      const EpochAllocation& epoch = alloc.epochs[ue];
      for (int s = 0; s < plan.flows.subflow_count(); ++s) {
        TagScheduler* sched = tag_scheds[static_cast<std::size_t>(plan.flows.subflow(s).src)];
        if (sched != nullptr) {
          sched->note_time(sim.now());
          sched->update_share(s, epoch.subflow_share[static_cast<std::size_t>(s)]);
        }
      }
    }
    for (FlowId f = 0; f < F; ++f) {
      const std::size_t uf = static_cast<std::size_t>(f);
      const FlowId prev = active_now[uf];
      const FlowId next = plan.active_of[ue][uf];
      if (next == prev) continue;
      active_now[uf] = next;
      // A reroute or suspension is a disruption; a resume keeps the original
      // fault time so the recovery spans the whole outage.
      if (pending_fault_s[uf] < 0.0 && (next < 0 || prev >= 0))
        pending_fault_s[uf] = plan.boundaries[ue];
    }
  }

  /// The first end-to-end delivery on the *current* route of a disrupted
  /// flow heals it — stale in-flight packets on a pre-fault route do not
  /// count.
  void on_delivery(FlowId g, TimeNs now, TimeNs delay, bool want_recovery) {
    const FlowId f = plan.logical_of[static_cast<std::size_t>(g)];
    const std::size_t uf = static_cast<std::size_t>(f);
    if (trace != nullptr)
      trace->record<TraceCat::kFlow>(
          now, TraceEvent::kDelivery,
          static_cast<std::int16_t>(plan.flows.flow(g).destination()), f, g,
          to_seconds(delay));
    if (!want_recovery || pending_fault_s[uf] < 0.0 || active_now[uf] != g) return;
    recoveries.push_back({f, pending_fault_s[uf], to_seconds(now)});
    pending_fault_s[uf] = -1.0;
  }

  /// True when every lane active in epoch e sits within 10% + 0.02 of the
  /// epoch's oracle target.
  bool lanes_converged(std::size_t e) const {
    for (FlowId g : alloc.active_flows[e]) {
      for (int h = 0; h < plan.flows.flow(g).length(); ++h) {
        const int s = plan.flows.subflow_index(g, h);
        const TagScheduler* sched =
            tag_scheds[static_cast<std::size_t>(plan.flows.subflow(s).src)];
        const double target = alloc.epochs[e].subflow_share[static_cast<std::size_t>(s)];
        const double applied = sched != nullptr ? sched->share_of(s) : 0.0;
        if (std::abs(applied - target) > 0.10 * target + 0.02) return false;
      }
    }
    return true;
  }

  /// Records, per epoch, how long the network took to bring every active
  /// lane onto the epoch's oracle target.
  void probe_reconv() {
    const double now_s = to_seconds(sim.now());
    const std::size_t e = plan.epoch_at(now_s);
    if (reconv[e] < 0.0 && lanes_converged(e)) {
      reconv[e] = now_s - plan.boundaries[e];
      if (trace != nullptr)
        trace->record<TraceCat::kCtrl>(sim.now(), TraceEvent::kCtrlReconv, -1,
                                       static_cast<std::int32_t>(e), -1, reconv[e],
                                       plan.boundaries[e]);
    }
  }

  void sample_window() { windows.push_back(window_cursor.advance(logical_e2e())); }

  /// One metrics row: windowed goodput and share-normalized Jain, queue-depth
  /// percentiles, MAC retry rate and channel utilization, plus control-plane
  /// and transport gauges where they exist. Counters are read straight from
  /// the components and summed in node order.
  void sample_metrics() {
    const double period_s = cfg.metrics_period_seconds;
    MetricsSample samp;
    samp.t_s = to_seconds(sim.now());
    const std::vector<std::int64_t> delivered = metrics_cursor.advance(logical_e2e());
    std::vector<double> share(static_cast<std::size_t>(F), 0.0);
    for (FlowId f = 0; f < F; ++f) {
      const double delta = static_cast<double>(delivered[static_cast<std::size_t>(f)]);
      samp.flow_goodput_pps.push_back(delta / period_s);
      share[static_cast<std::size_t>(f)] = delta * 8.0 * cfg.payload_bytes /
                                           (period_s * static_cast<double>(cfg.channel_bps));
    }
    // Share-normalized fairness against the epoch targets in force at the
    // window midpoint; raw rates when there is no allocation (802.11).
    const std::vector<double> normalized = normalized_by(
        share, alloc.logical_share[plan.epoch_at(samp.t_s - 0.5 * period_s)]);
    samp.jain = normalized.empty() ? jain_fairness_index(samp.flow_goodput_pps)
                                   : jain_fairness_index(normalized);

    std::vector<double> depths;
    double timeouts = 0.0, rts = 0.0, data = 0.0;
    for (const auto& stack : stacks) {
      depths.push_back(static_cast<double>(stack->backlog()));
      const DcfMac::Stats& ms = stack->mac().stats();
      timeouts += static_cast<double>(ms.timeouts);
      rts += static_cast<double>(ms.rts_sent);
      data += static_cast<double>(ms.data_sent);
    }
    samp.queue_depth_p50 = percentile(depths, 50.0);
    samp.queue_depth_p95 = percentile(depths, 95.0);
    samp.queue_depth_max = percentile(depths, 100.0);
    double cbytes = 0.0, retx = 0.0, gaps = 0.0;
    for (const auto& agent : agents) {
      const CtrlAgentStats& as = agent->stats();
      cbytes += static_cast<double>(as.ctrl_bytes_sent);
      retx += static_cast<double>(as.retransmits);
      gaps += static_cast<double>(as.seq_gaps);
    }
    const std::vector<double> d = counter_cursor.advance(
        {timeouts, rts + data, static_cast<double>(channel.stats().airtime_ns), cbytes,
         retx, gaps});
    samp.mac_retry_rate = d[1] > 0.0 ? d[0] / d[1] : 0.0;
    samp.channel_utilization = d[2] / static_cast<double>(metrics_period);
    if (dctrl) {
      samp.ctrl_bytes = d[3];
      const double data_bytes = data * static_cast<double>(cfg.payload_bytes);
      samp.ctrl_overhead = data_bytes > 0.0 ? cbytes / data_bytes : 0.0;
      samp.ctrl_retransmits = d[4];
      samp.ctrl_seq_gaps = d[5];
    }
    if (elastic) {
      for (const auto& src : sources) {
        const TransportTelemetry tel = src->telemetry();
        samp.flow_cwnd.push_back(tel.cwnd);
        samp.flow_srtt_s.push_back(tel.srtt_s);
        samp.flow_delivery_pps.push_back(tel.delivery_rate_pps);
      }
    }
    metrics.samples.push_back(std::move(samp));
  }

  /// Per-flow figures aggregate every route variant back onto the scenario
  /// flow; per-subflow figures stay at sim granularity (their logical prefix
  /// matches the scenario's own subflows).
  void collect(RunResult& out) {
    const FlowSet& flows = plan.flows;
    out.delivered_per_subflow.resize(static_cast<std::size_t>(flows.subflow_count()));
    for (int s = 0; s < flows.subflow_count(); ++s) {
      out.delivered_per_subflow[static_cast<std::size_t>(s)] = stats.subflow(s).delivered;
      out.dropped_queue += stats.subflow(s).dropped_queue;
      out.dropped_mac += stats.subflow(s).dropped_mac;
    }
    out.end_to_end_per_flow = logical_e2e();
    out.total_end_to_end = stats.total_end_to_end();
    out.lost_packets = stats.total_lost();
    out.loss_ratio = stats.loss_ratio();
    out.channel = channel.stats();
    out.mean_delay_s.resize(static_cast<std::size_t>(F));
    out.max_delay_s.resize(static_cast<std::size_t>(F));
    for (FlowId f = 0; f < F; ++f) {
      const auto& vs = plan.sim_flow_of[static_cast<std::size_t>(f)];
      if (vs.size() == 1) {
        out.mean_delay_s[static_cast<std::size_t>(f)] = stats.delay(f).mean();
        out.max_delay_s[static_cast<std::size_t>(f)] = stats.delay(f).max();
        continue;
      }
      double sum = 0.0, mx = 0.0;
      std::int64_t n = 0;
      for (FlowId g : vs) {
        const RunningStat& d = stats.delay(g);
        sum += d.sum();
        n += d.count();
        mx = std::max(mx, d.max());
      }
      out.mean_delay_s[static_cast<std::size_t>(f)] = n > 0 ? sum / static_cast<double>(n) : 0.0;
      out.max_delay_s[static_cast<std::size_t>(f)] = mx;
    }
    out.window_end_to_end = std::move(windows);
    out.suspended_per_flow.resize(static_cast<std::size_t>(F));
    for (FlowId f = 0; f < F; ++f) {
      out.suspended_per_flow[static_cast<std::size_t>(f)] = stats.suspended(f);
      out.suspended_packets += stats.suspended(f);
    }
    // Link-layer delivery failures: every retry-limit drop, warm-up included.
    for (const auto& stack : stacks)
      out.link_failures += static_cast<std::int64_t>(stack->mac().stats().retry_drops);
    out.events_processed = sim.events_processed();
    if (elastic) {
      out.transport.acks_sent = ack->acks_sent();
      out.transport.acks_relayed = ack->acks_relayed();
      out.transport.acks_delivered = ack->acks_delivered();
      for (const auto& src : sources) out.transport.flows.push_back(src->telemetry());
    }
    out.epoch_end_to_end = std::move(epoch_e2e);
    out.recoveries = std::move(recoveries);
    out.metrics = std::move(metrics);
    if (!dctrl) return;
    for (NodeId n = 0; n < sc.topo.node_count(); ++n) {
      const CtrlAgentStats& as = agents[static_cast<std::size_t>(n)]->stats();
      out.ctrl.hello_sent += as.hello_sent;
      out.ctrl.constraint_sent += as.constraint_sent;
      out.ctrl.rate_sent += as.rate_sent;
      out.ctrl.msgs_received += as.msgs_received;
      out.ctrl.solves += as.solves;
      out.ctrl.ctrl_bytes += as.ctrl_bytes_sent;
      out.ctrl.admit_req_sent += as.admit_req_sent;
      out.ctrl.admit_rsp_sent += as.admit_rsp_sent;
      out.ctrl.retransmits += as.retransmits;
      out.ctrl.seq_gaps += as.seq_gaps;
      out.ctrl.stale_dropped += as.stale_dropped;
      out.ctrl.forced_solves += as.forced_solves;
      out.ctrl.ctrl_frames += stacks[static_cast<std::size_t>(n)]->mac().stats().ctrl_sent;
    }
    for (std::size_t i = 0; i < out.admissions.size(); ++i) {
      const FlowId g = inband_sim_flow[i];
      if (g < 0) continue;
      out.admissions[i].inband =
          agents[static_cast<std::size_t>(flows.flow(g).source())]->inband_admission(g);
    }
    if (E > 1) {
      out.reconv_s = std::move(reconv);
      // Surface the per-epoch samples in the metrics artifact as well, so a
      // JSONL dump carries the control-plane health story on its own.
      if (cfg.metrics_period_seconds > 0.0) out.metrics.reconv_s = out.reconv_s;
    }
    out.ctrl.applied_subflow_share.resize(static_cast<std::size_t>(flows.subflow_count()));
    for (int s = 0; s < flows.subflow_count(); ++s) {
      TagScheduler* sched = tag_scheds[static_cast<std::size_t>(flows.subflow(s).src)];
      out.ctrl.applied_subflow_share[static_cast<std::size_t>(s)] =
          sched != nullptr ? sched->share_of(s) : 0.0;
    }
  }


  const Scenario& sc;
  const Protocol proto;
  const SimConfig& cfg;
  const Plan& plan;
  const Allocations& alloc;
  const FlowId F;
  const int E;
  const bool dctrl;
  const bool elastic;
  TraceSink* const trace;
  CheckContext* const check;

  Simulator sim;
  Channel channel;
  TrafficStats stats;
  Rng master;
  std::unique_ptr<FaultRuntime> faults;
  std::vector<std::unique_ptr<NodeStack>> stacks;
  std::vector<TagScheduler*> tag_scheds;
  std::unique_ptr<ContentionGraph> ctrl_graph;
  std::vector<std::unique_ptr<AllocAgent>> agents;
  std::unique_ptr<AckPlane> ack;
  std::vector<std::unique_ptr<TransportSource>> sources;

  /// In-band ADMIT rounds: inband_at[e] lists the admission records whose
  /// round starts at epoch e's boundary; inband_sim_flow[i] is record i's
  /// candidate sim flow (-1 when no round runs).
  std::vector<std::vector<std::size_t>> inband_at;
  std::vector<FlowId> inband_sim_flow;
  /// Which sim flow carries each logical flow *right now* (-1 = suspended);
  /// read by the traffic sources at injection time.
  std::vector<FlowId> active_now;
  /// Earliest unhealed disruption per logical flow (-1 = none pending).
  std::vector<double> pending_fault_s;
  std::vector<RunResult::Recovery> recoveries;
  DeltaCursor<std::int64_t> epoch_cursor;
  std::vector<std::vector<std::int64_t>> epoch_e2e;
  std::vector<double> reconv;
  DeltaCursor<std::int64_t> window_cursor;
  std::vector<std::vector<std::int64_t>> windows;
  TimeNs metrics_period = 0;
  DeltaCursor<std::int64_t> metrics_cursor;
  /// Cumulative MAC timeouts, attempts, airtime and control-plane bytes,
  /// retransmits and sequence gaps at the previous metrics sample.
  DeltaCursor<double> counter_cursor;
  MetricsTimeSeries metrics;
};

}  // namespace

RunResult run_scenario(const Scenario& sc, Protocol proto, const SimConfig& cfg) {
  // Everything before the event loop — topology prep, clique enumeration,
  // precomputed solves, stack wiring — accrues to the setup phase; the scope
  // is released just before the simulator starts running.
  auto setup_prof = std::make_unique<Profiler::Scope>(cfg.profile,
                                                      Profiler::Phase::kSetup);
  const Plan plan = make_plan(sc, cfg);
  if (cfg.check != nullptr) begin_check(*cfg.check, sc, proto, cfg, plan.flows);

  RunResult out;
  out.protocol = proto;
  out.sim_seconds = cfg.sim_seconds;
  const std::vector<char> admitted = admit(sc, proto, plan, cfg.check, &out.admissions);
  const Allocations alloc = allocate(sc, proto, cfg, plan, admitted);
  if (proto != Protocol::k80211)
    for (const EpochAllocation& epoch : alloc.epochs)
      out.epoch_lp_status.push_back(epoch.status);
  out.has_target = alloc.epochs.front().has_target;
  if (out.has_target) {
    out.target_subflow_share = alloc.epochs.front().subflow_share;
    out.target_flow_share = alloc.logical_share.front();
  }
  if (plan.dynamic || plan.epoch_count() > 1) {
    out.epoch_starts_s = plan.boundaries;
    out.epoch_flow_share = alloc.logical_share;
  }

  // ---- Phase 2: packet-level simulation. ----
  RunState st(sc, proto, cfg, plan, alloc);
  st.wire();
  st.observe(admitted, out.admissions);
  setup_prof.reset();  // everything below run_until accrues to the sim phase
  {
    Profiler::Scope prof(cfg.profile, Profiler::Phase::kSim);
    st.sim.run_until(plan.horizon);
  }
  if (plan.dynamic || plan.epoch_count() > 1)  // close the final epoch
    st.epoch_e2e.push_back(st.epoch_cursor.advance(st.logical_e2e()));
  // Close the conservation ledger against what is still buffered.
  if (cfg.check != nullptr) {
    std::vector<int> backlog;
    for (const auto& stack : st.stacks) backlog.push_back(stack->backlog());
    cfg.check->finalize(backlog, st.sim.now());
  }
  st.collect(out);
  return out;
}

}  // namespace e2efa
