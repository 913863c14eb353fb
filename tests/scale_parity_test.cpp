// Brute-force parity for the scaling fast paths: the spatial grid, the
// sparse contention graph, the sparse Bron–Kerbosch enumerator, and the
// incremental clique store are exact replacements for the quadratic /
// from-scratch code they displaced. Every suite sweeps >= 50 seeds and
// asserts element-wise equality against an independent brute-force or
// from-scratch oracle, including under fault-driven activity deltas.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "alloc/centralized.hpp"
#include "alloc/maxmin.hpp"
#include "alloc/two_tier.hpp"
#include "contention/clique_store.hpp"
#include "contention/cliques.hpp"
#include "contention/contention_graph.hpp"
#include "geom/spatial_index.hpp"
#include "net/scenario_gen.hpp"
#include "route/routing.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace e2efa {
namespace {

class ScaleParity : public ::testing::TestWithParam<std::uint64_t> {};

// ---------- spatial grid vs all-pairs ----------

TEST_P(ScaleParity, GridRangeQueriesMatchAllPairs) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.uniform_u64(60));
  const double side = 150.0 * std::sqrt(static_cast<double>(n));
  std::vector<Point> pts;
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  // Cell size and query radius drawn independently: queries wider than a
  // cell exercise the multi-ring walk.
  const double cell = rng.uniform(80.0, 400.0);
  SpatialGrid grid(pts, cell);
  for (int q = 0; q < 10; ++q) {
    const double range = rng.uniform(10.0, 600.0);
    const int i = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
    std::vector<int> brute;
    for (int j = 0; j < n; ++j)
      if (j != i && distance_sq(pts[static_cast<std::size_t>(i)],
                                pts[static_cast<std::size_t>(j)]) <= range * range)
        brute.push_back(j);
    EXPECT_EQ(grid.in_range_of(i, range), brute) << "seed " << GetParam();
  }
}

TEST_P(ScaleParity, TopologyNeighborListsMatchAllPairs) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.uniform_u64(50));
  const double side = 150.0 * std::sqrt(static_cast<double>(n));
  std::vector<Point> pts;
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  const double tx = 250.0;
  const double ifr = tx * rng.uniform(1.0, 2.0);
  Topology topo(pts, tx, ifr);
  for (NodeId i = 0; i < n; ++i) {
    std::vector<NodeId> brute_tx, brute_if;
    for (NodeId j = 0; j < n; ++j) {
      if (j == i) continue;
      if (within_range(pts[static_cast<std::size_t>(i)], pts[static_cast<std::size_t>(j)], tx))
        brute_tx.push_back(j);
      if (within_range(pts[static_cast<std::size_t>(i)], pts[static_cast<std::size_t>(j)], ifr))
        brute_if.push_back(j);
    }
    EXPECT_EQ(topo.neighbors(i), brute_tx) << "seed " << GetParam() << " node " << i;
    EXPECT_EQ(topo.interference_neighbors(i), brute_if)
        << "seed " << GetParam() << " node " << i;
    const char* links = topo.interference_links(i);
    for (std::size_t k = 0; k < brute_if.size(); ++k)
      EXPECT_EQ(links[k] != 0, topo.has_link(i, brute_if[k]))
          << "seed " << GetParam() << " node " << i << " neighbor " << brute_if[k];
  }
}

// ---------- sparse contention graph vs pairwise rule ----------

/// The paper's endpoint-range contention rule, straight off the definition.
bool brute_contend(const Topology& topo, const Subflow& a, const Subflow& b) {
  const NodeId ea[2] = {a.src, a.dst};
  const NodeId eb[2] = {b.src, b.dst};
  for (NodeId x : ea)
    for (NodeId y : eb)
      if (x == y || topo.interferes(x, y)) return true;
  return false;
}

Scenario random_scenario(std::uint64_t seed) {
  GenConfig gen;
  gen.min_nodes = 8;
  gen.max_nodes = 40;
  gen.min_flows = 2;
  gen.max_flows = 10;
  // Mid-size random geometric graphs disconnect at the paper-scale
  // density; denser placement keeps every seed usable.
  gen.density_m = 150.0;
  gen.p_faults = 0.0;  // faults are injected by hand below
  gen.p_loss = 0.0;
  return generate_scenario(seed, gen);
}

TEST_P(ScaleParity, SparseGraphMatchesPairwiseRule) {
  const Scenario sc = random_scenario(GetParam());
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  const int m = flows.subflow_count();
  for (int a = 0; a < m; ++a) {
    std::vector<int> brute;
    for (int b = 0; b < m; ++b)
      if (b != a && brute_contend(sc.topo, flows.subflow(a), flows.subflow(b)))
        brute.push_back(b);
    EXPECT_EQ(g.neighbors_of(a), brute) << "seed " << GetParam() << " subflow " << a;
    for (int b = 0; b < m; ++b)
      EXPECT_EQ(g.contend(a, b),
                b != a && brute_contend(sc.topo, flows.subflow(a), flows.subflow(b)));
  }
  // Incidence index round-trip: every subflow appears exactly at its two
  // endpoints.
  for (NodeId v = 0; v < sc.topo.node_count(); ++v)
    for (int s : g.incident_subflows(v))
      EXPECT_TRUE(flows.subflow(s).src == v || flows.subflow(s).dst == v);
}

// ---------- sparse Bron–Kerbosch vs dense reference ----------

TEST_P(ScaleParity, SparseCliquesMatchDenseReference) {
  const Scenario sc = random_scenario(GetParam());
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  EXPECT_EQ(maximal_cliques(g), maximal_cliques_reference(g)) << "seed " << GetParam();
}

// ---------- incremental clique store vs from-scratch ----------

/// From-scratch oracle: maximal cliques of the subgraph induced by the
/// active vertices, via the independent subset enumerator.
std::vector<std::vector<int>> scratch_cliques(const ContentionGraph& g,
                                              const std::vector<char>& active) {
  std::vector<int> verts;
  for (int v = 0; v < g.vertex_count(); ++v)
    if (active[static_cast<std::size_t>(v)]) verts.push_back(v);
  if (verts.empty()) return {};
  return maximal_cliques_in_subset(g, verts);
}

TEST_P(ScaleParity, CliqueStoreMatchesFromScratchUnderRandomDeltas) {
  const Scenario sc = random_scenario(GetParam());
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  const int m = flows.subflow_count();
  Rng rng(GetParam() ^ 0x5ca1ab1e);

  std::vector<char> active(static_cast<std::size_t>(m), 1);
  CliqueStore store(g, active);
  EXPECT_EQ(store.cliques(), scratch_cliques(g, active)) << "seed " << GetParam();

  for (int round = 0; round < 8; ++round) {
    // Random batch of subflow-level toggles (flow churn).
    const int toggles = 1 + static_cast<int>(rng.uniform_u64(4));
    for (int t = 0; t < toggles; ++t) {
      const int v = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(m)));
      active[static_cast<std::size_t>(v)] ^= 1;
    }
    store.set_active(active);
    ASSERT_EQ(store.cliques(), scratch_cliques(g, active))
        << "seed " << GetParam() << " round " << round;
  }
}

TEST_P(ScaleParity, CliqueStoreMatchesFromScratchUnderFaultDeltas) {
  const Scenario sc = random_scenario(GetParam());
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  const int m = flows.subflow_count();
  Rng rng(GetParam() ^ 0xfa0175u);

  std::vector<char> active(static_cast<std::size_t>(m), 1);
  CliqueStore store(g, active);

  for (int round = 0; round < 6; ++round) {
    // Fault-driven delta: a node or link goes down (or everything heals),
    // mapped to subflow deactivations through the incidence index — the
    // same shape of delta the runner's epoch machinery produces.
    std::fill(active.begin(), active.end(), 1);
    if (round % 3 != 2) {
      TopologyMask mask;
      if (rng.bernoulli(0.5)) {
        const NodeId v = static_cast<NodeId>(
            rng.uniform_u64(static_cast<std::uint64_t>(sc.topo.node_count())));
        mask.node_up.assign(static_cast<std::size_t>(sc.topo.node_count()), true);
        mask.node_up[static_cast<std::size_t>(v)] = false;
      } else {
        const NodeId a = static_cast<NodeId>(
            rng.uniform_u64(static_cast<std::uint64_t>(sc.topo.node_count())));
        const auto& nbrs = sc.topo.neighbors(a);
        if (nbrs.empty()) continue;
        const NodeId b = nbrs[rng.uniform_u64(nbrs.size())];
        mask.down_links.push_back(std::minmax(a, b));
      }
      // A flow whose path loses any node or link suspends: all of its
      // subflows leave the epoch (what route repair / suspension does).
      for (FlowId f = 0; f < flows.flow_count(); ++f) {
        const auto& path = flows.flow(f).path;
        bool alive = true;
        for (std::size_t i = 0; i < path.size() && alive; ++i) {
          if (!mask.node_alive(path[i])) alive = false;
          if (i + 1 < path.size() && !mask.link_alive(path[i], path[i + 1])) alive = false;
        }
        if (!alive)
          for (int h = 0; h < flows.flow(f).length(); ++h)
            active[static_cast<std::size_t>(flows.subflow_index(f, h))] = 0;
      }
    }
    store.set_active(active);
    ASSERT_EQ(store.cliques(), scratch_cliques(g, active))
        << "seed " << GetParam() << " round " << round;
  }
}

// ---------- clique thread budget is invisible in the results ----------

// Enough subflows that a full rebuild and a large delta both cross the
// store's parallel seed threshold (64), so set_threads really fans out.
TEST(CliqueThreads, StoreIsIdIdenticalAtAnyThreadCount) {
  constexpr int kSeedThreshold = 64;
  GenConfig gen;
  gen.min_nodes = gen.max_nodes = 120;
  gen.min_flows = gen.max_flows = 60;
  gen.density_m = 130.0;
  gen.max_hops = 4;
  gen.p_faults = 0.0;
  gen.p_loss = 0.0;
  const Scenario sc = generate_scenario(3, gen);
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  const int m = flows.subflow_count();
  ASSERT_GE(m, 2 * kSeedThreshold);

  // Activate everything, then drop every other subflow: both steps seed
  // more than the threshold.
  std::vector<char> half(static_cast<std::size_t>(m), 1);
  for (int v = 0; v < m; v += 2) half[static_cast<std::size_t>(v)] = 0;
  auto build = [&](int threads) {
    CliqueStore store(g, std::vector<char>(static_cast<std::size_t>(m), 0));
    store.set_threads(threads);
    std::vector<CliqueStore::UpdateStats> stats;
    stats.push_back(store.set_active(std::vector<char>(static_cast<std::size_t>(m), 1)));
    stats.push_back(store.set_active(half));
    std::vector<std::vector<int>> by_id;
    for (int v = 0; v < m; ++v)
      for (int id : store.cliques_of(v)) {
        if (by_id.size() <= static_cast<std::size_t>(id))
          by_id.resize(static_cast<std::size_t>(id) + 1);
        by_id[static_cast<std::size_t>(id)] = store.clique(id);
      }
    return std::make_pair(stats, by_id);
  };
  const auto serial = build(1);
  EXPECT_GE(serial.first[0].seeds, kSeedThreshold);
  EXPECT_GE(serial.first[1].seeds, kSeedThreshold);
  for (int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    const auto par = build(threads);
    ASSERT_EQ(par.first.size(), serial.first.size());
    for (std::size_t i = 0; i < par.first.size(); ++i) {
      EXPECT_EQ(par.first[i].removed, serial.first[i].removed);
      EXPECT_EQ(par.first[i].added, serial.first[i].added);
      EXPECT_EQ(par.first[i].seeds, serial.first[i].seeds);
    }
    EXPECT_EQ(par.second, serial.second);
  }
}

// ---------- precomputed-clique allocator overloads are exact ----------

TEST_P(ScaleParity, AllocatorsBitIdenticalWithPrecomputedCliques) {
  const Scenario sc = random_scenario(GetParam());
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  const std::vector<std::vector<int>> cliques = maximal_cliques(g);

  const CentralizedResult c0 = centralized_allocate(g);
  const CentralizedResult c1 = centralized_allocate(g, &cliques);
  EXPECT_EQ(c0.status, c1.status);
  EXPECT_EQ(c0.constraint_rows, c1.constraint_rows);
  EXPECT_EQ(c0.allocation.flow_share, c1.allocation.flow_share);
  EXPECT_EQ(c0.allocation.subflow_share, c1.allocation.subflow_share);

  const TwoTierResult t0 = two_tier_allocate(g);
  const TwoTierResult t1 = two_tier_allocate(g, &cliques);
  EXPECT_EQ(t0.status, t1.status);
  EXPECT_EQ(t0.allocation.subflow_share, t1.allocation.subflow_share);

  const MaxMinResult m0 = maxmin_allocate(g);
  const MaxMinResult m1 = maxmin_allocate(g, {}, &cliques);
  EXPECT_EQ(m0.allocation.flow_share, m1.allocation.flow_share);

  const MaxMinResult s0 = maxmin_allocate_subflows(g);
  const MaxMinResult s1 = maxmin_allocate_subflows(g, {}, &cliques);
  EXPECT_EQ(s0.allocation.subflow_share, s1.allocation.subflow_share);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaleParity, ::testing::Range<std::uint64_t>(1, 56));

}  // namespace
}  // namespace e2efa
