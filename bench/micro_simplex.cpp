// Microbenchmarks: the Simplex solver and the full phase-1 allocators.
#include <benchmark/benchmark.h>

#include "alloc/centralized.hpp"
#include "alloc/distributed.hpp"
#include "alloc/two_tier.hpp"
#include "lp/simplex.hpp"
#include "net/scenario_gen.hpp"
#include "net/scenarios.hpp"
#include "util/rng.hpp"

namespace e2efa {
namespace {

/// Allocation-shaped LP: n vars, sliding-window capacity rows, lower bounds.
LpProblem window_lp(int n, Rng& rng) {
  LpProblem p(n);
  for (int i = 0; i < n; ++i) {
    p.set_objective(i, 1.0);
    p.set_lower_bound(i, 0.01 + 0.02 * rng.uniform01());
  }
  for (int i = 0; i + 2 < n; ++i) {
    std::vector<double> row(static_cast<std::size_t>(n), 0.0);
    row[static_cast<std::size_t>(i)] = 1.0;
    row[static_cast<std::size_t>(i) + 1] = 1.0 + rng.uniform01();
    row[static_cast<std::size_t>(i) + 2] = 1.0;
    p.add_constraint(std::move(row), Relation::kLessEq, 1.0);
  }
  return p;
}

void BM_SimplexWindowLp(benchmark::State& state) {
  Rng rng(11);
  const LpProblem p = window_lp(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) benchmark::DoNotOptimize(solve_lp(p));
}
BENCHMARK(BM_SimplexWindowLp)->Arg(5)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

void BM_CentralizedAllocateScenario2(benchmark::State& state) {
  const Scenario sc = scenario2();
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  for (auto _ : state) benchmark::DoNotOptimize(centralized_allocate(g));
}
BENCHMARK(BM_CentralizedAllocateScenario2);

void BM_TwoTierAllocateScenario2(benchmark::State& state) {
  const Scenario sc = scenario2();
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  for (auto _ : state) benchmark::DoNotOptimize(two_tier_allocate(g));
}
BENCHMARK(BM_TwoTierAllocateScenario2);

void BM_DistributedAllocateScenario2(benchmark::State& state) {
  const Scenario sc = scenario2();
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  for (auto _ : state) benchmark::DoNotOptimize(distributed_allocate(sc.topo, flows, g));
}
BENCHMARK(BM_DistributedAllocateScenario2);

/// The 200-node, 60-flow network of e2ebench's random200-2pa-d workload
/// (generator seed 1): 60 local problems of up to 42 shares and 78 rows,
/// the layer that dominates that workload's setup.
void BM_DistributedAllocateRandom200(benchmark::State& state) {
  GenConfig cfg;
  cfg.min_nodes = cfg.max_nodes = 200;
  cfg.min_flows = cfg.max_flows = 60;
  cfg.density_m = 130.0;
  cfg.max_hops = 4;
  cfg.p_faults = 0.0;
  cfg.p_loss = 0.0;
  const Scenario sc = generate_scenario(1, cfg);
  FlowSet flows(sc.topo, sc.flow_specs);
  ContentionGraph g(sc.topo, flows);
  for (auto _ : state) benchmark::DoNotOptimize(distributed_allocate(sc.topo, flows, g));
}
BENCHMARK(BM_DistributedAllocateRandom200)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace e2efa
