#include "net/batch.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace e2efa {

std::string metrics_seed_path(const std::string& path, std::uint64_t seed) {
  const std::string tag = ".seed" + std::to_string(seed);
  const auto slash = path.find_last_of('/');
  const auto dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return path + tag;
  return path.substr(0, dot) + tag + path.substr(dot);
}

BatchRunner::BatchRunner(int jobs) : jobs_(jobs) {
  if (jobs_ <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs_ = hw > 0 ? static_cast<int>(hw) : 1;
    auto_jobs_ = true;
  }
}

std::vector<RunResult> BatchRunner::run(const std::vector<Job>& jobs) const {
  std::vector<RunResult> results(jobs.size());
  if (jobs.empty()) return results;

  auto run_one = [&](std::size_t i) {
    results[i] = run_scenario(*jobs[i].scenario, jobs[i].protocol, jobs[i].config);
  };

  // Compose the two parallelism axes: when the pool size was auto-selected,
  // budget hardware threads across seeds × threads-per-run instead of
  // oversubscribing by their product.
  int pool_cap = jobs_;
  if (auto_jobs_) {
    int per_job = 1;
    for (const Job& j : jobs) per_job = std::max(per_job, j.config.clique_threads);
    pool_cap = std::max(1, jobs_ / per_job);
  }
  const std::size_t workers =
      std::min(static_cast<std::size_t>(pool_cap), jobs.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_one(i);
    return results;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        run_one(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  return results;
}

std::vector<RunResult> BatchRunner::run_seeds(
    const Scenario& sc, Protocol proto, const SimConfig& base,
    const std::vector<std::uint64_t>& seeds) const {
  std::vector<Job> jobs(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    jobs[i] = {&sc, proto, base};
    jobs[i].config.seed = seeds[i];
  }
  return run(jobs);
}

bool BatchRunner::run_seeds_with_metrics(
    const Scenario& sc, Protocol proto, const SimConfig& base,
    const std::vector<std::uint64_t>& seeds, const std::string& metrics_out,
    std::vector<RunResult>* results, std::string* error) const {
  E2EFA_ASSERT(results != nullptr && error != nullptr);
  E2EFA_ASSERT_MSG(base.metrics_period_seconds > 0,
                   "run_seeds_with_metrics needs metrics_period_seconds > 0");
  *results = run_seeds(sc, proto, base, seeds);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (!write_metrics_jsonl((*results)[i].metrics,
                             metrics_seed_path(metrics_out, seeds[i]), error))
      return false;
  }
  return true;
}

std::vector<RunResult> BatchRunner::run_protocols(
    const Scenario& sc, const std::vector<Protocol>& protos,
    const SimConfig& cfg) const {
  std::vector<Job> jobs(protos.size());
  for (std::size_t i = 0; i < protos.size(); ++i) jobs[i] = {&sc, protos[i], cfg};
  return run(jobs);
}

}  // namespace e2efa
