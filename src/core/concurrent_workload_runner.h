#ifndef RAQO_CORE_CONCURRENT_WORKLOAD_RUNNER_H_
#define RAQO_CORE_CONCURRENT_WORKLOAD_RUNNER_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/raqo_planner.h"
#include "core/workload_runner.h"

namespace raqo::core {

/// Configuration of the concurrent planning service.
struct ConcurrentRunnerOptions {
  /// Worker threads; each gets a private RaqoPlanner.
  int num_threads = 4;
};

/// The concurrent counterpart of WorkloadRunner: a pool of N worker
/// threads, each owning a private RaqoPlanner, pulling queries from the
/// workload and, when caching is on, sharing one striped resource-plan
/// cache — a miniature optimizer service handling many tenants at once.
///
/// Reports are merged by submission order, so `Run` returns the same
/// per-query sequence as the sequential runner regardless of which
/// worker planned which query. With caching off, or with a shared cache
/// in kExact lookup mode, the chosen plans and costs are identical to a
/// sequential run: planning is deterministic, and an exact hit is only
/// taken when the entry's full data characteristic (smaller AND larger
/// input size) matches, so it returns exactly what planning would
/// recompute no matter which worker populated the entry. With
/// similarity-based lookup modes the hit pattern — and thus the configs
/// near a threshold — may differ run to run.
///
/// Unlike the fail-fast sequential runner, every query is always
/// attempted; on failures the error reported is the one of the lowest
/// query index, which keeps the returned status deterministic under any
/// thread interleaving.
class ConcurrentWorkloadRunner {
 public:
  /// Mirrors the RaqoPlanner constructor plus the concurrency knobs.
  /// `catalog` must outlive the runner. When the evaluator options
  /// enable caching, the shared cache is created here and persists
  /// across Run calls (across-query semantics). The
  /// worker pool and the per-worker planners are built here too and
  /// reused by every Run — repeated Run calls spawn no threads and
  /// rebuild no planners. The workers are the runner's only threads:
  /// each query's resource searches run on the worker planning it.
  ConcurrentWorkloadRunner(
      const catalog::Catalog* catalog, cost::JoinCostModels models,
      resource::ClusterConditions cluster,
      resource::PricingModel pricing = resource::PricingModel(),
      RaqoPlannerOptions planner_options = RaqoPlannerOptions(),
      ConcurrentRunnerOptions runner_options = ConcurrentRunnerOptions());

  /// Plans every query, fanned out across the worker pool.
  Result<WorkloadReport> Run(const std::vector<WorkloadQuery>& workload);

  /// Cumulative hit/miss counters of the shared cache (zeros when no
  /// cache is shared). Per-run deltas are in WorkloadReport::shared_cache.
  CacheStats shared_cache_stats() const;

  /// Entries currently held by the shared cache (0 when none).
  size_t shared_cache_size() const;

  /// Per-stripe activity of the shared cache (empty when no cache is
  /// shared): entries, lookups, inserts, and lock contention per stripe.
  std::vector<ShardStats> shared_cache_shard_stats() const;

  int num_threads() const { return options_.num_threads; }
  bool has_shared_cache() const { return shared_cache_ != nullptr; }

 private:
  const catalog::Catalog* catalog_;
  cost::JoinCostModels models_;
  resource::ClusterConditions cluster_;
  resource::PricingModel pricing_;
  RaqoPlannerOptions planner_options_;
  ConcurrentRunnerOptions options_;
  std::shared_ptr<ResourcePlanCache> shared_cache_;
  /// Persistent worker pool running workers 1..N-1 of every Run (absent
  /// with a single worker; the calling thread is always worker 0).
  std::unique_ptr<ThreadPool> pool_;
  /// One private planner per worker, reused across Run calls.
  std::vector<std::unique_ptr<RaqoPlanner>> planners_;
};

}  // namespace raqo::core

#endif  // RAQO_CORE_CONCURRENT_WORKLOAD_RUNNER_H_
