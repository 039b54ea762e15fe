#ifndef RAQO_CORE_RAQO_COST_EVALUATOR_H_
#define RAQO_CORE_RAQO_COST_EVALUATOR_H_

#include <array>
#include <memory>
#include <optional>
#include <utility>

#include "core/plan_cache.h"
#include "core/resource_planner.h"
#include "cost/cost_model.h"
#include "cost/model_bounds.h"
#include "optimizer/cost_evaluator.h"
#include "resource/cluster_conditions.h"
#include "resource/pricing.h"

namespace raqo::core {

/// Resource-search strategies of cost-based RAQO (Section VI-B), plus
/// the accelerated-stride extension for very large clusters. Every
/// strategy runs on the calling thread: planning parallelizes across
/// queries and requests, never within one search.
enum class ResourceSearch {
  /// The exhaustive sweep: the reference kSwitchAwareGrid is tested
  /// against and Figure 13's baseline.
  kBruteForce,
  /// Algorithm 1's hill climb (heuristic; chosen explicitly).
  kHillClimb,
  kAcceleratedHillClimb,
  /// The default: the switch-point-aware incremental grid search,
  /// bit-identical to kBruteForce but warm-started from the previous
  /// search's optimum and dominance-pruned through sound cost-model
  /// lower bounds (SwitchAwareGridResourcePlanner, docs/PERF.md).
  /// Models whose feature set fails monotonicity validation fall back
  /// to the plain exhaustive sweep and bump
  /// planner.resource.monotonicity_rejected.
  kSwitchAwareGrid,
};

/// Configuration of the RAQO cost evaluator.
struct RaqoEvaluatorOptions {
  ResourceSearch search = ResourceSearch::kSwitchAwareGrid;

  /// Resource-plan caching (off by default, matching the paper's setup
  /// of clearing the cache before each query unless stated otherwise).
  bool use_cache = false;
  CacheLookupMode cache_mode = CacheLookupMode::kNearestNeighbor;
  /// The "data delta threshold" of Figure 14, in GB of smaller-input
  /// size.
  double cache_threshold_gb = 0.01;
  /// Ignored: `cache_mode` decides the cache layout. Kept only for the
  /// frozen planning-server benchmark (planbench/), until ROADMAP.md's
  /// re-freeze item deletes it.
  CacheIndexKind cache_index = CacheIndexKind::kSortedArray;

  /// Objective weight for resource planning: 1.0 plans resources for pure
  /// execution time, 0.0 for pure monetary cost.
  double time_weight = 1.0;

  /// Broadcast-join feasibility bound: the build side must satisfy
  /// ss <= factor * container size. The resource search is restricted to
  /// the feasible sub-grid (the climb then starts from the smallest
  /// *feasible* configuration).
  double bhj_capacity_factor = 1.14;
};

/// The heart of cost-based RAQO (Section VI-C): a PlanCostEvaluator whose
/// getPlanCost "first performs the resource planning (or lookup in the
/// cache) and then returns the sub-plan cost". Plugging this evaluator
/// into the Selinger or FastRandomized planner turns either into a joint
/// query-and-resource optimizer; as the query planner considers candidate
/// sub-plans, the resource planner considers the resource space for each.
class RaqoCostEvaluator : public optimizer::PlanCostEvaluator {
 public:
  RaqoCostEvaluator(cost::JoinCostModels models,
                    resource::ClusterConditions cluster,
                    resource::PricingModel pricing = resource::PricingModel(),
                    RaqoEvaluatorOptions options = RaqoEvaluatorOptions());

  /// Adaptive RAQO hook: replace the cluster conditions (e.g. after the
  /// resource manager reports a load change). Cached plans computed for
  /// the old conditions are dropped.
  void UpdateClusterConditions(resource::ClusterConditions cluster);

  const resource::ClusterConditions& cluster() const { return cluster_; }

  /// Cache maintenance/statistics (zeroed stats when caching is off).
  void ClearCache();
  CacheStats cache_stats() const;
  /// Zeroes the counters atomically and returns the pre-reset snapshot
  /// (see ResourcePlanCache::ResetStats); zeroes when caching is off.
  CacheStats ResetCacheStats();
  size_t cache_size() const;

  /// Points this evaluator at a cache owned jointly with other planner
  /// threads (the concurrent planning service: N planners, one cache;
  /// every ResourcePlanCache is safe to share). Passing nullptr reverts
  /// to the evaluator-owned cache configured by the options. Lookups and
  /// inserts go straight to the attached cache, so a computed plan is
  /// visible to every other planner as soon as it is inserted.
  void ShareCache(std::shared_ptr<ResourcePlanCache> cache) {
    shared_cache_ = std::move(cache);
  }

  /// Does nothing: inserts are write-through, so there is nothing to
  /// flush. Kept only for planbench/, whose sources change only together
  /// with the benchmark definition (BENCHMARK.json); delete it at the
  /// next benchmark change.
  void FlushSharedCacheInserts() {}

  /// True when the active cache is shared with other planners; per-query
  /// cache statistics are then workload-global, not per-planner, and the
  /// planner refrains from clearing or resetting it between queries.
  bool cache_is_shared() const { return shared_cache_ != nullptr; }

  const RaqoEvaluatorOptions& options() const { return options_; }

  /// Marks a query boundary: drops the per-model warm-start memory of
  /// the switch-aware search so every query plans from a cold incumbent.
  /// Warm starts never change results — this only keeps the per-query
  /// `configs_explored` stats independent of which queries a worker
  /// planned before (the concurrent runner steals queries dynamically).
  void BeginQuery();

  /// True when the switch-aware search prunes with a validated bound
  /// oracle for the given join implementation. The oracles are built at
  /// the evaluator's first resource search, so this is false before it,
  /// for the other strategies, and for monotonicity-rejected models.
  bool has_bound_oracle(plan::JoinImpl impl) const {
    return oracles_[impl == plan::JoinImpl::kSortMergeJoin ? 0 : 1]
        .has_value();
  }


 protected:
  Result<optimizer::OperatorCost> CostJoinImpl(
      const optimizer::JoinContext& context) override;

 private:
  /// The cache planning goes through: the shared cache when one is
  /// attached, the owned one otherwise (may be null when caching is off).
  ResourcePlanCache* active_cache() const {
    return shared_cache_ != nullptr ? shared_cache_.get() : cache_.get();
  }

  /// Validates both models' monotonicity declarations and builds their
  /// bound oracles; a rejected model is counted and keeps no oracle, so
  /// its searches run exhaustively.
  void BuildBoundOracles();

  cost::JoinCostModels models_;
  resource::ClusterConditions cluster_;
  resource::PricingModel pricing_;
  RaqoEvaluatorOptions options_;
  /// Trace-span name of the resource search this evaluator runs:
  /// "planner.resource.grid" for the exhaustive strategies,
  /// "planner.resource.hillclimb" for the climbing ones.
  const char* resource_span_name_ = "planner.resource.grid";
  std::unique_ptr<ResourcePlanner> planner_;
  std::unique_ptr<ResourcePlanCache> cache_;
  std::shared_ptr<ResourcePlanCache> shared_cache_;
  /// Switch-aware search state, unused by the other strategies. Indexed
  /// by join implementation (0 = SMJ, 1 = BHJ): a validated lower-bound
  /// oracle per model (nullopt after monotonicity rejection => that
  /// model's searches run exhaustively) and the previous search's
  /// optimum as the next warm start (cleared by BeginQuery and cluster
  /// updates). The oracles are built at the first search rather than at
  /// construction: the server builds an evaluator per request, and a
  /// request answered wholly from the cache should not pay for them.
  std::array<std::optional<cost::ResourceBoundOracle>, 2> oracles_;
  std::array<std::optional<resource::ResourceConfig>, 2> last_best_;
  bool switch_aware_ = false;
  bool oracles_built_ = false;
};

}  // namespace raqo::core

#endif  // RAQO_CORE_RAQO_COST_EVALUATOR_H_
