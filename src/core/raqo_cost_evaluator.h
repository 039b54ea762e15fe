#ifndef RAQO_CORE_RAQO_COST_EVALUATOR_H_
#define RAQO_CORE_RAQO_COST_EVALUATOR_H_

#include <array>
#include <cstdint>
#include <memory>
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
  /// bit-identical to kBruteForce but seeded from, and dominance-pruned
  /// through, sound cost-model lower bounds (core/grid_sweep.h,
  /// docs/PERF.md). A model the sweep may not prune is searched by
  /// kBruteForce (see ModelSearch); one whose bounds are not sound
  /// (cost::ResourceBoundsSound) also bumps
  /// planner.resource.monotonicity_rejected when the evaluator is built.
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

  /// Drops every entry of the active cache.
  void ClearCache();
  /// Hits and misses of this evaluator's own lookups since the last
  /// BeginQuery(), on whichever cache is attached (zero when caching is
  /// off). Lookups other planners make in a shared cache are not counted.
  CacheStats cache_stats() const { return lookups_; }
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

  /// True when the active cache is shared with other planners; the
  /// planner then never clears it between queries.
  bool cache_is_shared() const { return shared_cache_ != nullptr; }

  const RaqoEvaluatorOptions& options() const { return options_; }

  /// Marks a query boundary: zeroes the lookup counts of cache_stats().
  /// A search depends on nothing an earlier one left behind, so a reused
  /// planner counts what a fresh one would.
  void BeginQuery();

  /// How resources are searched for one join implementation's model,
  /// fixed when the evaluator is built.
  enum class ModelSearch : uint8_t {
    /// planner_, with a per-cell objective: every strategy but
    /// kSwitchAwareGrid, and under kSwitchAwareGrid (whose planner_ is
    /// the brute force) every model the sweep may not prune: one that is
    /// not separable (cost::FeatureSetSeparable) or not bound-sound
    /// (cost::ResourceBoundsSound), or any model when the time weight
    /// lies outside [0, 1] or the price rate is negative.
    kPlanner,
    /// The switch-aware sweep over term arrays, pruned through the
    /// model's corner bounds. Only these models answer a bound request
    /// (JoinContext::bound_only) with a bound, and only with no cache or
    /// an exact-mode one; the others answer Unsupported.
    kBoundedSweep,
  };
  ModelSearch model_search(plan::JoinImpl impl) const {
    return model_search_[impl == plan::JoinImpl::kSortMergeJoin ? 0 : 1];
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

  /// Plans resources for one join as model_search_ says. The sweep
  /// prices the model from term arrays filled once per search; planner_
  /// gets a per-cell std::function objective.
  Result<ResourcePlanResult> SearchResources(
      size_t model_idx, const cost::OperatorCostModel& model, double ss_gb,
      double ls_gb, const resource::ClusterConditions& grid);

  cost::JoinCostModels models_;
  resource::ClusterConditions cluster_;
  resource::PricingModel pricing_;
  RaqoEvaluatorOptions options_;
  /// Trace-span name of the resource search this evaluator runs:
  /// "planner.resource.grid" for the exhaustive strategies,
  /// "planner.resource.hillclimb" for the climbing ones.
  const char* resource_span_name_ = "planner.resource.grid";
  /// Hit/miss counts of this evaluator's lookups since BeginQuery().
  CacheStats lookups_;
  /// The planner of the models searched with ModelSearch::kPlanner.
  std::unique_ptr<ResourcePlanner> planner_;
  std::unique_ptr<ResourcePlanCache> cache_;
  std::shared_ptr<ResourcePlanCache> shared_cache_;
  /// How each model is searched, indexed by join implementation (0 = SMJ,
  /// 1 = BHJ).
  std::array<ModelSearch, 2> model_search_ = {ModelSearch::kPlanner,
                                              ModelSearch::kPlanner};
  /// The term arrays each sweep refills.
  cost::SeparableGridSeconds grid_seconds_;
  bool switch_aware_ = false;
};

}  // namespace raqo::core

#endif  // RAQO_CORE_RAQO_COST_EVALUATOR_H_
