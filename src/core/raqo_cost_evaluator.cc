#include "core/raqo_cost_evaluator.h"

#include <cmath>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "cost/features.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace raqo::core {

RaqoCostEvaluator::RaqoCostEvaluator(cost::JoinCostModels models,
                                     resource::ClusterConditions cluster,
                                     resource::PricingModel pricing,
                                     RaqoEvaluatorOptions options)
    : models_(std::move(models)),
      cluster_(cluster),
      pricing_(pricing),
      options_(options) {
  switch (options_.search) {
    case ResourceSearch::kBruteForce:
      planner_ = std::make_unique<BruteForceResourcePlanner>();
      resource_span_name_ = "planner.resource.grid";
      break;
    case ResourceSearch::kHillClimb:
      planner_ = std::make_unique<HillClimbResourcePlanner>();
      resource_span_name_ = "planner.resource.hillclimb";
      break;
    case ResourceSearch::kAcceleratedHillClimb:
      planner_ = std::make_unique<AcceleratedHillClimbResourcePlanner>();
      resource_span_name_ = "planner.resource.hillclimb";
      break;
    case ResourceSearch::kSwitchAwareGrid:
      planner_ = std::make_unique<SwitchAwareGridResourcePlanner>();
      resource_span_name_ = "planner.resource.grid";
      switch_aware_ = true;
      break;
  }
  if (options_.use_cache) {
    cache_ = std::make_unique<ResourcePlanCache>(
        options_.cache_mode, options_.cache_threshold_gb,
        options_.cache_index);
  }
}

void RaqoCostEvaluator::BuildBoundOracles() {
  oracles_built_ = true;
  const plan::JoinImpl impls[2] = {plan::JoinImpl::kSortMergeJoin,
                                   plan::JoinImpl::kBroadcastHashJoin};
  for (int i = 0; i < 2; ++i) {
    Result<cost::ResourceBoundOracle> oracle =
        cost::ResourceBoundOracle::Create(models_.ForImpl(impls[i]));
    if (oracle.ok()) {
      oracles_[i] = *std::move(oracle);
    } else if (obs::MetricsOn()) {
      static obs::Counter* rejected = obs::DefaultMetrics().GetCounter(
          "planner.resource.monotonicity_rejected");
      rejected->Add(1);
    }
  }
}

void RaqoCostEvaluator::UpdateClusterConditions(
    resource::ClusterConditions cluster) {
  cluster_ = cluster;
  // Warm starts are snapped onto the current grid by index, so a stale
  // one is *safe* — but a fresh grid means the old optimum carries no
  // switch-point signal. Start cold like the caches do.
  last_best_[0].reset();
  last_best_[1].reset();
  ClearCache();
}

void RaqoCostEvaluator::BeginQuery() {
  last_best_[0].reset();
  last_best_[1].reset();
}

void RaqoCostEvaluator::ClearCache() {
  if (ResourcePlanCache* cache = active_cache()) cache->Clear();
}

CacheStats RaqoCostEvaluator::cache_stats() const {
  const ResourcePlanCache* cache = active_cache();
  return cache != nullptr ? cache->stats() : CacheStats{};
}

CacheStats RaqoCostEvaluator::ResetCacheStats() {
  ResourcePlanCache* cache = active_cache();
  return cache != nullptr ? cache->ResetStats() : CacheStats{};
}

size_t RaqoCostEvaluator::cache_size() const {
  const ResourcePlanCache* cache = active_cache();
  return cache != nullptr ? static_cast<size_t>(cache->entry_count()) : 0;
}

Result<optimizer::OperatorCost> RaqoCostEvaluator::CostJoinImpl(
    const optimizer::JoinContext& context) {
  const double ss_gb = context.smaller_gb();
  const cost::OperatorCostModel& model = models_.ForImpl(context.impl);

  // Restrict the search to the feasible sub-grid. For a broadcast join
  // the container must hold the build side, so the smallest feasible
  // container size may exceed the cluster minimum.
  resource::ClusterConditions search_cluster = cluster_;
  if (context.impl == plan::JoinImpl::kBroadcastHashJoin) {
    const double min_cs = ss_gb / optimizer::kBhjCapacityFactor;
    if (min_cs > cluster_.max().container_size_gb() + 1e-9) {
      return Status::ResourceExhausted(StrPrintf(
          "BHJ build side %.2f GB fits no container up to %.2f GB", ss_gb,
          cluster_.max().container_size_gb()));
    }
    if (min_cs > cluster_.min().container_size_gb()) {
      // Snap the minimum container size up onto the grid.
      const double step = cluster_.step().container_size_gb();
      const double base = cluster_.min().container_size_gb();
      const double snapped =
          base + std::ceil((min_cs - base) / step - 1e-9) * step;
      resource::ResourceConfig new_min = cluster_.min();
      new_min.set_container_size_gb(
          std::min(snapped, cluster_.max().container_size_gb()));
      RAQO_ASSIGN_OR_RETURN(
          search_cluster,
          resource::ClusterConditions::Create(new_min, cluster_.max(),
                                              cluster_.step()));
    }
  }

  const double ls_gb = context.larger_gb();
  // The join's cost on one configuration: the search objective, a cache
  // hit's answer and the returned cost all price through here.
  auto price = [&](const resource::ResourceConfig& config) {
    cost::JoinFeatures features;
    features.smaller_gb = ss_gb;
    features.larger_gb = ls_gb;
    features.container_size_gb = config.container_size_gb();
    features.num_containers = config.num_containers();
    const double seconds = model.PredictSeconds(features);
    return cost::CostVector{seconds, pricing_.Cost(config, seconds)};
  };
  auto objective = [&](const resource::ResourceConfig& config) {
    return price(config).Weighted(options_.time_weight);
  };

  // Cache lookup first (Section VI-C), keyed by the data characteristic.
  ResourcePlanCache* cache = active_cache();
  if (cache != nullptr) {
    if (std::optional<CachedResourcePlan> hit =
            cache->Lookup(model.name(), ss_gb, ls_gb)) {
      // A hit planned for other data may lie off the grid (weighted
      // average) or below the containers this build side needs; snap it
      // onto the grid this join is searched on.
      const resource::ResourceConfig config =
          search_cluster.SnapToGrid(hit->config);
      return optimizer::OperatorCost{price(config), config};
    }
  }

  // Acceleration hints for the switch-aware search. Both are pure
  // accelerators (bit-identical results with or without); the objective
  // lower bound composes the model-seconds bound with the pricing model
  // evaluated at the box's low corner, which under-approximates the
  // weighted objective whenever time_weight lies in [0, 1] and the
  // price rate is non-negative — outside that envelope the bound is
  // simply not offered and the sweep runs exhaustively.
  const size_t model_idx =
      context.impl == plan::JoinImpl::kSortMergeJoin ? 0 : 1;
  ResourceSearchHints hints;
  if (switch_aware_) {
    if (!oracles_built_) BuildBoundOracles();
    hints.warm_start = last_best_[model_idx];
    const double tw = options_.time_weight;
    if (oracles_[model_idx].has_value() && tw >= 0.0 && tw <= 1.0 &&
        pricing_.dollars_per_gb_hour() >= 0.0) {
      const cost::ResourceBoundOracle* oracle = &*oracles_[model_idx];
      hints.box_lower_bound = [this, oracle, tw, ss_gb, ls_gb](
                                  const resource::ResourceConfig& lo,
                                  const resource::ResourceConfig& hi) {
        cost::JoinFeatures data;
        data.smaller_gb = ss_gb;
        data.larger_gb = ls_gb;
        const double sec_lb = oracle->SecondsLowerBound(data, lo, hi);
        // Same floating-point expression shape as the objective, fed
        // with componentwise lower bounds: every op in the chain is
        // monotone under round-to-nearest, so bound <= objective holds
        // at the bit level, not just in real arithmetic.
        const double dollars_lb = pricing_.Cost(lo, sec_lb);
        return cost::CostVector{sec_lb, dollars_lb}.Weighted(tw);
      };
    }
  }
  auto run_search = [&] {
    return switch_aware_ ? planner_->PlanResourcesWithHints(
                               objective, search_cluster, hints)
                         : planner_->PlanResources(objective, search_cluster);
  };

  Result<ResourcePlanResult> planned = [&] {
    const bool metrics_on = obs::MetricsOn();
    const bool tracing_on = obs::TracingOn();
    if (!metrics_on && !tracing_on) {
      return run_search();
    }
    Stopwatch timer;
    obs::Span span = obs::DefaultTracer().StartSpan(resource_span_name_);
    Result<ResourcePlanResult> result = run_search();
    if (span.recording()) {
      span.SetAttr("strategy", planner_->name());
      span.SetAttr("model", model.name());
      span.SetAttr("smaller_gb", ss_gb);
      span.SetAttr("larger_gb", ls_gb);
      if (result.ok()) {
        span.SetAttr("configs_explored",
                     static_cast<int64_t>(result->configs_explored));
        if (result->cells_pruned > 0) {
          span.SetAttr("cells_pruned", result->cells_pruned);
        }
      } else {
        span.SetAttr("error", result.status().message());
      }
    }
    if (metrics_on) {
      static obs::Counter* searches =
          obs::DefaultMetrics().GetCounter("planner.resource.searches");
      static obs::Counter* explored = obs::DefaultMetrics().GetCounter(
          "planner.resource.configs_explored");
      static obs::Histogram* latency =
          obs::DefaultMetrics().GetHistogram("planner.resource.wall_us");
      searches->Add(1);
      if (result.ok()) explored->Add(result->configs_explored);
      latency->Record(timer.ElapsedMicros());
      if (result.ok() && switch_aware_) {
        static obs::Counter* pruned = obs::DefaultMetrics().GetCounter(
            "planner.resource.cells_pruned");
        static obs::Counter* replanned = obs::DefaultMetrics().GetCounter(
            "planner.resource.cells_replanned");
        static obs::Counter* reused = obs::DefaultMetrics().GetCounter(
            "planner.resource.plans_reused");
        pruned->Add(result->cells_pruned);
        // Cells evaluated beyond the warm-start re-cost — the true
        // incremental work of this search.
        const int64_t beyond_warm =
            result->configs_explored - (hints.warm_start.has_value() ? 1 : 0);
        replanned->Add(beyond_warm > 0 ? beyond_warm : 0);
        if (result->warm_start_won) reused->Add(1);
      }
    }
    return result;
  }();
  if (!planned.ok()) return planned.status();
  AddResourceConfigsExplored(planned->configs_explored);
  if (switch_aware_) last_best_[model_idx] = planned->config;

  if (cache != nullptr) {
    CachedResourcePlan entry;
    entry.key_gb = ss_gb;
    entry.config = planned->config;
    entry.cost = planned->cost;
    entry.larger_gb = ls_gb;
    cache->Insert(model.name(), entry);
  }

  return optimizer::OperatorCost{price(planned->config), planned->config};
}

}  // namespace raqo::core
