#include "core/raqo_cost_evaluator.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/stopwatch.h"
#include "core/grid_sweep.h"
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
      // The brute force searches the models the sweep may not prune.
      planner_ = std::make_unique<BruteForceResourcePlanner>();
      resource_span_name_ = "planner.resource.grid";
      switch_aware_ = true;
      break;
  }
  if (options_.use_cache) {
    cache_ = std::make_unique<ResourcePlanCache>(
        options_.cache_mode, options_.cache_threshold_gb,
        options_.cache_index);
  }
  if (!switch_aware_) return;
  // The bounds compose the model-seconds bound with the pricing model
  // evaluated at the box's low corner, which under-approximates the
  // weighted objective whenever time_weight lies in [0, 1] and the price
  // rate is non-negative.
  const double tw = options_.time_weight;
  const bool objective_bounded =
      tw >= 0.0 && tw <= 1.0 && pricing_.dollars_per_gb_hour() >= 0.0;
  const cost::OperatorCostModel* by_impl[2] = {&models_.smj, &models_.bhj};
  for (size_t i = 0; i < 2; ++i) {
    if (!cost::FeatureSetSeparable(by_impl[i]->feature_set())) continue;
    const bool sound = cost::ResourceBoundsSound(*by_impl[i]);
    if (!sound && obs::MetricsOn()) {
      static obs::Counter* rejected = obs::DefaultMetrics().GetCounter(
          "planner.resource.monotonicity_rejected");
      rejected->Add(1);
    }
    if (sound && objective_bounded) {
      model_search_[i] = ModelSearch::kBoundedSweep;
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
  lookups_ = CacheStats{};
}

void RaqoCostEvaluator::ClearCache() {
  if (ResourcePlanCache* cache = active_cache()) cache->Clear();
}

size_t RaqoCostEvaluator::cache_size() const {
  const ResourcePlanCache* cache = active_cache();
  return cache != nullptr ? static_cast<size_t>(cache->entry_count()) : 0;
}

namespace {

/// The join's cost on one configuration: the per-cell search objective,
/// a cache hit's answer and the returned cost all price through here.
cost::CostVector Price(const cost::OperatorCostModel& model,
                       const resource::PricingModel& pricing, double ss_gb,
                       double ls_gb, const resource::ResourceConfig& config) {
  cost::JoinFeatures features;
  features.smaller_gb = ss_gb;
  features.larger_gb = ls_gb;
  features.container_size_gb = config.container_size_gb();
  features.num_containers = config.num_containers();
  const double seconds = model.PredictSeconds(features);
  return cost::CostVector{seconds, pricing.Cost(config, seconds)};
}

/// The answer to a bound request: a lower bound, in each component, of
/// every cost CostJoinImpl can return for a join searched on `grid` by
/// the bounded sweep. A searched or cached configuration lies on the
/// grid, so its seconds are at least the model's corner bound over the
/// grid's box, and its dollars at least those seconds priced at the
/// box's low corner (docs/PERF.md, section 5).
cost::CostVector CostLowerBound(const cost::OperatorCostModel& model,
                                const resource::PricingModel& pricing,
                                double ss_gb, double ls_gb,
                                const resource::ClusterConditions& grid) {
  const GridGeometry g(grid);
  const resource::ResourceConfig lo = g.CellAt(0, 0);
  const resource::ResourceConfig hi =
      g.CellAt(g.cs_points - 1, g.nc_points - 1);
  cost::JoinFeatures data;
  data.smaller_gb = ss_gb;
  data.larger_gb = ls_gb;
  const double seconds = cost::SecondsLowerBound(model, data, lo, hi);
  return cost::CostVector{seconds, pricing.Cost(lo, seconds)};
}

}  // namespace

Result<ResourcePlanResult> RaqoCostEvaluator::SearchResources(
    size_t model_idx, const cost::OperatorCostModel& model, double ss_gb,
    double ls_gb, const resource::ClusterConditions& grid) {
  const double tw = options_.time_weight;
  if (model_search_[model_idx] == ModelSearch::kPlanner) {
    return planner_->PlanResources(
        [&](const resource::ResourceConfig& config) {
          return Price(model, pricing_, ss_gb, ls_gb, config).Weighted(tw);
        },
        grid);
  }
  grid_seconds_.Fill(model, ss_gb, ls_gb, grid);
  Result<ResourcePlanResult> swept =
      SweepGrid(SeparableObjective(grid_seconds_, pricing_, tw),
                GridGeometry(grid), last_best_[model_idx]);
  if (swept.ok()) last_best_[model_idx] = swept->config;
  return swept;
}

Result<optimizer::OperatorCost> RaqoCostEvaluator::CostJoinImpl(
    const optimizer::JoinContext& context) {
  const size_t model_idx =
      context.impl == plan::JoinImpl::kSortMergeJoin ? 0 : 1;
  ResourcePlanCache* cache = active_cache();
  // A bound is given only where skipping a candidate changes no later
  // answer: a bounded-sweep model (bound-sound, non-negative price rate)
  // and no cache or an exact one, whose hits return what a search would
  // whatever entries the skips left out (a similarity-mode hit depends
  // on them). Elsewhere the DP costs in offer order.
  if (context.bound_only &&
      (model_search_[model_idx] != ModelSearch::kBoundedSweep ||
       (cache != nullptr && cache->mode() != CacheLookupMode::kExact))) {
    return Status::Unsupported("no bound");  // short: no heap allocation
  }
  const double ss_gb = context.smaller_gb();
  const cost::OperatorCostModel& model = models_.ForImpl(context.impl);

  // Restrict the search to the feasible sub-grid. For a broadcast join
  // the container must hold the build side, so the smallest feasible
  // container size may exceed the cluster minimum.
  resource::ClusterConditions search_cluster = cluster_;
  if (context.impl == plan::JoinImpl::kBroadcastHashJoin) {
    const double min_cs = ss_gb / optimizer::kBhjCapacityFactor;
    if (min_cs > cluster_.max().container_size_gb() + 1e-9) {
      // Unformatted: the DP meets many such candidates and only counts
      // them.
      return Status::ResourceExhausted(
          "BHJ build side fits no container in the cluster");
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
  if (context.bound_only) {
    return optimizer::OperatorCost{
        CostLowerBound(model, pricing_, ss_gb, ls_gb, search_cluster),
        std::nullopt};
  }

  // Cache lookup first (Section VI-C), keyed by the data characteristic.
  if (cache != nullptr) {
    if (std::optional<CachedResourcePlan> hit =
            cache->Lookup(model.name(), ss_gb, ls_gb)) {
      ++lookups_.hits;
      // A hit planned for other data may lie off the grid (weighted
      // average) or below the containers this build side needs; snap it
      // onto the grid this join is searched on.
      const resource::ResourceConfig config =
          search_cluster.SnapToGrid(hit->config);
      return optimizer::OperatorCost{
          Price(model, pricing_, ss_gb, ls_gb, config), config};
    }
    ++lookups_.misses;
  }

  const bool warm_started = switch_aware_ && last_best_[model_idx].has_value();
  // Counters are always on with metrics; the clock, the latency
  // histogram and the span only run under tracing, so the default
  // configuration reads no clock per search.
  const bool metrics_on = obs::MetricsOn();
  obs::Span span;
  std::optional<Stopwatch> timer;
  if (obs::TracingOn()) {
    timer.emplace();
    span = obs::DefaultTracer().StartSpan(resource_span_name_);
  }
  Result<ResourcePlanResult> planned =
      SearchResources(model_idx, model, ss_gb, ls_gb, search_cluster);
  if (span.recording()) {
    span.SetAttr("strategy",
                 model_search_[model_idx] == ModelSearch::kPlanner
                     ? planner_->name()
                     : "switch-aware-grid");
    span.SetAttr("model", model.name());
    span.SetAttr("smaller_gb", ss_gb);
    span.SetAttr("larger_gb", ls_gb);
    if (planned.ok()) {
      span.SetAttr("configs_explored",
                   static_cast<int64_t>(planned->configs_explored));
      if (planned->cells_pruned > 0) {
        span.SetAttr("cells_pruned", planned->cells_pruned);
      }
    } else {
      span.SetAttr("error", planned.status().message());
    }
  }
  if (metrics_on) {
    static obs::Counter* searches =
        obs::DefaultMetrics().GetCounter("planner.resource.searches");
    static obs::Counter* explored = obs::DefaultMetrics().GetCounter(
        "planner.resource.configs_explored");
    searches->Add(1);
    if (planned.ok()) explored->Add(planned->configs_explored);
    if (timer.has_value()) {
      static obs::Histogram* latency =
          obs::DefaultMetrics().GetHistogram("planner.resource.wall_us");
      latency->Record(timer->ElapsedMicros());
    }
    if (planned.ok() && switch_aware_) {
      static obs::Counter* pruned = obs::DefaultMetrics().GetCounter(
          "planner.resource.cells_pruned");
      static obs::Counter* replanned = obs::DefaultMetrics().GetCounter(
          "planner.resource.cells_replanned");
      static obs::Counter* reused = obs::DefaultMetrics().GetCounter(
          "planner.resource.plans_reused");
      pruned->Add(planned->cells_pruned);
      // Cells evaluated beyond the warm-start re-cost — the true
      // incremental work of this search.
      const int64_t beyond_warm =
          planned->configs_explored - (warm_started ? 1 : 0);
      replanned->Add(beyond_warm > 0 ? beyond_warm : 0);
      if (planned->warm_start_won) reused->Add(1);
    }
  }
  span.End();
  if (!planned.ok()) return planned.status();
  AddResourceConfigsExplored(planned->configs_explored);

  if (cache != nullptr) {
    CachedResourcePlan entry;
    entry.key_gb = ss_gb;
    entry.config = planned->config;
    entry.cost = planned->cost;
    entry.larger_gb = ls_gb;
    cache->Insert(model.name(), entry);
  }

  return optimizer::OperatorCost{
      Price(model, pricing_, ss_gb, ls_gb, planned->config), planned->config};
}

}  // namespace raqo::core
