#include "core/raqo_planner.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/fixed_resource_evaluator.h"
#include "optimizer/plan_cost.h"
#include "plan/cardinality.h"

namespace raqo::core {

namespace {

// Resource-objective weights swept by PlanFrontier: resources planned
// purely for time sit at one end of the frontier, purely for money at
// the other.
constexpr double kFrontierWeights[] = {1.0, 0.75, 0.5, 0.25, 0.0};

}  // namespace

const char* PlannerAlgorithmName(PlannerAlgorithm algorithm) {
  switch (algorithm) {
    case PlannerAlgorithm::kSelinger:
      return "Selinger";
    case PlannerAlgorithm::kFastRandomized:
      return "FastRandomized";
  }
  return "?";
}

RaqoPlanner::RaqoPlanner(const catalog::Catalog* catalog,
                         cost::JoinCostModels models,
                         resource::ClusterConditions cluster,
                         resource::PricingModel pricing,
                         RaqoPlannerOptions options)
    : catalog_(catalog),
      models_(models),
      pricing_(pricing),
      options_(options),
      evaluator_(models, cluster, pricing, options.evaluator) {}

Result<JointPlan> RaqoPlanner::RunPlanner(
    const std::vector<catalog::TableId>& tables,
    optimizer::PlanCostEvaluator& evaluator) {
  // Fresh warm-start state and a recycled scratch arena per run: plans
  // and per-query counters never depend on what this planner worked on
  // before, so a reused planner answers exactly like a fresh one.
  evaluator_.BeginQuery();
  arena_.Reset();
  optimizer::SelingerOptions selinger = options_.selinger;
  selinger.arena = &arena_;
  Result<optimizer::PlannedQuery> planned =
      options_.algorithm == PlannerAlgorithm::kSelinger
          ? optimizer::SelingerPlanner(selinger)
                .Plan(*catalog_, tables, evaluator)
          : optimizer::FastRandomizedPlanner(options_.randomized)
                .PlanBest(*catalog_, tables, evaluator);
  if (!planned.ok()) return planned.status();
  JointPlan out;
  out.plan = std::move(planned->plan);
  out.cost = planned->cost;
  out.stats = planned->stats;
  return out;
}

Result<JointPlan> RaqoPlanner::Plan(
    const std::vector<catalog::TableId>& tables) {
  // A cache shared with other planner threads belongs to the whole
  // workload, so this planner never clears it between queries.
  if (options_.clear_cache_between_queries && !evaluator_.cache_is_shared()) {
    evaluator_.ClearCache();
  }

  obs::Span span;
  if (obs::TracingOn()) {
    span = obs::DefaultTracer().StartSpan("planner.query");
    span.SetAttr("algorithm", PlannerAlgorithmName(options_.algorithm));
    span.SetAttr("num_tables", static_cast<int64_t>(tables.size()));
  }
  Result<JointPlan> result = RunPlanner(tables, evaluator_);
  if (span.recording()) {
    if (result.ok()) {
      span.SetAttr("plans_considered", result->stats.plans_considered);
      span.SetAttr("cost_seconds", result->cost.seconds);
    } else {
      span.SetAttr("error", result.status().message());
    }
  }
  span.End();

  if (obs::MetricsOn()) {
    static obs::Counter* queries =
        obs::DefaultMetrics().GetCounter("planner.queries");
    static obs::Counter* errors =
        obs::DefaultMetrics().GetCounter("planner.errors");
    queries->Add(1);
    if (!result.ok()) errors->Add(1);
  }
  if (result.ok()) {
    result->stats.cache_hits = evaluator_.cache_stats().hits;
    result->stats.cache_misses = evaluator_.cache_stats().misses;
  }
  return result;
}

Result<JointPlan> RaqoPlanner::PlanForResources(
    const std::vector<catalog::TableId>& tables,
    const resource::ResourceConfig& resources) {
  if (!evaluator_.cluster().Contains(resources)) {
    return Status::InvalidArgument(
        "requested resources " + resources.ToString() +
        " are outside the cluster conditions " +
        evaluator_.cluster().ToString());
  }
  optimizer::FixedResourceEvaluator fixed(models_, resources, pricing_);
  return RunPlanner(tables, fixed);
}

Result<JointPlan> RaqoPlanner::PlanResourcesForPlan(
    const plan::PlanNode& plan) {
  Stopwatch watch;
  if (options_.clear_cache_between_queries && !evaluator_.cache_is_shared()) {
    evaluator_.ClearCache();
  }
  evaluator_.BeginQuery();
  evaluator_.ResetCounters();
  plan::CardinalityEstimator estimator(catalog_);
  JointPlan out;
  out.plan = plan.Clone();
  RAQO_ASSIGN_OR_RETURN(
      out.cost, optimizer::EvaluatePlanCost(*out.plan, estimator, evaluator_));
  out.stats.operator_cost_calls = evaluator_.operator_cost_calls();
  out.stats.resource_configs_explored =
      evaluator_.resource_configs_explored();
  out.stats.cache_hits = evaluator_.cache_stats().hits;
  out.stats.cache_misses = evaluator_.cache_stats().misses;
  out.stats.wall_ms = watch.ElapsedMillis();
  return out;
}

Result<JointPlan> RaqoPlanner::PlanForMoneyBudget(
    const std::vector<catalog::TableId>& tables, double max_dollars) {
  if (max_dollars <= 0.0) {
    return Status::InvalidArgument("money budget must be positive");
  }
  RAQO_ASSIGN_OR_RETURN(optimizer::MultiObjectiveResult multi,
                        PlanFrontier(tables));
  RAQO_ASSIGN_OR_RETURN(const optimizer::ParetoEntry* best,
                        multi.FastestWithin(max_dollars));
  JointPlan out;
  out.plan = best->plan->Clone();
  out.cost = best->cost;
  out.stats = multi.stats;
  return out;
}

Result<optimizer::MultiObjectiveResult> RaqoPlanner::PlanFrontier(
    const std::vector<catalog::TableId>& tables) {
  // One randomized pass per resource-objective weight: planning the
  // resources for pure speed and for pure cheapness lands on different
  // configurations, which is what spreads the (time, money) frontier.
  optimizer::MultiObjectiveResult merged;
  for (double weight : kFrontierWeights) {
    RaqoEvaluatorOptions eval_options = options_.evaluator;
    eval_options.time_weight = weight;
    RaqoCostEvaluator evaluator(models_, evaluator_.cluster(), pricing_,
                                eval_options);
    RAQO_ASSIGN_OR_RETURN(
        optimizer::MultiObjectiveResult partial,
        optimizer::FastRandomizedPlanner(options_.randomized)
            .Plan(*catalog_, tables, evaluator));
    merged.stats.wall_ms += partial.stats.wall_ms;
    merged.stats.plans_considered += partial.stats.plans_considered;
    merged.stats.operator_cost_calls += partial.stats.operator_cost_calls;
    merged.stats.resource_configs_explored +=
        partial.stats.resource_configs_explored;
    merged.stats.cache_hits += evaluator.cache_stats().hits;
    merged.stats.cache_misses += evaluator.cache_stats().misses;
    for (optimizer::ParetoEntry& entry : partial.frontier) {
      // Skip an entry some kept one matches or dominates: weight passes
      // that find the same cost vector contribute it once.
      bool covered = false;
      for (const optimizer::ParetoEntry& existing : merged.frontier) {
        if (existing.cost.seconds <= entry.cost.seconds &&
            existing.cost.dollars <= entry.cost.dollars) {
          covered = true;
          break;
        }
      }
      if (covered) continue;
      merged.frontier.erase(
          std::remove_if(merged.frontier.begin(), merged.frontier.end(),
                         [&](const optimizer::ParetoEntry& e) {
                           return entry.cost.Dominates(e.cost);
                         }),
          merged.frontier.end());
      merged.frontier.push_back(std::move(entry));
    }
  }
  std::sort(merged.frontier.begin(), merged.frontier.end(),
            [](const optimizer::ParetoEntry& a,
               const optimizer::ParetoEntry& b) {
              return a.cost.seconds < b.cost.seconds;
            });
  return merged;
}

void RaqoPlanner::UpdateClusterConditions(
    resource::ClusterConditions cluster) {
  evaluator_.UpdateClusterConditions(cluster);
}

}  // namespace raqo::core
