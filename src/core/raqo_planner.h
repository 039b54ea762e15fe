#ifndef RAQO_CORE_RAQO_PLANNER_H_
#define RAQO_CORE_RAQO_PLANNER_H_

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "common/arena.h"
#include "common/result.h"
#include "core/raqo_cost_evaluator.h"
#include "cost/cost_model.h"
#include "optimizer/fast_randomized.h"
#include "optimizer/planner_result.h"
#include "optimizer/selinger.h"
#include "resource/cluster_conditions.h"
#include "resource/pricing.h"

namespace raqo::core {

/// Query-planning algorithm to combine with resource planning; the paper
/// validates RAQO with both (Section VI-C).
enum class PlannerAlgorithm {
  kSelinger,
  kFastRandomized,
};

const char* PlannerAlgorithmName(PlannerAlgorithm algorithm);

/// Top-level configuration of the RAQO planner.
struct RaqoPlannerOptions {
  PlannerAlgorithm algorithm = PlannerAlgorithm::kSelinger;
  RaqoEvaluatorOptions evaluator;
  optimizer::SelingerOptions selinger;
  optimizer::FastRandomizedOptions randomized;
  /// The paper clears the resource plan cache before each query run
  /// unless evaluating across-query caching (Figure 15(b)).
  bool clear_cache_between_queries = true;
};

/// A joint query and resource plan (Figure 8(b)): the operator DAG for
/// the runtime plus, on every join node, the resources to request from
/// the resource manager.
struct JointPlan {
  std::unique_ptr<plan::PlanNode> plan;
  cost::CostVector cost;
  optimizer::PlanningStats stats;
};

/// The RAQO optimizer facade: one object owning the cost models, the
/// cluster conditions, the resource planner (+cache) and a query planner,
/// exposing the use cases of Section IV:
///   - Plan():                 best joint (p, r)
///   - PlanForResources():     r => p   (plan under a fixed budget)
///   - PlanResourcesForPlan(): p => (r, c) (resources + cost for a plan)
///   - PlanForMoneyBudget():   c => (p, r) (best plan under a price cap)
class RaqoPlanner {
 public:
  /// `catalog` must outlive the planner.
  RaqoPlanner(const catalog::Catalog* catalog, cost::JoinCostModels models,
              resource::ClusterConditions cluster,
              resource::PricingModel pricing = resource::PricingModel(),
              RaqoPlannerOptions options = RaqoPlannerOptions());

  /// Best joint query/resource plan for the query (use case "optimize
  /// for performance with abundant resources").
  Result<JointPlan> Plan(const std::vector<catalog::TableId>& tables);

  /// Best query plan for a fixed resource configuration (use case
  /// "constrained resources / per-tenant quota": r => p). No resource
  /// planning happens; this is also the paper's "QO" baseline.
  Result<JointPlan> PlanForResources(
      const std::vector<catalog::TableId>& tables,
      const resource::ResourceConfig& resources);

  /// Plans resources for an existing physical plan without changing its
  /// shape or operators (use case "user is satisfied with the plan,
  /// lower my bill": p => (r, c)).
  Result<JointPlan> PlanResourcesForPlan(const plan::PlanNode& plan);

  /// Best plan whose monetary cost stays within `max_dollars` (use case
  /// c => (p, r)). Runs the multi-objective planner and picks the
  /// fastest frontier plan under the cap; NotFound when even the
  /// cheapest plan exceeds it.
  Result<JointPlan> PlanForMoneyBudget(
      const std::vector<catalog::TableId>& tables, double max_dollars);

  /// Full (time, money) frontier from the multi-objective planner: one
  /// randomized pass per resource-objective weight, from pure time to
  /// pure money, with the Pareto archives merged.
  Result<optimizer::MultiObjectiveResult> PlanFrontier(
      const std::vector<catalog::TableId>& tables);

  /// Adaptive RAQO: refresh the cluster conditions from the resource
  /// manager; subsequent planning sees the new grid.
  void UpdateClusterConditions(resource::ClusterConditions cluster);

  RaqoCostEvaluator& evaluator() { return evaluator_; }
  const RaqoPlannerOptions& options() const { return options_; }

 private:
  Result<JointPlan> RunPlanner(const std::vector<catalog::TableId>& tables,
                               optimizer::PlanCostEvaluator& evaluator);

  const catalog::Catalog* catalog_;
  cost::JoinCostModels models_;
  resource::PricingModel pricing_;
  RaqoPlannerOptions options_;
  RaqoCostEvaluator evaluator_;
  /// Planner-owned scratch arena, reset at the start of every planning
  /// run and lent to the Selinger enumerator. Once its block has grown
  /// to the workload's largest memo, per-query planning stops touching
  /// the global allocator for enumeration state entirely.
  Arena arena_;
};

}  // namespace raqo::core

#endif  // RAQO_CORE_RAQO_PLANNER_H_
