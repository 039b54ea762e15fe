#ifndef RAQO_OPTIMIZER_PLANNER_RESULT_H_
#define RAQO_OPTIMIZER_PLANNER_RESULT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "cost/cost_vector.h"
#include "plan/plan_node.h"

namespace raqo::optimizer {

/// Metrics a planning run reports — the quantities the paper's Figures
/// 12-15 plot.
struct PlanningStats {
  /// Wall-clock planner runtime.
  double wall_ms = 0.0;
  /// Candidate (sub-)plans the enumerator considered.
  int64_t plans_considered = 0;
  /// Operator costings requested from the evaluator.
  int64_t operator_cost_calls = 0;
  /// Resource configurations examined ("#Resource-Iterations").
  int64_t resource_configs_explored = 0;
  /// Resource-plan cache hits, when a caching evaluator is in use.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

/// A finished single-objective planning run: the chosen joint
/// query/resource plan and its cost.
struct PlannedQuery {
  std::unique_ptr<plan::PlanNode> plan;
  cost::CostVector cost;
  PlanningStats stats;
};

/// One point of a multi-objective (time, money) frontier.
struct ParetoEntry {
  std::unique_ptr<plan::PlanNode> plan;
  cost::CostVector cost;
};

/// A finished multi-objective planning run: the approximate Pareto
/// frontier over (time, money), sorted by ascending time.
struct MultiObjectiveResult {
  std::vector<ParetoEntry> frontier;
  PlanningStats stats;

  /// Frontier entry with the lowest monetary cost (nullptr if empty).
  const ParetoEntry* CheapestEntry() const;
  /// The fastest frontier entry costing at most `max_dollars` (the
  /// paper's c => (p, r) pick); NotFound, naming the cheapest entry's
  /// price, when none fits.
  Result<const ParetoEntry*> FastestWithin(double max_dollars) const;
};

}  // namespace raqo::optimizer

#endif  // RAQO_OPTIMIZER_PLANNER_RESULT_H_
