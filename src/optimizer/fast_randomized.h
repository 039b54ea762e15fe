#ifndef RAQO_OPTIMIZER_FAST_RANDOMIZED_H_
#define RAQO_OPTIMIZER_FAST_RANDOMIZED_H_

#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "optimizer/cost_evaluator.h"
#include "optimizer/planner_result.h"

namespace raqo::optimizer {

/// Options of the randomized multi-objective planner.
struct FastRandomizedOptions {
  /// Improvement phases; the paper ran "all query planning for a default
  /// of 10 iterations".
  int iterations = 10;
  /// Random plan-tree mutations attempted per phase.
  int moves_per_iteration = 64;
  uint64_t seed = 1;
  /// Scalarization used by PlanBest to pick a single plan off the
  /// frontier.
  double time_weight = 1.0;
};

/// Reimplementation of the fast randomized multi-objective query
/// optimizer of Trummer and Koch [14], the second query planner the paper
/// integrates RAQO with. The planner maintains an epsilon-approximate
/// Pareto archive over (execution time, monetary cost) and improves it by
/// random plan-tree mutations — the associativity and exchange moves of
/// Steinbrunn et al. [36] plus operator-implementation flips. All costing
/// goes through the pluggable evaluator, so the same enumerator runs as a
/// plain query optimizer or as RAQO.
class FastRandomizedPlanner {
 public:
  explicit FastRandomizedPlanner(
      FastRandomizedOptions options = FastRandomizedOptions())
      : options_(options) {}

  /// Full multi-objective run: returns the approximate (time, money)
  /// frontier. Plans may be bushy.
  Result<MultiObjectiveResult> Plan(
      const catalog::Catalog& catalog,
      const std::vector<catalog::TableId>& tables,
      PlanCostEvaluator& evaluator) const;

  /// Single-objective convenience: runs Plan and returns the frontier
  /// entry minimizing the scalarized cost.
  Result<PlannedQuery> PlanBest(const catalog::Catalog& catalog,
                                const std::vector<catalog::TableId>& tables,
                                PlanCostEvaluator& evaluator) const;

 private:
  FastRandomizedOptions options_;
};

}  // namespace raqo::optimizer

#endif  // RAQO_OPTIMIZER_FAST_RANDOMIZED_H_
