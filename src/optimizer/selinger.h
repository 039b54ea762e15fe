#ifndef RAQO_OPTIMIZER_SELINGER_H_
#define RAQO_OPTIMIZER_SELINGER_H_

#include <vector>

#include "catalog/catalog.h"
#include "common/arena.h"
#include "common/result.h"
#include "optimizer/cost_evaluator.h"
#include "optimizer/planner_result.h"

namespace raqo::optimizer {

/// Dynamic programming over subsets is exponential: the Selinger planner
/// answers Unsupported for queries joining more tables than this.
inline constexpr int kMaxSelingerTables = 20;

/// Options of the System R-style planner.
struct SelingerOptions {
  /// Scalarization weight: 1.0 optimizes pure execution time, 0.0 pure
  /// monetary cost.
  double time_weight = 1.0;
  /// Scratch arena for the 2^n DP memo and the adjacency table
  /// (borrowed, must outlive the call; nullptr uses a run-local arena).
  /// The returned plan is never arena-allocated, so the owner may
  /// Reset() the arena between queries (docs/PERF.md).
  Arena* arena = nullptr;
};

/// The traditional Selinger (System R) bottom-up dynamic-programming
/// optimizer for left-deep join trees [13], one of the two query planners
/// the paper integrates cost-based RAQO with (Section VII-A). Operator
/// implementations (SMJ/BHJ) are chosen per join through the pluggable
/// cost evaluator, which may or may not perform resource planning. Joins
/// are placed only along join-graph edges; a subset unreachable that way
/// gets a cross-product fallback pass.
class SelingerPlanner {
 public:
  explicit SelingerPlanner(SelingerOptions options = SelingerOptions())
      : options_(options) {}

  /// Plans the join of `tables` over `catalog`. The returned plan is
  /// left-deep and covers exactly `tables`. The evaluator's counters are
  /// reset at the start of the run and folded into the returned stats.
  Result<PlannedQuery> Plan(const catalog::Catalog& catalog,
                            const std::vector<catalog::TableId>& tables,
                            PlanCostEvaluator& evaluator) const;

 private:
  SelingerOptions options_;
};

}  // namespace raqo::optimizer

#endif  // RAQO_OPTIMIZER_SELINGER_H_
