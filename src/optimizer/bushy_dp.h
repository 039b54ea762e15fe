#ifndef RAQO_OPTIMIZER_BUSHY_DP_H_
#define RAQO_OPTIMIZER_BUSHY_DP_H_

#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "optimizer/cost_evaluator.h"
#include "optimizer/planner_result.h"

namespace raqo::optimizer {

/// Subset-pair enumeration is O(3^n): the bushy DP answers Unsupported
/// for queries joining more tables than this.
inline constexpr int kMaxBushyDpTables = 14;

/// Options of the bushy dynamic-programming planner.
struct BushyDpOptions {
  /// Scalarization weight: 1.0 optimizes execution time, 0.0 money.
  double time_weight = 1.0;
};

/// An exhaustive bottom-up optimizer over *bushy* join trees (DPsub-style
/// enumeration of subset splits). The paper's Selinger baseline covers
/// left-deep trees only, while its randomized planner roams the bushy
/// space; this planner closes the gap by finding the exact bushy optimum
/// for moderate query sizes, so the randomized planner's plan quality can
/// be measured against ground truth. Costing goes through the same
/// pluggable evaluator, so it too runs as plain QO or as RAQO. Only
/// subsets connected through the join graph are joined; a cross-product
/// fallback handles disconnected ones.
class BushyDpPlanner {
 public:
  explicit BushyDpPlanner(BushyDpOptions options = BushyDpOptions())
      : options_(options) {}

  /// Plans the join of `tables`; the result may be any binary tree shape.
  Result<PlannedQuery> Plan(const catalog::Catalog& catalog,
                            const std::vector<catalog::TableId>& tables,
                            PlanCostEvaluator& evaluator) const;

 private:
  BushyDpOptions options_;
};

}  // namespace raqo::optimizer

#endif  // RAQO_OPTIMIZER_BUSHY_DP_H_
