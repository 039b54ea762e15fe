#ifndef RAQO_OPTIMIZER_PLAN_COST_H_
#define RAQO_OPTIMIZER_PLAN_COST_H_

#include "common/result.h"
#include "cost/cost_vector.h"
#include "optimizer/cost_evaluator.h"
#include "plan/cardinality.h"
#include "plan/plan_node.h"

namespace raqo::optimizer {

/// Costs a whole plan tree as the sum of its join operators' costs
/// (Section VI-A: joins sit at shuffle boundaries; other operators are
/// pipelined and not charged separately). The resource configuration
/// the evaluator chose for each join is recorded on the plan node,
/// turning the tree into a joint query/resource plan. Fails when any
/// operator is infeasible.
Result<cost::CostVector> EvaluatePlanCost(
    plan::PlanNode& plan, plan::CardinalityEstimator& estimator,
    PlanCostEvaluator& evaluator);

/// Read-only variant: costs the plan without mutating it.
Result<cost::CostVector> EvaluatePlanCostConst(
    const plan::PlanNode& plan, plan::CardinalityEstimator& estimator,
    PlanCostEvaluator& evaluator);

}  // namespace raqo::optimizer

#endif  // RAQO_OPTIMIZER_PLAN_COST_H_
