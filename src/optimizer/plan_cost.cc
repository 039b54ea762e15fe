#include "optimizer/plan_cost.h"

#include <type_traits>

namespace raqo::optimizer {

namespace {

/// Sums the join costs of `plan`. `Node` is PlanNode or const PlanNode;
/// only a mutable plan records each join's chosen resources.
template <typename Node>
Result<cost::CostVector> SumJoinCosts(Node& plan,
                                      plan::CardinalityEstimator& estimator,
                                      PlanCostEvaluator& evaluator) {
  cost::CostVector total;
  Status failure = Status::OK();
  plan.VisitJoins([&](Node& join) {
    if (!failure.ok()) return;
    JoinContext context;
    context.impl = join.impl();
    context.left_bytes = estimator.Estimate(join.left()->tables()).bytes();
    context.right_bytes = estimator.Estimate(join.right()->tables()).bytes();
    Result<OperatorCost> op = evaluator.CostJoin(context);
    if (!op.ok()) {
      failure = op.status();
      return;
    }
    total += op->cost;
    if constexpr (!std::is_const_v<Node>) {
      if (op->resources.has_value()) join.set_resources(*op->resources);
    }
  });
  if (!failure.ok()) return failure;
  return total;
}

}  // namespace

Result<cost::CostVector> EvaluatePlanCost(
    plan::PlanNode& plan, plan::CardinalityEstimator& estimator,
    PlanCostEvaluator& evaluator) {
  return SumJoinCosts(plan, estimator, evaluator);
}

Result<cost::CostVector> EvaluatePlanCostConst(
    const plan::PlanNode& plan, plan::CardinalityEstimator& estimator,
    PlanCostEvaluator& evaluator) {
  return SumJoinCosts(plan, estimator, evaluator);
}

}  // namespace raqo::optimizer
