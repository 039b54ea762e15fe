#ifndef RAQO_OPTIMIZER_FIXED_RESOURCE_EVALUATOR_H_
#define RAQO_OPTIMIZER_FIXED_RESOURCE_EVALUATOR_H_

#include "cost/cost_model.h"
#include "optimizer/cost_evaluator.h"
#include "resource/pricing.h"
#include "resource/resource_config.h"

namespace raqo::optimizer {

/// The traditional query-optimizer baseline ("QO" in the paper's
/// evaluation): every operator is costed under one fixed resource
/// configuration chosen up front, with no resource planning.
class FixedResourceEvaluator : public PlanCostEvaluator {
 public:
  /// A broadcast join whose build side exceeds kBhjCapacityFactor times
  /// the container size is reported infeasible. So is an operator whose
  /// predicted time is NaN or infinite. A bound request
  /// (JoinContext::bound_only) answers Unsupported.
  FixedResourceEvaluator(cost::JoinCostModels models,
                         resource::ResourceConfig config,
                         resource::PricingModel pricing =
                             resource::PricingModel());

  const resource::ResourceConfig& config() const { return config_; }

 protected:
  Result<OperatorCost> CostJoinImpl(const JoinContext& context) override;

 private:
  cost::JoinCostModels models_;
  resource::ResourceConfig config_;
  resource::PricingModel pricing_;
};

}  // namespace raqo::optimizer

#endif  // RAQO_OPTIMIZER_FIXED_RESOURCE_EVALUATOR_H_
