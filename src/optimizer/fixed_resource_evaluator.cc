#include "optimizer/fixed_resource_evaluator.h"

#include <cmath>

#include "common/strings.h"
#include "cost/features.h"

namespace raqo::optimizer {

FixedResourceEvaluator::FixedResourceEvaluator(
    cost::JoinCostModels models, resource::ResourceConfig config,
    resource::PricingModel pricing)
    : models_(std::move(models)), config_(config), pricing_(pricing) {}

Result<OperatorCost> FixedResourceEvaluator::CostJoinImpl(
    const JoinContext& context) {
  // No bound: the baseline is costed in offer order, as the paper's
  // figures count it.
  if (context.bound_only) return Status::Unsupported("no bound");
  const double ss_gb = context.smaller_gb();
  if (context.impl == plan::JoinImpl::kBroadcastHashJoin &&
      ss_gb > config_.container_size_gb() * kBhjCapacityFactor) {
    return Status::ResourceExhausted(StrPrintf(
        "BHJ build side %.2f GB does not fit %.2f GB containers", ss_gb,
        config_.container_size_gb()));
  }
  cost::JoinFeatures features;
  features.smaller_gb = ss_gb;
  features.larger_gb = context.larger_gb();
  features.container_size_gb = config_.container_size_gb();
  features.num_containers = config_.num_containers();

  const double seconds =
      models_.ForImpl(context.impl).PredictSeconds(features);
  // The resource planners' rule: a NaN or infinite prediction is no plan.
  if (!std::isfinite(seconds)) {
    return Status::FailedPrecondition(StrPrintf(
        "predicted time %g s under %s is not finite", seconds,
        config_.ToString().c_str()));
  }
  OperatorCost out;
  out.cost.seconds = seconds;
  out.cost.dollars = pricing_.Cost(config_, seconds);
  out.resources = config_;
  AddResourceConfigsExplored(1);
  return out;
}

}  // namespace raqo::optimizer
