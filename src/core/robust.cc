#include "core/robust.h"

#include <algorithm>
#include <limits>

#include "optimizer/plan_cost.h"
#include "plan/cardinality.h"

namespace raqo::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Result<RobustnessReport> EvaluatePlanRobustness(
    const catalog::Catalog& catalog, const cost::JoinCostModels& models,
    const resource::ClusterConditions& base_cluster,
    const resource::PricingModel& pricing, const plan::PlanNode& plan,
    const RobustnessOptions& options) {
  if (options.perturbations.empty()) {
    return Status::InvalidArgument("no perturbations to probe");
  }
  RobustnessReport report;
  plan::CardinalityEstimator estimator(&catalog);
  double feasible_sum = 0.0;
  int feasible_count = 0;

  for (const ClusterPerturbation& p : options.perturbations) {
    if (p.container_scale <= 0.0 || p.count_scale <= 0.0) {
      return Status::InvalidArgument("perturbation scales must be positive");
    }
    // Shrink the maxima, keeping them at or above the minima.
    resource::ResourceConfig max = base_cluster.max();
    max.set_container_size_gb(
        std::max(base_cluster.min().container_size_gb(),
                 max.container_size_gb() * p.container_scale));
    max.set_num_containers(std::max(base_cluster.min().num_containers(),
                                    max.num_containers() * p.count_scale));
    RAQO_ASSIGN_OR_RETURN(
        resource::ClusterConditions degraded,
        resource::ClusterConditions::Create(base_cluster.min(), max,
                                            base_cluster.step()));

    RaqoCostEvaluator evaluator(models, degraded, pricing,
                                options.evaluator);
    Result<cost::CostVector> cost =
        optimizer::EvaluatePlanCostConst(plan, estimator, evaluator);
    if (!cost.ok()) {
      if (cost.status().IsResourceExhausted() ||
          cost.status().IsFailedPrecondition()) {
        report.per_perturbation_cost.push_back(kInf);
        ++report.infeasible_count;
        continue;
      }
      return cost.status();
    }
    const double scalar = cost->Weighted(options.evaluator.time_weight);
    report.per_perturbation_cost.push_back(scalar);
    feasible_sum += scalar;
    ++feasible_count;
  }

  report.worst_cost = *std::max_element(report.per_perturbation_cost.begin(),
                                        report.per_perturbation_cost.end());
  report.mean_feasible_cost =
      feasible_count > 0 ? feasible_sum / feasible_count : kInf;
  return report;
}

Result<size_t> PickRobustPlanIndex(
    const catalog::Catalog& catalog, const cost::JoinCostModels& models,
    const resource::ClusterConditions& base_cluster,
    const resource::PricingModel& pricing,
    const std::vector<const plan::PlanNode*>& candidates,
    const RobustnessOptions& options) {
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidate plans");
  }
  size_t best = 0;
  bool have_best = false;
  int best_infeasible = 0;
  double best_worst = kInf;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i] == nullptr) {
      return Status::InvalidArgument("null candidate plan");
    }
    RAQO_ASSIGN_OR_RETURN(
        RobustnessReport report,
        EvaluatePlanRobustness(catalog, models, base_cluster, pricing,
                               *candidates[i], options));
    const bool better =
        !have_best || report.infeasible_count < best_infeasible ||
        (report.infeasible_count == best_infeasible &&
         report.worst_cost < best_worst);
    if (better) {
      have_best = true;
      best = i;
      best_infeasible = report.infeasible_count;
      best_worst = report.worst_cost;
    }
  }
  return best;
}

}  // namespace raqo::core
