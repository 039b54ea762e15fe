#ifndef RAQO_CORE_ROBUST_H_
#define RAQO_CORE_ROBUST_H_

#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/raqo_cost_evaluator.h"
#include "cost/cost_model.h"
#include "plan/plan_node.h"
#include "resource/cluster_conditions.h"
#include "resource/pricing.h"

namespace raqo::core {

/// One hypothetical degradation of the cluster: the maxima of both
/// resource dimensions are scaled (<= 1.0 shrinks the cluster, as when
/// other tenants grab capacity between optimization and execution).
struct ClusterPerturbation {
  double container_scale = 1.0;
  double count_scale = 1.0;
};

/// Options of the robustness analysis.
struct RobustnessOptions {
  /// The degradations a plan is probed against. The default set spans
  /// "as planned" down to "a quarter of the containers are left".
  std::vector<ClusterPerturbation> perturbations = {
      {1.0, 1.0}, {1.0, 0.5}, {0.5, 1.0}, {0.5, 0.5}, {1.0, 0.25}};
  /// Resource re-planning under each perturbation. Its `time_weight`
  /// also scalarizes the per-perturbation cost, so resources are scored
  /// under the objective they were planned for.
  RaqoEvaluatorOptions evaluator;
};

/// How a fixed plan shape holds up across cluster degradations.
struct RobustnessReport {
  /// Scalarized cost per perturbation; +infinity where the plan cannot
  /// run at all (e.g. a broadcast build side that fits no remaining
  /// container).
  std::vector<double> per_perturbation_cost;
  /// Worst finite-or-infinite cost (the minimax objective).
  double worst_cost = 0.0;
  /// Mean over the feasible perturbations.
  double mean_feasible_cost = 0.0;
  /// Number of perturbations where the plan is infeasible.
  int infeasible_count = 0;

  bool AlwaysFeasible() const { return infeasible_count == 0; }
};

/// Implements the paper's "Adaptive RAQO" research-agenda idea of picking
/// plans resilient to cluster-condition changes (Section VIII): the
/// plan's *shape* is frozen and its resources are re-planned under each
/// perturbed cluster, yielding the cost profile the plan would have if
/// the cluster degraded between optimization and execution.
Result<RobustnessReport> EvaluatePlanRobustness(
    const catalog::Catalog& catalog, const cost::JoinCostModels& models,
    const resource::ClusterConditions& base_cluster,
    const resource::PricingModel& pricing, const plan::PlanNode& plan,
    const RobustnessOptions& options = RobustnessOptions());

/// Picks the most resilient plan out of `candidates` (e.g. a Pareto
/// frontier): always-feasible plans beat sometimes-infeasible ones; ties
/// break on the minimax (worst-case) cost. Returns the winning index.
Result<size_t> PickRobustPlanIndex(
    const catalog::Catalog& catalog, const cost::JoinCostModels& models,
    const resource::ClusterConditions& base_cluster,
    const resource::PricingModel& pricing,
    const std::vector<const plan::PlanNode*>& candidates,
    const RobustnessOptions& options = RobustnessOptions());

}  // namespace raqo::core

#endif  // RAQO_CORE_ROBUST_H_
