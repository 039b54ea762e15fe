#ifndef RAQO_CORE_RESOURCE_PLANNER_H_
#define RAQO_CORE_RESOURCE_PLANNER_H_

#include <cstdint>
#include <functional>

#include "common/result.h"
#include "resource/cluster_conditions.h"
#include "resource/resource_config.h"

namespace raqo::core {

/// Scalar cost of running the sub-plan under a resource configuration.
/// Implementations typically wrap a learned OperatorCostModel; returning
/// +infinity marks an infeasible configuration.
using ResourceCostFn = std::function<double(const resource::ResourceConfig&)>;

/// Outcome of planning resources for one sub-plan.
struct ResourcePlanResult {
  resource::ResourceConfig config;
  /// Objective value at `config` (+infinity if nothing feasible).
  double cost = 0.0;
  /// Resource configurations whose cost was evaluated — the paper's
  /// "#Resource-Iterations" overhead metric (Figure 13).
  int64_t configs_explored = 0;
  /// Grid cells skipped by dominance pruning (0 for exhaustive scans).
  int64_t cells_pruned = 0;
  /// Lower-bound probes of the switch-aware sweep (rows and blocks).
  int64_t bound_probes = 0;
};

/// Picks the resource configuration for one sub-plan (one join operator),
/// given the current cluster conditions. The paper plans resources
/// per-operator because joins sit at shuffle boundaries and can be
/// provisioned independently (Section VI-B).
class ResourcePlanner {
 public:
  virtual ~ResourcePlanner() = default;

  /// Searches the cluster's discrete resource grid. Fails with
  /// FailedPrecondition when no configuration in the grid is feasible.
  virtual Result<ResourcePlanResult> PlanResources(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster) const = 0;

  virtual const char* name() const = 0;
};

/// Exhaustive search over every configuration in the grid
/// (Section VI-B.1). Optimal but expensive: cost is rp * rc evaluations.
/// The switch-aware search (core/grid_sweep.h) returns the same answer
/// far cheaper; this one stays as the reference it is tested against and
/// as Figure 13's baseline.
class BruteForceResourcePlanner : public ResourcePlanner {
 public:
  Result<ResourcePlanResult> PlanResources(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster) const override;
  const char* name() const override { return "brute-force"; }
};

/// Algorithm 1 of the paper: hill climbing from the smallest resource
/// configuration. In each round the climber tries one step forward and
/// one step backward along every resource dimension (backtracking after
/// each probe), keeps the best improving move per dimension, and stops at
/// a local optimum. Greedy, so typically ~4x fewer cost evaluations than
/// brute force on the paper's grids.
class HillClimbResourcePlanner : public ResourcePlanner {
 public:
  /// The climb starts at the cluster minimum ("users want to minimize
  /// the resources used").
  Result<ResourcePlanResult> PlanResources(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster) const override;
  const char* name() const override { return "hill-climb"; }
};

/// An extension beyond the paper's Algorithm 1 for very large resource
/// grids (Figure 15(b) scales to 100K containers): per dimension the step
/// doubles while probes in the same direction keep improving and resets
/// to the grid step after a miss, so an optimum D grid cells away is
/// reached in O(log D) evaluations instead of O(D). Every visited
/// configuration stays on the allocation grid (steps are multiples of
/// the grid step), and the result is still a local optimum with respect
/// to single grid steps. The climb starts from the smallest
/// configuration.
class AcceleratedHillClimbResourcePlanner : public ResourcePlanner {
 public:
  Result<ResourcePlanResult> PlanResources(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster) const override;
  const char* name() const override { return "accelerated-hill-climb"; }
};

}  // namespace raqo::core

#endif  // RAQO_CORE_RESOURCE_PLANNER_H_
