#ifndef RAQO_CORE_RESOURCE_PLANNER_H_
#define RAQO_CORE_RESOURCE_PLANNER_H_

#include <cstdint>
#include <functional>
#include <optional>

#include "common/result.h"
#include "resource/cluster_conditions.h"
#include "resource/resource_config.h"

namespace raqo::core {

/// Scalar cost of running the sub-plan under a resource configuration.
/// Implementations typically wrap a learned OperatorCostModel; returning
/// +infinity marks an infeasible configuration.
using ResourceCostFn = std::function<double(const resource::ResourceConfig&)>;

/// Sound lower bound of the cost over *every* grid cell in the inclusive
/// box [lo, hi]: for all cells r in the box, bound(lo, hi) <= cost(r).
/// Returning -infinity says "no bound available for this box" and simply
/// disables pruning there — soundness over tightness, always.
using ResourceBoxBoundFn = std::function<double(
    const resource::ResourceConfig& lo, const resource::ResourceConfig& hi)>;

/// Optional acceleration hints for a resource search. Both members are
/// pure accelerators: any planner honoring them must return bit-identical
/// results with or without them (the incremental-search property tests
/// hold every combination to that).
struct ResourceSearchHints {
  /// Enables dominance pruning (branch-and-bound over grid blocks).
  /// Empty function => no pruning.
  ResourceBoxBoundFn box_lower_bound;
  /// The previous search's optimum under similar data characteristics
  /// (the switch-point observation: the winning cell moves rarely).
  /// Seeding the incumbent with it lets tight bounds prune almost the
  /// whole grid when no switch point was crossed. Snapped onto the
  /// current grid before use, so a stale or off-grid value is safe.
  std::optional<resource::ResourceConfig> warm_start;
};

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
  /// Lower-bound oracle invocations (each costs ~4 model evaluations).
  int64_t bound_probes = 0;
  /// True when the winning cell is the warm-start cell — no switch point
  /// was crossed since the previous search.
  bool warm_start_won = false;
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

  /// PlanResources with acceleration hints. The default ignores the
  /// hints — only searches that can exploit them while preserving their
  /// exactness contract override this (the hill climbers are already
  /// heuristic and gain nothing sound from a bound).
  virtual Result<ResourcePlanResult> PlanResourcesWithHints(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster,
      const ResourceSearchHints& hints) const {
    (void)hints;
    return PlanResources(cost, cluster);
  }

  virtual const char* name() const = 0;
};

/// Exhaustive search over every configuration in the grid
/// (Section VI-B.1). Optimal but expensive: cost is rp * rc evaluations.
/// The switch-aware search returns the same answer far cheaper; this one
/// stays as the reference it is tested against and as Figure 13's
/// baseline.
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

/// The switch-point-aware incremental grid search: exhaustive-equivalent
/// (bit-identical winner, cost, and tie-break to
/// BruteForceResourcePlanner) but typically evaluating a small fraction
/// of the grid. Two mechanisms compose:
///
///   1. *Warm start / join-plan reuse*: the previous search's optimum is
///      re-costed first and seeds the incumbent. The paper's Fig. 4/9
///      observation — optima move only at sparse switch points — makes
///      this seed almost always the final winner, so the rest of the
///      sweep is pure verification.
///   2. *Dominance pruning*: the grid is swept in row-major rank order
///      as rows, then blocks of `block_cells` cells; each is skipped
///      when a sound lower bound (hints.box_lower_bound, built from the
///      validated-monotone cost model) shows it cannot beat — or
///      cannot earlier-rank-tie — the incumbent.
///
/// The tie-break is load-bearing: the cost model clamps predictions at a
/// floor, so large equal-cost plateaus are common and "first cell in
/// row-major order wins" is part of the exhaustive search's observable
/// behavior. A block is therefore pruned only when its bound *strictly*
/// exceeds the incumbent, or ties it while the whole block ranks after
/// the incumbent's cell. Soundness argument: docs/PERF.md.
///
/// Without hints this degrades to the plain exhaustive scan (still
/// bit-identical).
class SwitchAwareGridResourcePlanner : public ResourcePlanner {
 public:
  /// Cells per pruning block within a row. Small enough that one
  /// surviving block costs little to scan, large enough that bound
  /// probes (~4 model evaluations each) amortize.
  static constexpr int64_t kDefaultBlockCells = 16;

  Result<ResourcePlanResult> PlanResources(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster) const override;

  Result<ResourcePlanResult> PlanResourcesWithHints(
      const ResourceCostFn& cost,
      const resource::ClusterConditions& cluster,
      const ResourceSearchHints& hints) const override;

  const char* name() const override { return "switch-aware-grid"; }

  /// Overrides kDefaultBlockCells (clamped to at least 1). The result
  /// is bit-identical for every block size; only the work changes.
  void set_block_cells(int64_t cells) {
    block_cells_ = cells < 1 ? 1 : cells;
  }

 private:
  int64_t block_cells_ = kDefaultBlockCells;
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
