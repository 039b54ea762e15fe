#include "core/resource_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace raqo::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// NaN objective values (e.g. from degenerate cardinality estimates)
/// would break the climbers' comparisons; treat them as infeasible.
double Sanitize(double cost) { return std::isnan(cost) ? kInf : cost; }

}  // namespace

Result<ResourcePlanResult> BruteForceResourcePlanner::PlanResources(
    const ResourceCostFn& cost,
    const resource::ClusterConditions& cluster) const {
  ResourcePlanResult best;
  best.cost = kInf;
  int64_t explored = 0;
  cluster.ForEachConfig([&](const resource::ResourceConfig& config) {
    ++explored;
    const double c = Sanitize(cost(config));
    if (c < best.cost) {
      best.cost = c;
      best.config = config;
    }
    return true;
  });
  best.configs_explored = explored;
  if (best.cost == kInf) {
    return Status::FailedPrecondition(
        "no feasible resource configuration in the cluster grid");
  }
  return best;
}

namespace {

/// Running best of the switch-aware sweep: the cheapest cell seen so
/// far, with the earliest row-major rank among equal-cost cells. The
/// rank-aware update matters because the warm start is evaluated out of
/// rank order: a later-swept cell of equal cost but earlier rank must
/// still displace it, or plateau ties would resolve differently than in
/// the exhaustive scan.
struct Incumbent {
  resource::ResourceConfig config;
  double cost = kInf;
  int64_t rank = std::numeric_limits<int64_t>::max();

  void Offer(const resource::ResourceConfig& c, double cell_cost,
             int64_t cell_rank) {
    if (cell_cost < cost ||
        (cell_cost == cost && cell_cost < kInf && cell_rank < rank)) {
      config = c;
      cost = cell_cost;
      rank = cell_rank;
    }
  }
};

/// The prune rule. A block may be skipped iff its lower bound strictly
/// exceeds the incumbent's cost, or matches it while every cell of the
/// block ranks after the incumbent's cell (`block_first_rank` is the
/// smallest rank in the block). Either way no block cell can beat the
/// final winner or tie it at an earlier rank, so the sweep's outcome is
/// bit-identical to the exhaustive scan (proof in docs/PERF.md).
bool Prunable(double lower_bound, const Incumbent& inc,
              int64_t block_first_rank) {
  return lower_bound > inc.cost ||
         (lower_bound >= inc.cost && block_first_rank > inc.rank);
}

/// Geometry of one grid sweep: cell coordinates and row-major ranks.
struct GridGeometry {
  double cs_min, cs_step, nc_min, nc_step;
  int64_t cs_points, nc_points;

  explicit GridGeometry(const resource::ClusterConditions& cluster)
      : cs_min(cluster.min().dim(resource::kContainerSizeGb)),
        cs_step(cluster.step().dim(resource::kContainerSizeGb)),
        nc_min(cluster.min().dim(resource::kNumContainers)),
        nc_step(cluster.step().dim(resource::kNumContainers)),
        cs_points(cluster.GridPoints(resource::kContainerSizeGb)),
        nc_points(cluster.GridPoints(resource::kNumContainers)) {}

  double CsAt(int64_t i) const {
    return cs_min + static_cast<double>(i) * cs_step;
  }
  double NcAt(int64_t j) const {
    return nc_min + static_cast<double>(j) * nc_step;
  }
  resource::ResourceConfig CellAt(int64_t i, int64_t j) const {
    return resource::ResourceConfig(CsAt(i), NcAt(j));
  }
  int64_t RankOf(int64_t i, int64_t j) const { return i * nc_points + j; }
};

/// Work counters of one sweep.
struct SweepStats {
  int64_t explored = 0;
  int64_t pruned = 0;
  int64_t bound_probes = 0;
};

/// Sweeps every row in rank order with two-level branch-and-bound (row
/// box first, then blocks of `block_cells`), updating `inc` and `stats`.
void SweepRows(const ResourceCostFn& cost, const GridGeometry& g,
               const ResourceBoxBoundFn& bound, int64_t block_cells,
               Incumbent* inc, SweepStats* stats) {
  for (int64_t i = 0; i < g.cs_points; ++i) {
    const double cs = g.CsAt(i);
    if (bound && (inc->cost < kInf || inc->rank < g.RankOf(i, 0))) {
      ++stats->bound_probes;
      const double row_lb =
          bound(resource::ResourceConfig(cs, g.NcAt(0)),
                resource::ResourceConfig(cs, g.NcAt(g.nc_points - 1)));
      if (Prunable(row_lb, *inc, g.RankOf(i, 0))) {
        stats->pruned += g.nc_points;
        continue;
      }
    }
    for (int64_t j0 = 0; j0 < g.nc_points; j0 += block_cells) {
      const int64_t j1 = std::min(j0 + block_cells, g.nc_points);
      // Block-level probe, skipped when the row is a single block (the
      // row probe above already covered it).
      if (bound && (j0 > 0 || j1 < g.nc_points) &&
          (inc->cost < kInf || inc->rank < g.RankOf(i, j0))) {
        ++stats->bound_probes;
        const double block_lb =
            bound(resource::ResourceConfig(cs, g.NcAt(j0)),
                  resource::ResourceConfig(cs, g.NcAt(j1 - 1)));
        if (Prunable(block_lb, *inc, g.RankOf(i, j0))) {
          stats->pruned += j1 - j0;
          continue;
        }
      }
      for (int64_t j = j0; j < j1; ++j) {
        const resource::ResourceConfig config = g.CellAt(i, j);
        ++stats->explored;
        const double c = Sanitize(cost(config));
        inc->Offer(config, c, g.RankOf(i, j));
      }
    }
  }
}

}  // namespace

Result<ResourcePlanResult> SwitchAwareGridResourcePlanner::PlanResources(
    const ResourceCostFn& cost,
    const resource::ClusterConditions& cluster) const {
  return PlanResourcesWithHints(cost, cluster, ResourceSearchHints{});
}

Result<ResourcePlanResult>
SwitchAwareGridResourcePlanner::PlanResourcesWithHints(
    const ResourceCostFn& cost, const resource::ClusterConditions& cluster,
    const ResourceSearchHints& hints) const {
  const GridGeometry g(cluster);
  Incumbent inc;
  SweepStats stats;

  // Warm start: snap the previous optimum onto *this* grid by index
  // (BHJ feasibility can shift the grid origin between searches, so the
  // raw config may sit off-grid) and evaluate it at its true rank. The
  // cell is evaluated again when its block survives pruning — the
  // double evaluation is the price of keeping `explored` an honest
  // count of cost-function calls.
  int64_t warm_rank = -1;
  if (hints.warm_start.has_value()) {
    const int64_t i = static_cast<int64_t>(std::llround(
        (hints.warm_start->dim(resource::kContainerSizeGb) - g.cs_min) /
        g.cs_step));
    const int64_t j = static_cast<int64_t>(std::llround(
        (hints.warm_start->dim(resource::kNumContainers) - g.nc_min) /
        g.nc_step));
    if (i >= 0 && i < g.cs_points && j >= 0 && j < g.nc_points) {
      const resource::ResourceConfig config = g.CellAt(i, j);
      ++stats.explored;
      const double c = Sanitize(cost(config));
      warm_rank = g.RankOf(i, j);
      inc.Offer(config, c, warm_rank);
    }
  }

  SweepRows(cost, g, hints.box_lower_bound, block_cells_, &inc, &stats);

  if (inc.cost == kInf) {
    return Status::FailedPrecondition(
        "no feasible resource configuration in the cluster grid");
  }
  ResourcePlanResult best;
  best.config = inc.config;
  best.cost = inc.cost;
  best.configs_explored = stats.explored;
  best.cells_pruned = stats.pruned;
  best.bound_probes = stats.bound_probes;
  best.warm_start_won = warm_rank >= 0 && inc.rank == warm_rank;
  return best;
}

Result<ResourcePlanResult> HillClimbResourcePlanner::PlanResources(
    const ResourceCostFn& cost,
    const resource::ClusterConditions& cluster) const {
  // Algorithm 1, lines 1-3: step sizes come from the cluster's discrete
  // grid; candidate steps are one backward and one forward; the climb
  // starts from the smallest resources.
  const resource::ResourceConfig& step = cluster.step();
  static constexpr double kCandidates[] = {-1.0, 1.0};
  resource::ResourceConfig curr = cluster.min();

  ResourcePlanResult result;
  int64_t explored = 0;

  // Lines 4-21: climb until no candidate step improves the cost.
  while (true) {
    const double curr_cost = Sanitize(cost(curr));
    ++explored;
    double best_cost = curr_cost;
    for (size_t dim = 0; dim < resource::kNumResourceDims; ++dim) {
      int best_candidate = -1;
      for (int j = 0; j < 2; ++j) {
        const double delta = step.dim(dim) * kCandidates[j];
        const double moved = curr.dim(dim) + delta;
        if (moved > cluster.max().dim(dim) + 1e-9 ||
            moved < cluster.min().dim(dim) - 1e-9) {
          continue;
        }
        curr.set_dim(dim, moved);           // apply
        const double temp = Sanitize(cost(curr));  // probe
        ++explored;
        curr.set_dim(dim, moved - delta);   // backtrack
        if (temp < best_cost) {
          best_cost = temp;
          best_candidate = j;
        }
      }
      if (best_candidate != -1) {
        curr.set_dim(dim,
                     curr.dim(dim) + step.dim(dim) * kCandidates[best_candidate]);
      }
    }
    if (best_cost >= curr_cost) {
      // Lines 20-21: no better neighbor exists.
      result.config = curr;
      result.cost = curr_cost;
      result.configs_explored = explored;
      break;
    }
  }

  if (result.cost == kInf) {
    return Status::FailedPrecondition(
        "hill climb start (and its neighborhood) is infeasible; restrict "
        "the cluster conditions to the feasible region first");
  }
  return result;
}

Result<ResourcePlanResult> AcceleratedHillClimbResourcePlanner::PlanResources(
    const ResourceCostFn& cost,
    const resource::ClusterConditions& cluster) const {
  resource::ResourceConfig curr = cluster.min();
  int64_t explored = 0;
  double curr_cost = Sanitize(cost(curr));
  ++explored;

  bool improved = true;
  while (improved) {
    improved = false;
    for (size_t dim = 0; dim < resource::kNumResourceDims; ++dim) {
      for (double direction : {1.0, -1.0}) {
        // Doubling line search along this direction: keep moving while
        // the cost improves, doubling the stride; stop at the first miss
        // or at the cluster boundary.
        double stride = cluster.step().dim(dim);
        while (true) {
          const double moved = curr.dim(dim) + direction * stride;
          if (moved > cluster.max().dim(dim) + 1e-9 ||
              moved < cluster.min().dim(dim) - 1e-9) {
            break;
          }
          resource::ResourceConfig candidate = curr;
          candidate.set_dim(dim, moved);
          const double c = Sanitize(cost(candidate));
          ++explored;
          if (c < curr_cost) {
            curr = candidate;
            curr_cost = c;
            improved = true;
            stride *= 2.0;
          } else {
            break;
          }
        }
      }
    }
  }

  if (curr_cost == kInf) {
    return Status::FailedPrecondition(
        "accelerated hill climb start is infeasible; restrict the cluster "
        "conditions to the feasible region first");
  }
  ResourcePlanResult result;
  result.config = curr;
  result.cost = curr_cost;
  result.configs_explored = explored;
  return result;
}

}  // namespace raqo::core
