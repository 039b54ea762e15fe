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
