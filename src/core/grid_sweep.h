#ifndef RAQO_CORE_GRID_SWEEP_H_
#define RAQO_CORE_GRID_SWEEP_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"
#include "core/resource_planner.h"
#include "cost/cost_vector.h"
#include "cost/model_bounds.h"
#include "resource/cluster_conditions.h"
#include "resource/pricing.h"
#include "resource/resource_config.h"

// The switch-point-aware incremental grid search (the evaluator's
// default, ResourceSearch::kSwitchAwareGrid): exhaustive-equivalent
// (bit-identical winner, cost and tie-break to BruteForceResourcePlanner)
// but typically evaluating a small fraction of the grid. Two mechanisms
// compose:
//
//   1. *Seeding from the bounds*: the block with the lowest lower bound
//      in the row with the lowest lower bound is evaluated first and
//      seeds the incumbent. The paper's Fig. 4/9 observation — optima
//      move only at sparse switch points, so they sit in a region the
//      cost model's bounds single out — makes this block almost always
//      hold the final winner; where the bounds are exact (a separable
//      extended model at time weight 1, with finite costs) it always
//      does.
//   2. *Dominance pruning*: the grid is swept in row-major rank order as
//      rows, then blocks of `block_cells` cells; each is skipped when a
//      sound lower bound (from a declared-monotone cost model) shows
//      it cannot beat — or cannot earlier-rank-tie — the incumbent.
//
// The tie-break is load-bearing: the cost model clamps predictions at a
// floor, so large equal-cost plateaus are common and "first cell in
// row-major order wins" is part of the exhaustive search's observable
// behaviour. A block is therefore pruned only when its bound *strictly*
// exceeds the incumbent, or ties it while the whole block ranks after
// the incumbent's cell. Soundness argument: docs/PERF.md.
//
// SweepGrid is a template on its objective, so it calls the objective
// directly, one block of one row at a time. An objective provides
//
//   void Cells(int64_t i, int64_t j0, int64_t j1, double* out) const;
//       the objective of cells (i, j0), ..., (i, j1 - 1) into
//       out[0, j1 - j0), row i being a container size and column j a
//       container count; +inf marks an infeasible cell, NaN counts as
//       +inf;
//   void RowBounds(double* out) const;
//       a lower bound of the objective over each whole row i into out[i];
//   void BlockBounds(int64_t i, int64_t block_cells, double* out) const;
//       a lower bound over each block b of row i, cells (i, b *
//       block_cells) onwards (the last block may be shorter), into
//       out[b].
//
// A bound of -inf declines to bound that box. The sweep only ever bounds
// boxes inside one row; it asks for the rows' bounds before anything
// else, and for a row's block bounds at the row's first block probe (the
// seed's row: when the seed is chosen).
namespace raqo::core {

/// Cells per pruning block within a row. Small enough that one surviving
/// block costs little to scan, large enough that bound probes amortize.
inline constexpr int64_t kSweepBlockCells = 16;

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

namespace sweep_internal {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// NaN objective values (e.g. from degenerate cardinality estimates)
/// would break the comparisons; treat them as infeasible.
inline double Sanitize(double cost) { return std::isnan(cost) ? kInf : cost; }

/// Running best of the sweep: the cheapest cell seen so far, with the
/// earliest row-major rank among equal-cost cells. The rank-aware update
/// matters because the seed block is evaluated out of rank order: a
/// later-swept cell of equal cost but earlier rank must still displace
/// it, or plateau ties would resolve differently than in the exhaustive
/// scan.
struct Incumbent {
  double cost = kInf;
  int64_t rank = std::numeric_limits<int64_t>::max();

  void Offer(double cell_cost, int64_t cell_rank) {
    if (cell_cost < cost ||
        (cell_cost == cost && cell_cost < kInf && cell_rank < rank)) {
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
inline bool Prunable(double lower_bound, const Incumbent& inc,
                     int64_t block_first_rank) {
  return lower_bound > inc.cost ||
         (lower_bound >= inc.cost && block_first_rank > inc.rank);
}

/// The index of the lowest of `n` bounds, the earliest on ties; a NaN
/// bound counts as +inf.
inline int64_t Lowest(const double* bounds, int64_t n) {
  int64_t lowest = 0;
  for (int64_t k = 1; k < n; ++k) {
    if (Sanitize(bounds[k]) < Sanitize(bounds[lowest])) lowest = k;
  }
  return lowest;
}

/// A scratch array of `n` doubles: on the stack when it fits, else on
/// the heap.
class Scratch {
 public:
  explicit Scratch(int64_t n) {
    if (n > kLocal) {
      heap_.resize(static_cast<size_t>(n));
      data_ = heap_.data();
    }
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  double* data() { return data_; }

 private:
  static constexpr int64_t kLocal = 64;
  double local_[kLocal];
  std::vector<double> heap_;
  double* data_ = local_;
};

}  // namespace sweep_internal

/// Runs the switch-aware sweep of `objective` over `g`: evaluates the
/// seed block (the lowest-bound block of the lowest-bound row), then
/// sweeps every other block in rank order under the prune rule. Each
/// cell is evaluated at most once, so `configs_explored` counts objective
/// calls and `cells_pruned` the rest of the grid. Fails with
/// FailedPrecondition when no cell is feasible.
template <typename Objective>
Result<ResourcePlanResult> SweepGrid(const Objective& objective,
                                     const GridGeometry& g,
                                     int64_t block_cells = kSweepBlockCells) {
  using sweep_internal::kInf;
  using sweep_internal::Lowest;
  using sweep_internal::Prunable;
  using sweep_internal::Sanitize;
  block_cells = std::max<int64_t>(block_cells, 1);
  const int64_t blocks = (g.nc_points + block_cells - 1) / block_cells;
  sweep_internal::Incumbent inc;
  ResourcePlanResult out;
  sweep_internal::Scratch row_bounds(g.cs_points);
  sweep_internal::Scratch block_bounds(blocks);
  sweep_internal::Scratch costs(std::min(block_cells, g.nc_points));
  auto evaluate = [&](int64_t i, int64_t j0, int64_t j1) {
    out.configs_explored += j1 - j0;
    objective.Cells(i, j0, j1, costs.data());
    for (int64_t j = j0; j < j1; ++j) {
      inc.Offer(Sanitize(costs.data()[j - j0]), g.RankOf(i, j));
    }
  };

  // The seed: the lowest-bound row's lowest-bound block, or the whole
  // row when a row is one block. The seed row's block bounds stay in
  // `block_bounds` for its sweep.
  objective.RowBounds(row_bounds.data());
  const int64_t seed_row = Lowest(row_bounds.data(), g.cs_points);
  int64_t bounded_row = -1;  // whose block bounds `block_bounds` holds
  int64_t seed_j0 = 0;
  if (blocks > 1) {
    objective.BlockBounds(seed_row, block_cells, block_bounds.data());
    bounded_row = seed_row;
    seed_j0 = Lowest(block_bounds.data(), blocks) * block_cells;
  }
  evaluate(seed_row, seed_j0, std::min(seed_j0 + block_cells, g.nc_points));

  // Rows in rank order with two-level branch-and-bound: the row box
  // first, then blocks of `block_cells`.
  for (int64_t i = 0; i < g.cs_points; ++i) {
    if (inc.cost < kInf) {
      ++out.bound_probes;
      if (Prunable(row_bounds.data()[i], inc, g.RankOf(i, 0))) continue;
    }
    for (int64_t j0 = 0; j0 < g.nc_points; j0 += block_cells) {
      if (i == seed_row && j0 == seed_j0) continue;
      // Block-level probe, skipped when the row is a single block (the
      // row probe above already covered it).
      if (blocks > 1 && inc.cost < kInf) {
        ++out.bound_probes;
        if (bounded_row != i) {
          objective.BlockBounds(i, block_cells, block_bounds.data());
          bounded_row = i;
        }
        if (Prunable(block_bounds.data()[j0 / block_cells], inc,
                     g.RankOf(i, j0))) {
          continue;
        }
      }
      evaluate(i, j0, std::min(j0 + block_cells, g.nc_points));
    }
  }

  if (inc.cost == kInf) {
    return Status::FailedPrecondition(
        "no feasible resource configuration in the cluster grid");
  }
  out.config = g.CellAt(inc.rank / g.nc_points, inc.rank % g.nc_points);
  out.cost = inc.cost;
  out.cells_pruned = g.cs_points * g.nc_points - out.configs_explored;
  return out;
}

/// The sweep objective of models over separable feature sets
/// (cost::FeatureSetSeparable): `CostVector{seconds, pricing.Cost(cell,
/// seconds)}.Weighted(time_weight)`, today's per-cell expression, with
/// the seconds and their bounds read from per-search term arrays.
/// Bit-identical to pricing each cell through PredictSeconds; each step
/// runs across a batch of cells or boxes, never across a cell's features.
class SeparableObjective {
 public:
  /// `seconds` must have been filled over the grid being swept. Sweep
  /// only a model whose bounds are sound (cost::ResourceBoundsSound),
  /// with a time weight in [0, 1] and a non-negative price rate: the
  /// envelope in which pricing the low corner at the seconds bound
  /// under-approximates the objective.
  SeparableObjective(const cost::SeparableGridSeconds& seconds,
                     const resource::PricingModel& pricing,
                     double time_weight)
      : seconds_(seconds), pricing_(pricing), time_weight_(time_weight) {}

  void Cells(int64_t i, int64_t j0, int64_t j1, double* out) const {
    seconds_.RowSeconds(i, j0, j1, out);
    const double cs = seconds_.container_size(i);
    const double* nc = seconds_.container_counts() + j0;
    for (int64_t k = 0; k < j1 - j0; ++k) out[k] = Price(out[k], cs, nc[k]);
  }

  /// The evaluator's box bounds: each box's seconds bound, priced at the
  /// box's low corner through the objective's own expression; across
  /// all rows at once, or across the blocks of one row.
  void RowBounds(double* out) const {
    seconds_.WholeRowBounds(out);
    const double nc = seconds_.container_counts()[0];
    for (int64_t i = 0; i < seconds_.rows(); ++i) {
      out[i] = Price(out[i], seconds_.container_size(i), nc);
    }
  }

  void BlockBounds(int64_t i, int64_t block_cells, double* out) const {
    seconds_.BlockBounds(i, block_cells, out);
    const double cs = seconds_.container_size(i);
    const double* nc = seconds_.container_counts();
    for (int64_t b = 0; b < seconds_.NumBlocks(block_cells); ++b) {
      out[b] = Price(out[b], cs, nc[b * block_cells]);
    }
  }

 private:
  /// The objective of `seconds` on (cs, nc).
  double Price(double seconds, double cs, double nc) const {
    return cost::CostVector{
        seconds, pricing_.Cost(resource::ResourceConfig(cs, nc), seconds)}
        .Weighted(time_weight_);
  }

  const cost::SeparableGridSeconds& seconds_;
  const resource::PricingModel& pricing_;
  double time_weight_;
};

}  // namespace raqo::core

#endif  // RAQO_CORE_GRID_SWEEP_H_
