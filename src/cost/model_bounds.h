#ifndef RAQO_COST_MODEL_BOUNDS_H_
#define RAQO_COST_MODEL_BOUNDS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cost/cost_model.h"
#include "cost/features.h"
#include "resource/cluster_conditions.h"
#include "resource/resource_config.h"

namespace raqo::cost {

/// True when corner bounds of `model` over resource boxes are sound —
/// the "monotone cost-model dimensions" half of the switch-aware grid
/// search (docs/PERF.md): its feature set is declared per-dimension
/// monotone (FeatureSetResourceMonotone; not kPeakedProbe) and every
/// weight is finite. A model that is not is swept without bounds, never
/// pruned unsoundly.
///
/// Soundness argument. Every feature of a declared-monotone set is, for
/// fixed data characteristics, monotone along each resource dimension
/// over any positive box (FeatureResourceTrends declares this; the sets
/// are a closed enum, and ResourceBoundOracleTest checks every
/// declaration numerically). A componentwise-monotone function attains
/// its extremes over a box at the box corners, so for each feature i,
///   min over box of w_i * phi_i = min over the 4 corners of w_i * phi_i,
/// and summing per-feature corner minima under-approximates the linear
/// response everywhere in the box:
///   sum_i min_corners(w_i * phi_i) + intercept <= w . phi(r) for all r.
/// PredictSeconds clamps at kMinSeconds, and max is monotone, so
///   max(linear lower bound, kMinSeconds) <= PredictSeconds(r).
/// The bound needs no assumption on weight signs and is exact whenever
/// one corner simultaneously minimizes every term.
bool ResourceBoundsSound(const OperatorCostModel& model);

/// Lower bound of model.PredictSeconds over every resource configuration
/// in the inclusive box [lo, hi], for the fixed data characteristics in
/// `data` (its resource fields are ignored): the corner-minima sum above.
/// Sound when ResourceBoundsSound(model). Requires lo <= hi per dimension
/// and positive resource values. The search prices bounds from term
/// arrays (SeparableGridSeconds); this is the reference they are tested
/// against bit for bit.
double SecondsLowerBound(const OperatorCostModel& model,
                         const JoinFeatures& data,
                         const resource::ResourceConfig& lo,
                         const resource::ResourceConfig& hi);

/// PredictSeconds and SecondsLowerBound of one model over one resource
/// grid, for fixed data sizes, priced from per-search term arrays. It
/// applies to separable feature sets (FeatureSetSeparable), whose every
/// term `w_k * phi_k` reads at most one resource axis:
///   - data terms are computed once;
///   - per-column terms (container count), and the column prefix (the
///     running sum of every term before the first per-row term), once
///     per grid column;
///   - per-row terms (container size) once per grid row.
///
/// PredictSeconds adds `intercept + term_0 + term_1 + ...` in index
/// order. A cell's seconds are its column prefix plus the remaining terms
/// in index order, then max(., kMinSeconds): the same operations on the
/// same operands, so the same bits. A bound over cells of one row is the
/// same index-order sum with each per-column term replaced by its minimum
/// over the box's two end columns: the box's four corners are two
/// distinct pairs, so this is what SecondsLowerBound computes for it
/// (docs/PERF.md, "Separable evaluation").
class SeparableGridSeconds {
 public:
  /// Fills the arrays for `model` at data sizes `ss` and `ls` over
  /// `grid`: row i is container size min + i * step, column j container
  /// count min + j * step, as the grid sweep enumerates them. Reuses the
  /// storage of earlier fills. `model` must use a separable feature set.
  void Fill(const OperatorCostModel& model, double ss, double ls,
            const resource::ClusterConditions& grid);

  /// The grid's container size of row i and container count of column
  /// j, as filled.
  double container_size(int64_t i) const { return cs_[i]; }
  const double* container_counts() const { return nc_.data(); }

  /// Writes the seconds of cells (i, j0), ..., (i, j1 - 1) to
  /// out[0, j1 - j0): each bit for bit model.PredictSeconds({ss, ls,
  /// cs_i, nc_j}).
  void RowSeconds(int64_t i, int64_t j0, int64_t j1, double* out) const {
    const double* products = products_.data();
    SumRow(i, prefix_.data() + j0, j1 - j0,
           [&](const Term& term, int64_t k) {
             return products[term.offset + j0 + k];
           },
           out);
  }

  /// Lower bounds of the seconds over the boxes the grid sweep probes,
  /// a batch at a time: into out[i] the whole of each row i, and into
  /// out[b] each block b of row i (columns b * block_cells to (b + 1) *
  /// block_cells - 1; the last block may be shorter). The bound of cells
  /// (i, j0), ..., (i, jl) is bit for bit SecondsLowerBound(model, data,
  /// {cs_i, nc_j0}, {cs_i, nc_jl}). Not thread-safe, like Fill.
  void WholeRowBounds(double* out) const;
  void BlockBounds(int64_t i, int64_t block_cells, double* out) const;

  int64_t rows() const { return static_cast<int64_t>(cs_.size()); }
  int64_t columns() const { return static_cast<int64_t>(nc_.size()); }
  int64_t NumBlocks(int64_t block_cells) const {
    return (columns() + block_cells - 1) / block_cells;
  }

 private:
  enum class Kind : uint8_t { kData, kRow, kColumn };
  /// One term: its kind and where its products start in `products_`
  /// (one value for a data term, one per row or per column otherwise).
  struct Term {
    Kind kind;
    int64_t offset;
  };

  /// Writes max(head[k] + the terms after the head, kMinSeconds) to
  /// out[k] for k in [0, n), every k adding the terms in index order;
  /// `column(term, k)` is a per-column term's value at k.
  template <typename Column>
  void SumRow(int64_t i, const double* head, int64_t n, const Column& column,
              double* out) const {
    const double* products = products_.data();
    auto at_row = [&](const Term& term) {
      return products[term.offset + (term.kind == Kind::kRow ? i : 0)];
    };
    if (four_row_tail_) {
      // kExtended: four terms after the head, each one value along the
      // row. Held in locals, the loop runs from registers and vectorizes
      // (its end-to-end effect: docs/PERF.md, "Separable evaluation").
      const double a = at_row(terms_[head_]);
      const double b = at_row(terms_[head_ + 1]);
      const double c = at_row(terms_[head_ + 2]);
      const double d = at_row(terms_[head_ + 3]);
      for (int64_t k = 0; k < n; ++k) {
        out[k] = std::max(head[k] + a + b + c + d,
                          OperatorCostModel::kMinSeconds);
      }
      return;
    }
    std::copy(head, head + n, out);
    for (size_t t = head_; t < terms_.size(); ++t) {
      const Term& term = terms_[t];
      if (term.kind == Kind::kColumn) {
        for (int64_t k = 0; k < n; ++k) out[k] += column(term, k);
      } else {
        const double v = at_row(term);
        for (int64_t k = 0; k < n; ++k) out[k] += v;
      }
    }
    for (int64_t k = 0; k < n; ++k) {
      out[k] = std::max(out[k], OperatorCostModel::kMinSeconds);
    }
  }

  /// The sum of the head terms over the box of columns [j0, jl]: each
  /// column term at its minimum over the two end columns.
  double HeadBound(int64_t j0, int64_t jl) const;

  double start_ = 0.0;      ///< the intercept, or 0 without one
  std::vector<double> cs_;  ///< container size per row
  std::vector<double> nc_;  ///< container count per column
  /// Every term's products w_k * phi_k: the data terms, then each per-row
  /// term's row array, then each per-column term's column array.
  std::vector<double> products_;
  std::vector<Term> terms_;     ///< all terms, in index order
  std::vector<double> prefix_;  ///< per column
  size_t head_ = 0;  ///< terms_[0, head_) are summed into prefix_
  /// Whether exactly four terms follow the head and none is a column
  /// term (SumRow's fast case).
  bool four_row_tail_ = false;

  /// BlockBounds' head sums per block of `block_cells_` columns (0: not
  /// taken since the last fill). Every row has the same ones, so they are
  /// taken at a search's first block probe, by the const BlockBounds,
  /// hence mutable (their end-to-end effect: docs/PERF.md).
  mutable int64_t block_cells_ = 0;
  mutable std::vector<double> block_heads_;
};

}  // namespace raqo::cost

#endif  // RAQO_COST_MODEL_BOUNDS_H_
