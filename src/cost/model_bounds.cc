#include "cost/model_bounds.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace raqo::cost {

bool ResourceBoundsSound(const OperatorCostModel& model) {
  if (!FeatureSetResourceMonotone(model.feature_set())) return false;
  for (double w : model.model().weights) {
    if (!std::isfinite(w)) return false;
  }
  return true;
}

double SecondsLowerBound(const OperatorCostModel& model,
                         const JoinFeatures& data,
                         const resource::ResourceConfig& lo,
                         const resource::ResourceConfig& hi) {
  // Per-feature corner minima: phi is componentwise monotone, so each
  // w_i * phi_i attains its box minimum at one of the 4 corners.
  const double cs[2] = {lo.container_size_gb(), hi.container_size_gb()};
  const double nc[2] = {lo.num_containers(), hi.num_containers()};
  double corners[4][kMaxFeatures];
  size_t n = 0;
  for (int c = 0; c < 4; ++c) {
    JoinFeatures corner = data;
    corner.container_size_gb = cs[c / 2];
    corner.num_containers = nc[c % 2];
    n = ExpandFeaturesInto(corner, model.feature_set(), corners[c]);
  }

  const LinearModel& lm = model.model();
  double sum = lm.has_intercept ? lm.weights.back() : 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double w = lm.weights[i];
    double term = w * corners[0][i];
    for (int c = 1; c < 4; ++c) term = std::min(term, w * corners[c][i]);
    sum += term;
  }
  return std::max(sum, OperatorCostModel::kMinSeconds);
}

void SeparableGridSeconds::Fill(const OperatorCostModel& model, double ss,
                                double ls,
                                const resource::ClusterConditions& grid) {
  const FeatureSet set = model.feature_set();
  const std::vector<FeatureResourceTrend>& trends = FeatureResourceTrends(set);
  const std::vector<double>& weights = model.model().weights;
  block_cells_ = 0;

  const int64_t rows = grid.GridPoints(resource::kContainerSizeGb);
  const int64_t cols = grid.GridPoints(resource::kNumContainers);
  const double cs_min = grid.min().container_size_gb();
  const double cs_step = grid.step().container_size_gb();
  const double nc_min = grid.min().num_containers();
  const double nc_step = grid.step().num_containers();
  // An int counter converts to double exactly as the sweep's int64_t one
  // does, and vectorizes.
  cs_.resize(static_cast<size_t>(rows));
  for (int i = 0; i < static_cast<int>(rows); ++i) {
    cs_[i] = cs_min + static_cast<double>(i) * cs_step;
  }
  nc_.resize(static_cast<size_t>(cols));
  for (int j = 0; j < static_cast<int>(cols); ++j) {
    nc_[j] = nc_min + static_cast<double>(j) * nc_step;
  }

  // Each axis's features sit in index order, as ExpandAxisFeatures writes
  // them (layout: products_), and are weighed in place.
  int64_t terms_on[3] = {0, 0, 0};
  for (const FeatureResourceTrend& trend : trends) {
    const FeatureAxis axis = FeatureAxisOf(trend);
    RAQO_CHECK(axis != FeatureAxis::kBoth)
        << "model '" << model.name() << "' has a feature on both axes";
    ++terms_on[static_cast<size_t>(axis)];
  }
  const int64_t points[3] = {1, rows, cols};
  const int64_t offset_of[3] = {0, terms_on[0],
                                terms_on[0] + terms_on[1] * rows};
  products_.resize(static_cast<size_t>(offset_of[2] + terms_on[2] * cols));
  double* products = products_.data();
  ExpandAxisFeatures(set, FeatureAxis::kData, ss, ls, nullptr, 1,
                     products + offset_of[0]);
  ExpandAxisFeatures(set, FeatureAxis::kContainerSize, ss, ls, cs_.data(),
                     cs_.size(), products + offset_of[1]);
  ExpandAxisFeatures(set, FeatureAxis::kNumContainers, ss, ls, nc_.data(),
                     nc_.size(), products + offset_of[2]);

  // Place each term, in index order, and weigh its features; a column
  // term of the head is weighed below, in its prefix pass.
  head_ = 0;
  while (head_ < trends.size() &&
         FeatureAxisOf(trends[head_]) != FeatureAxis::kContainerSize) {
    ++head_;
  }
  static constexpr Kind kKindOf[3] = {Kind::kData, Kind::kRow, Kind::kColumn};
  terms_.clear();
  int64_t next_on[3] = {0, 0, 0};
  for (size_t k = 0; k < trends.size(); ++k) {
    const size_t a = static_cast<size_t>(FeatureAxisOf(trends[k]));
    const int64_t offset = offset_of[a] + next_on[a]++ * points[a];
    terms_.push_back(Term{kKindOf[a], offset});
    if (kKindOf[a] == Kind::kColumn && k < head_) continue;
    for (int64_t x = 0; x < points[a]; ++x) products[offset + x] *= weights[k];
  }
  four_row_tail_ = (terms_.size() - head_) == 4;
  for (size_t t = head_; t < terms_.size(); ++t) {
    if (terms_[t].kind == Kind::kColumn) four_row_tail_ = false;
  }

  // The column prefix: the intercept (0 without one) plus every head
  // term, in index order. The leading data terms add the same value to
  // every column, so their running sum is taken once.
  double lead = model.model().has_intercept ? weights.back() : 0.0;
  size_t t = 0;
  for (; t < head_ && terms_[t].kind == Kind::kData; ++t) {
    lead += products[terms_[t].offset];
  }
  prefix_.assign(static_cast<size_t>(cols), lead);
  double* prefix = prefix_.data();
  for (; t < head_; ++t) {
    double* p = products + terms_[t].offset;
    if (terms_[t].kind == Kind::kColumn) {
      for (int64_t j = 0; j < cols; ++j) {
        p[j] *= weights[t];
        prefix[j] += p[j];
      }
    } else {
      for (int64_t j = 0; j < cols; ++j) prefix[j] += p[0];
    }
  }
}

double SeparableGridSeconds::HeadBound(int64_t j0, int64_t jl) const {
  // Four running minima, so that no compare waits on the one before.
  const double* p = prefix_.data();
  double m[4] = {p[j0], p[j0], p[j0], p[j0]};
  int64_t j = j0;
  for (; j + 3 <= jl; j += 4) {
    for (int k = 0; k < 4; ++k) m[k] = std::min(m[k], p[j + k]);
  }
  for (; j <= jl; ++j) m[0] = std::min(m[0], p[j]);
  return std::min(std::min(m[0], m[1]), std::min(m[2], m[3]));
}

void SeparableGridSeconds::WholeRowBounds(double* out) const {
  const int64_t cols = columns();
  const double head = HeadBound(0, cols - 1);
  for (int64_t i = 0; i < rows(); ++i) out[i] = head;
  for (size_t t = head_; t < terms_.size(); ++t) {
    const double* p = products_.data() + terms_[t].offset;
    if (terms_[t].kind == Kind::kRow) {
      for (int64_t i = 0; i < rows(); ++i) out[i] += p[i];
    } else {
      const double v =
          terms_[t].kind == Kind::kData ? p[0] : std::min(p[0], p[cols - 1]);
      for (int64_t i = 0; i < rows(); ++i) out[i] += v;
    }
  }
  for (int64_t i = 0; i < rows(); ++i) {
    out[i] = std::max(out[i], OperatorCostModel::kMinSeconds);
  }
}

void SeparableGridSeconds::BlockBounds(int64_t i, int64_t block_cells,
                                       double* out) const {
  const int64_t cols = columns();
  const int64_t blocks = NumBlocks(block_cells);
  auto last = [&](int64_t b) {
    return std::min((b + 1) * block_cells, cols) - 1;
  };
  if (block_cells_ != block_cells) {
    block_cells_ = block_cells;
    block_heads_.resize(static_cast<size_t>(blocks));
    for (int64_t b = 0; b < blocks; ++b) {
      block_heads_[b] = HeadBound(b * block_cells, last(b));
    }
  }
  const double* products = products_.data();
  SumRow(i, block_heads_.data(), blocks,
         [&](const Term& term, int64_t b) {
           const double* p = products + term.offset;
           return std::min(p[b * block_cells], p[last(b)]);
         },
         out);
}

}  // namespace raqo::cost
