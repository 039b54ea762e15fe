#include "plan/cardinality.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace raqo::plan {

CardinalityEstimator::CardinalityEstimator(const catalog::Catalog* catalog)
    : catalog_(catalog) {
  RAQO_CHECK(catalog != nullptr);
}

RelationStats CardinalityEstimator::Estimate(const TableSet& tables) {
  RAQO_CHECK(!tables.Empty()) << "cannot estimate the empty relation";
  auto it = cache_.find(tables);
  if (it != cache_.end()) return it->second;

  RelationStats stats;
  stats.rows = 1.0;
  stats.row_bytes = 0.0;
  // Wide joins (the paper evaluates up to 100-way) can overflow a plain
  // product of row counts to +inf before the selectivities pull it back
  // down (and inf * 0 is NaN); track the log alongside and fall back to
  // it when the direct product leaves the finite range.
  double log_rows = 0.0;
  const std::vector<catalog::TableId> ids = tables.ToVector();
  for (catalog::TableId id : ids) {
    const catalog::TableDef& t = catalog_->table(id);
    stats.rows *= t.row_count;
    log_rows += std::log(t.row_count);
    stats.row_bytes += t.row_bytes;
  }
  for (const catalog::JoinEdge& e : catalog_->join_graph().edges()) {
    if (tables.Contains(e.left) && tables.Contains(e.right)) {
      stats.rows *= e.selectivity;
      log_rows += std::log(e.selectivity);
    }
  }
  if (!std::isfinite(stats.rows) || stats.rows <= 0.0) {
    stats.rows = std::exp(std::clamp(log_rows, -700.0, 700.0));
  }
  cache_.emplace(tables, stats);
  return stats;
}

JoinInputStats CardinalityEstimator::JoinStats(const PlanNode& join) {
  RAQO_CHECK(join.is_join()) << "JoinStats on a scan node";
  JoinInputStats stats;
  stats.left = Estimate(join.left()->tables());
  stats.right = Estimate(join.right()->tables());
  stats.output = Estimate(join.tables());
  return stats;
}

}  // namespace raqo::plan
