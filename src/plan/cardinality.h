#ifndef RAQO_PLAN_CARDINALITY_H_
#define RAQO_PLAN_CARDINALITY_H_

#include <unordered_map>

#include "catalog/catalog.h"
#include "plan/plan_node.h"
#include "plan/table_set.h"

namespace raqo::plan {

/// Estimated statistics of an intermediate result.
struct RelationStats {
  double rows = 0.0;
  double row_bytes = 0.0;
  double bytes() const { return rows * row_bytes; }
  double gb() const { return bytes() / (1024.0 * 1024.0 * 1024.0); }
};

/// Statistics of one join operator's two inputs, used to derive the cost
/// model's "smaller input size" feature and the simulator's shuffle sizes.
struct JoinInputStats {
  RelationStats left;
  RelationStats right;
  RelationStats output;

  double smaller_bytes() const {
    return left.bytes() < right.bytes() ? left.bytes() : right.bytes();
  }
  double larger_bytes() const {
    return left.bytes() < right.bytes() ? right.bytes() : left.bytes();
  }
  double smaller_gb() const {
    return smaller_bytes() / (1024.0 * 1024.0 * 1024.0);
  }
  double larger_gb() const {
    return larger_bytes() / (1024.0 * 1024.0 * 1024.0);
  }
};

/// Textbook cardinality estimation over the catalog's join graph:
/// |S| = prod(rows of tables in S) * prod(selectivity of edges inside S).
/// Row widths add up across a join (concatenated tuples). Memoized per
/// table set, so repeated planner probes are cheap.
class CardinalityEstimator {
 public:
  /// The estimator keeps a pointer to `catalog`; it must outlive this.
  explicit CardinalityEstimator(const catalog::Catalog* catalog);

  /// Estimated stats of joining exactly the given table set.
  RelationStats Estimate(const TableSet& tables);

  /// Input/output statistics of a join node.
  JoinInputStats JoinStats(const PlanNode& join);

  /// Number of memoized entries (for tests).
  size_t cache_size() const { return cache_.size(); }

 private:
  const catalog::Catalog* catalog_;
  std::unordered_map<TableSet, RelationStats, TableSetHash> cache_;
};

}  // namespace raqo::plan

#endif  // RAQO_PLAN_CARDINALITY_H_
