#ifndef RAQO_OPTIMIZER_SUBSET_DP_H_
#define RAQO_OPTIMIZER_SUBSET_DP_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "catalog/catalog.h"
#include "common/arena.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "optimizer/cost_evaluator.h"
#include "optimizer/planner_result.h"
#include "plan/cardinality.h"

// The dynamic program over table subsets under both join enumerators.
// Only selinger.cc and bushy_dp.cc include this header.
namespace raqo::optimizer::internal {

/// A planner's `<prefix>.{runs,subproblems,pruned,plans_considered}`
/// counters and `<prefix>.memo_entries` gauge, looked up once per planner
/// into a function-local static.
struct SubsetDpMetrics {
  explicit SubsetDpMetrics(const std::string& prefix);
  obs::Counter* runs;
  obs::Counter* subproblems;
  obs::Counter* pruned;
  obs::Counter* plans_considered;
  obs::Gauge* memo_entries;
};

/// What a planner tells the engine about itself.
struct SubsetDpConfig {
  const char* span;        // span name and metric prefix
  const char* enumerator;  // names the planner in the table-limit message
  const char* infeasible;  // the message when no plan is feasible
  int max_tables;
  double time_weight;
  Arena* arena;  // borrowed scratch; nullptr plans on a run-local arena
};

/// Bottom-up DP over the subsets of a query's tables (bitmasks over table
/// positions). For each subset of two or more tables, in increasing mask
/// order, the planner's split rule offers splits `left`; CostSplit prices
/// left ⋈ (mask ^ left) under every JoinImpl and keeps the cheapest by
/// scalarized cost, the first found winning ties. All scratch lives on the
/// arena; the returned plan is heap-allocated.
class SubsetDp {
 public:
  /// Checks the arguments, resets the evaluator's counters, runs the DP,
  /// flushes its counters once and rebuilds the winning tree.
  Result<PlannedQuery> Run(const catalog::Catalog& catalog,
                           const std::vector<catalog::TableId>& tables,
                           PlanCostEvaluator& evaluator);

 protected:
  explicit SubsetDp(const SubsetDpConfig& config) : config_(config) {}

  virtual const SubsetDpMetrics& Metrics() const = 0;
  /// Runs once per plan of two or more tables, before the first subset.
  virtual void Prepare() {}
  /// Offers each split allowed to build `mask` to CostSplit, and counts
  /// each one it refuses with Prune.
  virtual void OfferSplits(uint32_t mask) = 0;

  void CostSplit(uint32_t mask, uint32_t left);
  void Prune() { ++pruned_; }
  bool valid(uint32_t mask) const { return memo_[mask].valid; }
  /// Whether a join edge links some table of `a` to some table of `b`.
  bool Adjacent(uint32_t a, uint32_t b) const;
  uint32_t full() const { return (uint32_t{1} << tables_->size()) - 1; }
  Arena* arena() { return arena_; }

 private:
  /// The best plan found for one subset: split, implementation, cost.
  struct Entry {
    bool valid = false;
    double scalar = 0.0;
    cost::CostVector cost;
    /// Left side of the winning split (0 for singletons); the right side
    /// is mask ^ left_mask.
    uint32_t left_mask = 0;
    plan::JoinImpl impl = plan::JoinImpl::kSortMergeJoin;
    std::optional<resource::ResourceConfig> resources;
  };
  // The memo lives in the arena, which runs no destructors.
  static_assert(std::is_trivially_destructible_v<Entry>,
                "DP entries must stay trivially destructible (arena scratch)");

  plan::TableSet SetOf(uint32_t mask) const;
  std::unique_ptr<plan::PlanNode> Rebuild(uint32_t mask) const;

  const SubsetDpConfig config_;
  Arena local_arena_;
  Arena* arena_ = config_.arena != nullptr ? config_.arena : &local_arena_;
  const std::vector<catalog::TableId>* tables_ = nullptr;
  PlanCostEvaluator* evaluator_ = nullptr;
  plan::CardinalityEstimator* estimator_ = nullptr;
  ArenaVector<Entry> memo_{ArenaAllocator<Entry>(arena_)};
  ArenaVector<uint32_t> adjacency_{ArenaAllocator<uint32_t>(arena_)};
  PlanningStats stats_;
  int64_t subproblems_ = 0;
  int64_t pruned_ = 0;
};

}  // namespace raqo::optimizer::internal

#endif  // RAQO_OPTIMIZER_SUBSET_DP_H_
