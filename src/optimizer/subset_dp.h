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

/// A planner's `<prefix>.{runs,subproblems,pruned,skipped,
/// plans_considered}` counters and `<prefix>.memo_entries` gauge, looked
/// up once per planner into a function-local static.
struct SubsetDpMetrics {
  explicit SubsetDpMetrics(const std::string& prefix);
  obs::Counter* runs;
  obs::Counter* subproblems;
  obs::Counter* pruned;
  obs::Counter* skipped;
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
/// order, the planner's split rule offers splits `left`; AddSplit records
/// left ⋈ (mask ^ left) under every JoinImpl as a candidate, keyed by a
/// lower bound of its scalarized cost that the evaluator answers to a
/// bound request. Settle then costs the subset's candidates best-first,
/// in increasing key order, and skips, without asking the evaluator,
/// each one whose key shows it cannot win (docs/PERF.md, section 5). The
/// subset keeps the cheapest candidate by scalarized cost, the earliest
/// offered winning ties: the plan an offer-order DP that costs every
/// candidate would keep. All scratch lives on the arena; the returned
/// plan is heap-allocated.
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
  /// Offers each split allowed to build `mask` to AddSplit, and counts
  /// each one it refuses with Prune.
  virtual void OfferSplits(uint32_t mask) = 0;

  /// Records left ⋈ (mask ^ left) under every JoinImpl as a candidate of
  /// `mask`, unless an input has no plan.
  void AddSplit(uint32_t mask, uint32_t left);
  /// Costs the candidates of `mask` recorded since the last call,
  /// best-first, and keeps the winner in the memo. The engine calls it
  /// after OfferSplits; a split rule that decides on valid(mask) calls
  /// it first.
  void Settle(uint32_t mask);
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
    /// The winner's offer index among its subset's candidates.
    uint32_t offer = 0;
    std::optional<resource::ResourceConfig> resources;
  };
  /// One (split, join implementation) offered for the subset being
  /// planned.
  struct Candidate {
    uint32_t left_mask;
    /// Its place in the order the split rule offered the subset's
    /// candidates; ties in key and in cost go to the lower.
    uint32_t offer;
    plan::JoinImpl impl;
    /// Whether `key` holds a lower bound: false when the evaluator gave
    /// none or the key is NaN. Such candidates are costed first, in
    /// offer order, and never skipped.
    bool bounded;
    /// (inputs + bound).Weighted(w): at most the candidate's scalar.
    double key;
    /// The summed cost of the two inputs.
    cost::CostVector inputs;
  };
  // The memo and the candidates live in the arena, which runs no
  // destructors.
  static_assert(std::is_trivially_destructible_v<Entry>,
                "DP entries must stay trivially destructible (arena scratch)");
  static_assert(std::is_trivially_destructible_v<Candidate>,
                "DP candidates must stay trivially destructible");

  plan::TableSet SetOf(uint32_t mask) const;
  /// The estimated bytes of subset `mask`, estimated at its first use
  /// and kept for the rest of the run.
  double BytesOf(uint32_t mask);
  std::unique_ptr<plan::PlanNode> Rebuild(uint32_t mask) const;

  const SubsetDpConfig config_;
  Arena local_arena_;
  Arena* arena_ = config_.arena != nullptr ? config_.arena : &local_arena_;
  const std::vector<catalog::TableId>* tables_ = nullptr;
  PlanCostEvaluator* evaluator_ = nullptr;
  plan::CardinalityEstimator* estimator_ = nullptr;
  ArenaVector<Entry> memo_{ArenaAllocator<Entry>(arena_)};
  ArenaVector<uint32_t> adjacency_{ArenaAllocator<uint32_t>(arena_)};
  /// Per subset: its estimated bytes, or -1 before its first use.
  ArenaVector<double> bytes_{ArenaAllocator<double>(arena_)};
  /// The candidates of the subset being planned that are not settled yet.
  ArenaVector<Candidate> pending_{ArenaAllocator<Candidate>(arena_)};
  /// Candidates offered so far for the subset being planned.
  uint32_t offers_ = 0;
  /// Whether the DP asks for bounds: only at a weight in [0, 1], where a
  /// candidate's scalar grows with each cost component, as the skip rule
  /// needs.
  const bool bounded_ =
      config_.time_weight >= 0.0 && config_.time_weight <= 1.0;
  PlanningStats stats_;
  int64_t subproblems_ = 0;
  int64_t pruned_ = 0;
  /// Candidates skipped because their key showed they cannot win.
  int64_t skipped_ = 0;
};

}  // namespace raqo::optimizer::internal

#endif  // RAQO_OPTIMIZER_SUBSET_DP_H_
