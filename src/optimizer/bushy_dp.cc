#include "optimizer/bushy_dp.h"

#include "optimizer/subset_dp.h"

namespace raqo::optimizer {

namespace {

/// Bushy splits: unordered pairs of connected, adjacent parts, with the
/// lowest table on the left so each pair is costed once (operator costing
/// is symmetric in the input sizes). A disconnected subset may be split
/// anywhere.
class BushyDp final : public internal::SubsetDp {
 public:
  explicit BushyDp(const BushyDpOptions& options)
      : SubsetDp({"planner.bushy_dp", "bushy DP",
                  "bushy DP found no feasible plan", kMaxBushyDpTables,
                  options.time_weight, /*arena=*/nullptr}) {}

 private:
  const internal::SubsetDpMetrics& Metrics() const override {
    static const internal::SubsetDpMetrics metrics("planner.bushy_dp");
    return metrics;
  }

  // Whether each subset is connected under the join graph. Only
  // disconnected subsets may be built by a cross product: one with a small
  // build side looks cheap to the per-operator cost model, which does not
  // price the exploding output that later joins then read.
  void Prepare() override {
    connected_.assign(static_cast<size_t>(full()) + 1, false);
    for (uint32_t mask = 1; mask <= full(); ++mask) {
      uint32_t reached = mask & (~mask + 1);
      uint32_t before = 0;
      while (reached != before) {
        before = reached;
        for (uint32_t rest = mask & ~reached; rest != 0; rest &= rest - 1) {
          const uint32_t table = rest & (~rest + 1);
          if (Adjacent(table, before)) reached |= table;
        }
      }
      connected_[mask] = reached == mask;
    }
  }

  void OfferSplits(uint32_t mask) override {
    const uint32_t lowest = mask & (~mask + 1);
    const bool need_cross = !connected_[mask];
    for (uint32_t left = (mask - 1) & mask; left != 0;
         left = (left - 1) & mask) {
      if (!(left & lowest)) continue;
      const uint32_t right = mask ^ left;
      if (!need_cross && (!connected_[left] || !connected_[right] ||
                          !Adjacent(left, right))) {
        Prune();
        continue;
      }
      AddSplit(mask, left);
    }
  }

  ArenaVector<bool> connected_{ArenaAllocator<bool>(arena())};
};

}  // namespace

Result<PlannedQuery> BushyDpPlanner::Plan(
    const catalog::Catalog& catalog,
    const std::vector<catalog::TableId>& tables,
    PlanCostEvaluator& evaluator) const {
  return BushyDp(options_).Run(catalog, tables, evaluator);
}

}  // namespace raqo::optimizer
