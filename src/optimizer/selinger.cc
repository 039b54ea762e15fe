#include "optimizer/selinger.h"

#include "optimizer/subset_dp.h"

namespace raqo::optimizer {

namespace {

/// Left-deep splits: a subset is its prefix (the subset minus one table)
/// joined with that table. Joins follow join-graph edges; cross products
/// are tried only for a subset the edge joins leave unbuilt.
class SelingerDp final : public internal::SubsetDp {
 public:
  explicit SelingerDp(const SelingerOptions& options)
      : SubsetDp({"planner.selinger", "Selinger",
                  "Selinger DP found no feasible plan", kMaxSelingerTables,
                  options.time_weight, options.arena}) {}

 private:
  const internal::SubsetDpMetrics& Metrics() const override {
    static const internal::SubsetDpMetrics metrics("planner.selinger");
    return metrics;
  }

  void OfferSplits(uint32_t mask) override {
    for (const bool require_edge : {true, false}) {
      if (!require_edge) {
        Settle(mask);  // the edge joins decide whether to try cross products
        if (valid(mask)) return;
      }
      for (uint32_t rest = mask; rest != 0; rest &= rest - 1) {
        const uint32_t table = rest & (~rest + 1);
        const uint32_t prefix = mask ^ table;
        if (!valid(prefix)) continue;
        if (require_edge && !Adjacent(table, prefix)) {
          Prune();  // cross product skipped
          continue;
        }
        AddSplit(mask, prefix);
      }
    }
  }
};

}  // namespace

Result<PlannedQuery> SelingerPlanner::Plan(
    const catalog::Catalog& catalog,
    const std::vector<catalog::TableId>& tables,
    PlanCostEvaluator& evaluator) const {
  return SelingerDp(options_).Run(catalog, tables, evaluator);
}

}  // namespace raqo::optimizer
