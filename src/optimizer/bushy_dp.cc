#include "optimizer/bushy_dp.h"

#include <functional>
#include <limits>

#include "common/arena.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/cardinality.h"
#include "plan/table_set.h"

namespace raqo::optimizer {

namespace {

struct DpEntry {
  bool valid = false;
  double scalar = std::numeric_limits<double>::infinity();
  cost::CostVector cost;
  /// Left part of the winning split (0 for singleton subsets); the right
  /// part is mask ^ left_mask.
  uint32_t left_mask = 0;
  plan::JoinImpl impl = plan::JoinImpl::kSortMergeJoin;
  std::optional<resource::ResourceConfig> resources;
};

// The memo lives in the run-local arena, which runs no destructors.
static_assert(std::is_trivially_destructible_v<DpEntry>,
              "DP entries must stay trivially destructible (arena scratch)");

}  // namespace

Result<PlannedQuery> BushyDpPlanner::Plan(
    const catalog::Catalog& catalog,
    const std::vector<catalog::TableId>& tables,
    PlanCostEvaluator& evaluator) const {
  if (tables.empty()) {
    return Status::InvalidArgument("cannot plan an empty table set");
  }
  const int n = static_cast<int>(tables.size());
  if (n > kMaxBushyDpTables) {
    return Status::Unsupported(
        "bushy DP enumeration limited to " +
        std::to_string(kMaxBushyDpTables) +
        " tables; use the randomized planner for larger queries");
  }
  {
    plan::TableSet dedup = plan::TableSet::FromVector(tables);
    if (dedup.Count() != n) {
      return Status::InvalidArgument("duplicate table in query");
    }
  }

  Stopwatch watch;
  evaluator.ResetCounters();
  PlanningStats stats;
  plan::CardinalityEstimator estimator(&catalog);

  if (n == 1) {
    PlannedQuery result;
    result.plan = plan::PlanNode::MakeScan(tables[0]);
    result.stats.wall_ms = watch.ElapsedMillis();
    return result;
  }

  obs::Span span;
  if (obs::TracingOn()) {
    span = obs::DefaultTracer().StartSpan("planner.bushy_dp");
    span.SetAttr("num_tables", static_cast<int64_t>(n));
  }
  // Enumeration counters, kept in locals on the hot path and flushed to
  // the metrics registry once per planning run.
  int64_t subproblems = 0;
  int64_t pruned = 0;

  // DP scratch (memo, adjacency, connectivity) lives in a run-local
  // arena: trivially destructible, dropped wholesale on return.
  Arena arena;

  ArenaVector<uint32_t> adjacency(static_cast<size_t>(n), 0,
                                  ArenaAllocator<uint32_t>(&arena));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j &&
          catalog.join_graph().HasEdge(tables[static_cast<size_t>(i)],
                                       tables[static_cast<size_t>(j)])) {
        adjacency[static_cast<size_t>(i)] |= uint32_t{1} << j;
      }
    }
  }
  auto parts_connected = [&](uint32_t a, uint32_t b) {
    uint32_t rest = a;
    while (rest != 0) {
      const int bit = __builtin_ctz(rest);
      rest &= rest - 1;
      if (adjacency[static_cast<size_t>(bit)] & b) return true;
    }
    return false;
  };
  auto set_of_mask = [&](uint32_t mask) {
    plan::TableSet set;
    for (int i = 0; i < n; ++i) {
      if (mask & (uint32_t{1} << i)) set.Add(tables[static_cast<size_t>(i)]);
    }
    return set;
  };

  const uint32_t full = (uint32_t{1} << n) - 1;
  ArenaVector<DpEntry> dp(static_cast<size_t>(full) + 1, DpEntry{},
                          ArenaAllocator<DpEntry>(&arena));
  for (int i = 0; i < n; ++i) {
    DpEntry& e = dp[uint32_t{1} << i];
    e.valid = true;
    e.scalar = 0.0;
  }

  // Whether each subset is connected under the join graph: the
  // cross-product fallback may only build genuinely disconnected subsets;
  // otherwise a cross product with a *small* build side would look cheap
  // to the per-operator cost model (which does not price the exploding
  // output — the blow-up only surfaces as later operators' inputs).
  ArenaVector<bool> is_connected(static_cast<size_t>(full) + 1, false,
                                 ArenaAllocator<bool>(&arena));
  for (uint32_t mask = 1; mask <= full; ++mask) {
    const uint32_t seed = mask & (~mask + 1);
    uint32_t reached = seed;
    bool grew = true;
    while (grew) {
      grew = false;
      uint32_t rest = reached;
      while (rest != 0) {
        const int bit = __builtin_ctz(rest);
        rest &= rest - 1;
        const uint32_t next =
            (reached | (adjacency[static_cast<size_t>(bit)] & mask));
        if (next != reached) {
          reached = next;
          grew = true;
        }
      }
    }
    is_connected[mask] = (reached == mask);
  }

  // Tries to build `mask` as (left) JOIN (mask \ left).
  auto try_split = [&](uint32_t mask, uint32_t left) {
    const uint32_t right = mask ^ left;
    if (!dp[left].valid || !dp[right].valid) return;
    const double left_bytes = estimator.Estimate(set_of_mask(left)).bytes();
    const double right_bytes =
        estimator.Estimate(set_of_mask(right)).bytes();
    for (int impl_idx = 0; impl_idx < plan::kNumJoinImpls; ++impl_idx) {
      const auto impl = static_cast<plan::JoinImpl>(impl_idx);
      ++stats.plans_considered;
      JoinContext context;
      context.impl = impl;
      context.left_bytes = left_bytes;
      context.right_bytes = right_bytes;
      Result<OperatorCost> op = evaluator.CostJoin(context);
      if (!op.ok()) {
        ++pruned;  // infeasible candidate (e.g. BHJ OOM)
        continue;
      }
      const cost::CostVector total = dp[left].cost + dp[right].cost + op->cost;
      const double scalar = total.Weighted(options_.time_weight);
      DpEntry& entry = dp[mask];
      if (!entry.valid || scalar < entry.scalar) {
        entry.valid = true;
        entry.scalar = scalar;
        entry.cost = total;
        entry.left_mask = left;
        entry.impl = impl;
        entry.resources = op->resources;
      }
    }
  };

  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (__builtin_popcount(mask) < 2) continue;
    ++subproblems;
    // Enumerate unordered splits: fix the lowest bit in the left part so
    // each {left, right} pair is visited once (operator costing is
    // symmetric in the input sizes).
    const uint32_t lowest = mask & (~mask + 1);
    const bool need_cross = !is_connected[mask];
    for (uint32_t sub = (mask - 1) & mask; sub != 0;
         sub = (sub - 1) & mask) {
      if (!(sub & lowest)) continue;
      if (sub == mask) continue;
      if (!need_cross &&
          (!is_connected[sub] || !is_connected[mask ^ sub] ||
           !parts_connected(sub, mask ^ sub))) {
        // Connected subsets must be built from connected, adjacent parts;
        // cross products are reserved for disconnected subsets.
        ++pruned;
        continue;
      }
      try_split(mask, sub);
    }
  }

  // Flush the enumeration counters before either exit below (bulk adds,
  // not per-item hot-path increments).
  int64_t memo_entries = 0;
  for (const DpEntry& e : dp) memo_entries += e.valid ? 1 : 0;
  if (span.recording()) {
    span.SetAttr("subproblems", subproblems);
    span.SetAttr("pruned", pruned);
    span.SetAttr("memo_entries", memo_entries);
    span.SetAttr("plans_considered", stats.plans_considered);
  }
  if (obs::MetricsOn()) {
    static obs::Counter* runs =
        obs::DefaultMetrics().GetCounter("planner.bushy_dp.runs");
    static obs::Counter* subproblems_total =
        obs::DefaultMetrics().GetCounter("planner.bushy_dp.subproblems");
    static obs::Counter* pruned_total =
        obs::DefaultMetrics().GetCounter("planner.bushy_dp.pruned");
    static obs::Counter* plans_total = obs::DefaultMetrics().GetCounter(
        "planner.bushy_dp.plans_considered");
    static obs::Gauge* memo_size =
        obs::DefaultMetrics().GetGauge("planner.bushy_dp.memo_entries");
    runs->Add(1);
    subproblems_total->Add(subproblems);
    pruned_total->Add(pruned);
    plans_total->Add(stats.plans_considered);
    memo_size->Set(static_cast<double>(memo_entries));
  }

  if (!dp[full].valid) {
    return Status::FailedPrecondition("bushy DP found no feasible plan");
  }

  // Recursive reconstruction.
  std::function<std::unique_ptr<plan::PlanNode>(uint32_t)> build =
      [&](uint32_t mask) -> std::unique_ptr<plan::PlanNode> {
    if (__builtin_popcount(mask) == 1) {
      return plan::PlanNode::MakeScan(
          tables[static_cast<size_t>(__builtin_ctz(mask))]);
    }
    const DpEntry& e = dp[mask];
    auto join = plan::PlanNode::MakeJoin(e.impl, build(e.left_mask),
                                         build(mask ^ e.left_mask));
    if (e.resources.has_value()) join->set_resources(*e.resources);
    return join;
  };

  PlannedQuery result;
  result.plan = build(full);
  result.cost = dp[full].cost;
  stats.operator_cost_calls = evaluator.operator_cost_calls();
  stats.resource_configs_explored = evaluator.resource_configs_explored();
  stats.wall_ms = watch.ElapsedMillis();
  result.stats = stats;
  return result;
}

}  // namespace raqo::optimizer
