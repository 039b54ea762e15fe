#include "optimizer/selinger.h"

#include <limits>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/plan_cost.h"
#include "plan/cardinality.h"
#include "plan/table_set.h"

namespace raqo::optimizer {

namespace {

/// One dynamic-programming entry: the best left-deep plan found for a
/// subset of the query tables, encoded as a back-pointer chain.
struct DpEntry {
  bool valid = false;
  double scalar = std::numeric_limits<double>::infinity();
  cost::CostVector cost;
  /// Position (within the query table vector) of the table joined last.
  int last_pos = -1;
  /// Mask of the subset joined before `last_pos` (0 for singletons).
  uint32_t prev_mask = 0;
  plan::JoinImpl impl = plan::JoinImpl::kSortMergeJoin;
  std::optional<resource::ResourceConfig> resources;
};

// The memo lives in the planner arena, which runs no destructors.
static_assert(std::is_trivially_destructible_v<DpEntry>,
              "DP entries must stay trivially destructible (arena scratch)");

}  // namespace

Result<PlannedQuery> SelingerPlanner::Plan(
    const catalog::Catalog& catalog,
    const std::vector<catalog::TableId>& tables,
    PlanCostEvaluator& evaluator) const {
  if (tables.empty()) {
    return Status::InvalidArgument("cannot plan an empty table set");
  }
  const int n = static_cast<int>(tables.size());
  if (n > kMaxSelingerTables) {
    return Status::Unsupported(
        "Selinger enumeration limited to " +
        std::to_string(kMaxSelingerTables) +
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
    span = obs::DefaultTracer().StartSpan("planner.selinger");
    span.SetAttr("num_tables", static_cast<int64_t>(n));
  }
  // Enumeration counters, kept in locals on the hot path and flushed to
  // the metrics registry once per planning run.
  int64_t subproblems = 0;
  int64_t pruned = 0;

  // All DP scratch lives in the arena: one bump-pointer region filled
  // per query, dropped wholesale afterwards (the caller resets a shared
  // arena; the local fallback frees on scope exit). Every type placed
  // here is trivially destructible.
  Arena local_arena;
  Arena* arena =
      options_.arena != nullptr ? options_.arena : &local_arena;

  // Precompute: bytes of every subset are resolved lazily through the
  // estimator; adjacency between query positions comes from the join
  // graph.
  ArenaVector<uint32_t> adjacency(static_cast<size_t>(n), 0,
                                  ArenaAllocator<uint32_t>(arena));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j && catalog.join_graph().HasEdge(tables[static_cast<size_t>(i)],
                                                 tables[static_cast<size_t>(j)])) {
        adjacency[static_cast<size_t>(i)] |= uint32_t{1} << j;
      }
    }
  }

  auto set_of_mask = [&](uint32_t mask) {
    plan::TableSet set;
    for (int i = 0; i < n; ++i) {
      if (mask & (uint32_t{1} << i)) set.Add(tables[static_cast<size_t>(i)]);
    }
    return set;
  };

  const uint32_t full = (uint32_t{1} << n) - 1;
  ArenaVector<DpEntry> dp(static_cast<size_t>(full) + 1, DpEntry{},
                          ArenaAllocator<DpEntry>(arena));
  for (int i = 0; i < n; ++i) {
    DpEntry& e = dp[uint32_t{1} << i];
    e.valid = true;
    e.scalar = 0.0;
    e.cost = cost::CostVector{};
  }

  // Try extending dp[prev] with table position `t` (impl choice inside);
  // updates dp[mask] when cheaper.
  auto try_extend = [&](uint32_t mask, uint32_t prev, int t) {
    const DpEntry& base = dp[prev];
    const double left_bytes = estimator.Estimate(set_of_mask(prev)).bytes();
    const double right_bytes =
        estimator
            .Estimate(plan::TableSet::Of(tables[static_cast<size_t>(t)]))
            .bytes();
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
      const cost::CostVector total = base.cost + op->cost;
      const double scalar = total.Weighted(options_.time_weight);
      DpEntry& entry = dp[mask];
      if (!entry.valid || scalar < entry.scalar) {
        entry.valid = true;
        entry.scalar = scalar;
        entry.cost = total;
        entry.last_pos = t;
        entry.prev_mask = prev;
        entry.impl = impl;
        entry.resources = op->resources;
      }
    }
  };

  // Builds dp[mask] from every valid prefix that lacks one of its tables.
  auto extend = [&](uint32_t mask, bool require_edge) {
    for (int t = 0; t < n; ++t) {
      const uint32_t bit = uint32_t{1} << t;
      if (!(mask & bit)) continue;
      const uint32_t prev = mask ^ bit;
      if (!dp[prev].valid) continue;
      if (require_edge &&
          (adjacency[static_cast<size_t>(t)] & prev) == 0) {
        ++pruned;  // cross product skipped
        continue;
      }
      try_extend(mask, prev, t);
    }
  };

  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (__builtin_popcount(mask) < 2) continue;
    ++subproblems;
    // Pass 1: only joins along graph edges.
    extend(mask, /*require_edge=*/true);
    // Pass 2 (fallback): allow cross products when the subset is
    // otherwise unreachable.
    if (!dp[mask].valid) extend(mask, /*require_edge=*/false);
  }

  // Flush the enumeration counters before either exit below. Counters
  // are added in bulk here (not per item inside the DP loop), so the
  // observability cost per run is a handful of atomic adds.
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
        obs::DefaultMetrics().GetCounter("planner.selinger.runs");
    static obs::Counter* subproblems_total =
        obs::DefaultMetrics().GetCounter("planner.selinger.subproblems");
    static obs::Counter* pruned_total =
        obs::DefaultMetrics().GetCounter("planner.selinger.pruned");
    static obs::Counter* plans_total = obs::DefaultMetrics().GetCounter(
        "planner.selinger.plans_considered");
    static obs::Gauge* memo_size =
        obs::DefaultMetrics().GetGauge("planner.selinger.memo_entries");
    runs->Add(1);
    subproblems_total->Add(subproblems);
    pruned_total->Add(pruned);
    plans_total->Add(stats.plans_considered);
    memo_size->Set(static_cast<double>(memo_entries));
  }

  if (!dp[full].valid) {
    return Status::FailedPrecondition("Selinger DP found no feasible plan");
  }

  // Reconstruct the left-deep tree by unwinding the back pointers.
  // Back-pointer masks, full down to a singleton.
  ArenaVector<uint32_t> chain{ArenaAllocator<uint32_t>(arena)};
  chain.reserve(static_cast<size_t>(n));
  for (uint32_t mask = full; __builtin_popcount(mask) > 1;
       mask = dp[mask].prev_mask) {
    chain.push_back(mask);
  }
  // The innermost remaining mask is a singleton scan.
  uint32_t base_mask = chain.empty() ? full : dp[chain.back()].prev_mask;
  int base_pos = __builtin_ctz(base_mask);
  std::unique_ptr<plan::PlanNode> tree =
      plan::PlanNode::MakeScan(tables[static_cast<size_t>(base_pos)]);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const DpEntry& e = dp[*it];
    auto join = plan::PlanNode::MakeJoin(
        e.impl, std::move(tree),
        plan::PlanNode::MakeScan(tables[static_cast<size_t>(e.last_pos)]));
    if (e.resources.has_value()) join->set_resources(*e.resources);
    tree = std::move(join);
  }

  PlannedQuery result;
  result.plan = std::move(tree);
  result.cost = dp[full].cost;
  stats.operator_cost_calls = evaluator.operator_cost_calls();
  stats.resource_configs_explored = evaluator.resource_configs_explored();
  stats.wall_ms = watch.ElapsedMillis();
  result.stats = stats;
  return result;
}

}  // namespace raqo::optimizer
