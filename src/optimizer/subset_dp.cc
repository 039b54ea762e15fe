#include "optimizer/subset_dp.h"

#include <limits>

#include "common/stopwatch.h"
#include "obs/trace.h"
#include "plan/table_set.h"

namespace raqo::optimizer::internal {

SubsetDpMetrics::SubsetDpMetrics(const std::string& prefix)
    : runs(obs::DefaultMetrics().GetCounter(prefix + ".runs")),
      subproblems(obs::DefaultMetrics().GetCounter(prefix + ".subproblems")),
      pruned(obs::DefaultMetrics().GetCounter(prefix + ".pruned")),
      skipped(obs::DefaultMetrics().GetCounter(prefix + ".skipped")),
      plans_considered(
          obs::DefaultMetrics().GetCounter(prefix + ".plans_considered")),
      memo_entries(obs::DefaultMetrics().GetGauge(prefix + ".memo_entries")) {}

Result<PlannedQuery> SubsetDp::Run(const catalog::Catalog& catalog,
                                   const std::vector<catalog::TableId>& tables,
                                   PlanCostEvaluator& evaluator) {
  if (tables.empty()) {
    return Status::InvalidArgument("cannot plan an empty table set");
  }
  const int n = static_cast<int>(tables.size());
  if (n > config_.max_tables) {
    return Status::Unsupported(
        std::string(config_.enumerator) + " enumeration limited to " +
        std::to_string(config_.max_tables) +
        " tables; use the randomized planner for larger queries");
  }
  if (plan::TableSet::FromVector(tables).Count() != n) {
    return Status::InvalidArgument("duplicate table in query");
  }

  Stopwatch watch;
  evaluator.ResetCounters();
  plan::CardinalityEstimator estimator(&catalog);
  if (n == 1) {
    PlannedQuery result;
    result.plan = plan::PlanNode::MakeScan(tables[0]);
    result.stats.wall_ms = watch.ElapsedMillis();
    return result;
  }
  tables_ = &tables;
  evaluator_ = &evaluator;
  estimator_ = &estimator;

  obs::Span span;
  if (obs::TracingOn()) {
    span = obs::DefaultTracer().StartSpan(config_.span);
    span.SetAttr("num_tables", static_cast<int64_t>(n));
  }

  // Scratch is sized once, on the arena, and dropped wholesale: the owner
  // resets a lent arena; the local one frees on scope exit.
  adjacency_.assign(static_cast<size_t>(n), 0);
  memo_.assign(static_cast<size_t>(full()) + 1, Entry{});
  bytes_.assign(static_cast<size_t>(full()) + 1, -1.0);
  for (int i = 0; i < n; ++i) {
    memo_[uint32_t{1} << i].valid = true;  // a scan costs nothing
    for (int j = 0; j < n; ++j) {
      if (i != j && catalog.join_graph().HasEdge(tables[i], tables[j])) {
        adjacency_[i] |= uint32_t{1} << j;
      }
    }
  }
  Prepare();
  for (uint32_t mask = 1; mask <= full(); ++mask) {
    if (__builtin_popcount(mask) < 2) continue;
    ++subproblems_;
    OfferSplits(mask);
  }

  // Counters are kept in members on the hot path and flushed here in
  // bulk, before either exit below: a handful of atomic adds per run.
  int64_t memo_entries = 0;
  for (const Entry& e : memo_) memo_entries += e.valid ? 1 : 0;
  if (span.recording()) {
    span.SetAttr("subproblems", subproblems_);
    span.SetAttr("pruned", pruned_);
    span.SetAttr("skipped", skipped_);
    span.SetAttr("memo_entries", memo_entries);
    span.SetAttr("plans_considered", stats_.plans_considered);
  }
  if (obs::MetricsOn()) {
    const SubsetDpMetrics& metrics = Metrics();
    metrics.runs->Add(1);
    metrics.subproblems->Add(subproblems_);
    metrics.pruned->Add(pruned_);
    metrics.skipped->Add(skipped_);
    metrics.plans_considered->Add(stats_.plans_considered);
    metrics.memo_entries->Set(static_cast<double>(memo_entries));
  }

  if (!memo_[full()].valid) {
    return Status::FailedPrecondition(config_.infeasible);
  }
  stats_.operator_cost_calls = evaluator.operator_cost_calls();
  stats_.resource_configs_explored = evaluator.resource_configs_explored();
  PlannedQuery result{Rebuild(full()), memo_[full()].cost, stats_};
  result.stats.wall_ms = watch.ElapsedMillis();
  return result;
}

void SubsetDp::CostSplit(uint32_t mask, uint32_t left) {
  const uint32_t right = mask ^ left;
  if (!memo_[left].valid || !memo_[right].valid) return;
  JoinContext context;
  context.left_bytes = BytesOf(left);
  context.right_bytes = BytesOf(right);
  // Each total below is (left + right) + operator: the additions and
  // order of summing all three at once, so reusing the inputs keeps the
  // totals' bits.
  context.inputs = memo_[left].cost + memo_[right].cost;
  context.time_weight = config_.time_weight;
  Entry& entry = memo_[mask];
  for (int impl_idx = 0; impl_idx < plan::kNumJoinImpls; ++impl_idx) {
    context.impl = static_cast<plan::JoinImpl>(impl_idx);
    context.incumbent = entry.valid
                            ? entry.scalar
                            : std::numeric_limits<double>::infinity();
    ++stats_.plans_considered;
    Result<OperatorCost> op = evaluator_->CostJoin(context);
    if (!op.ok()) {
      if (op.status().IsSkipped()) {
        ++skipped_;  // could not have beaten the incumbent
      } else {
        ++pruned_;  // infeasible candidate (e.g. BHJ OOM)
      }
      continue;
    }
    const cost::CostVector total = context.inputs + op->cost;
    const double scalar = total.Weighted(config_.time_weight);
    if (!entry.valid || scalar < entry.scalar) {
      entry = Entry{true, scalar, total, left, context.impl, op->resources};
    }
  }
}

bool SubsetDp::Adjacent(uint32_t a, uint32_t b) const {
  for (uint32_t rest = a; rest != 0; rest &= rest - 1) {
    if (adjacency_[static_cast<size_t>(__builtin_ctz(rest))] & b) return true;
  }
  return false;
}

plan::TableSet SubsetDp::SetOf(uint32_t mask) const {
  plan::TableSet set;
  for (uint32_t rest = mask; rest != 0; rest &= rest - 1) {
    set.Add((*tables_)[static_cast<size_t>(__builtin_ctz(rest))]);
  }
  return set;
}

double SubsetDp::BytesOf(uint32_t mask) {
  double& bytes = bytes_[mask];
  if (bytes < 0.0) bytes = estimator_->Estimate(SetOf(mask)).bytes();
  return bytes;
}

std::unique_ptr<plan::PlanNode> SubsetDp::Rebuild(uint32_t mask) const {
  if (__builtin_popcount(mask) == 1) {
    return plan::PlanNode::MakeScan(
        (*tables_)[static_cast<size_t>(__builtin_ctz(mask))]);
  }
  const Entry& e = memo_[mask];
  auto join = plan::PlanNode::MakeJoin(e.impl, Rebuild(e.left_mask),
                                       Rebuild(mask ^ e.left_mask));
  if (e.resources.has_value()) join->set_resources(*e.resources);
  return join;
}

}  // namespace raqo::optimizer::internal
