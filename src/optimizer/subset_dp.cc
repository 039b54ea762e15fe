#include "optimizer/subset_dp.h"

#include <algorithm>
#include <cmath>

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
    offers_ = 0;
    OfferSplits(mask);
    Settle(mask);
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

void SubsetDp::AddSplit(uint32_t mask, uint32_t left) {
  const uint32_t right = mask ^ left;
  if (!memo_[left].valid || !memo_[right].valid) return;
  JoinContext context;
  context.left_bytes = BytesOf(left);
  context.right_bytes = BytesOf(right);
  context.bound_only = true;
  // Each total is (left + right) + operator: the additions and order of
  // summing all three at once, so reusing the inputs keeps the totals'
  // bits.
  const cost::CostVector inputs = memo_[left].cost + memo_[right].cost;
  for (int impl_idx = 0; impl_idx < plan::kNumJoinImpls; ++impl_idx) {
    ++stats_.plans_considered;
    const auto impl = static_cast<plan::JoinImpl>(impl_idx);
    Candidate candidate{left, offers_++, impl, false, 0.0, inputs};
    if (bounded_) {
      context.impl = impl;
      Result<OperatorCost> bound = evaluator_->CostJoin(context);
      if (bound.ok()) {
        candidate.key = (inputs + bound->cost).Weighted(config_.time_weight);
        candidate.bounded = !std::isnan(candidate.key);
      } else if (!bound.status().IsUnsupported()) {
        ++pruned_;  // infeasible candidate (e.g. BHJ OOM)
        continue;
      }
    }
    pending_.push_back(candidate);
  }
}

void SubsetDp::Settle(uint32_t mask) {
  // Unbounded candidates first, in offer order; then by key, ties in
  // offer order. NaN keys count as unbounded, so this is a strict weak
  // order.
  std::sort(pending_.begin(), pending_.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.bounded != b.bounded) return !a.bounded;
              if (a.bounded && a.key != b.key) return a.key < b.key;
              return a.offer < b.offer;
            });
  Entry& entry = memo_[mask];
  JoinContext context;
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    const Candidate& candidate = *it;
    // A key is at most its candidate's scalar, so one above the
    // incumbent's, or equal to it but offered later, cannot win. Keys
    // only grow from here and the incumbent stands, so neither can the
    // rest.
    if (entry.valid && candidate.bounded &&
        (candidate.key > entry.scalar ||
         (candidate.key == entry.scalar && candidate.offer > entry.offer))) {
      skipped_ += pending_.end() - it;
      break;
    }
    context.impl = candidate.impl;
    context.left_bytes = BytesOf(candidate.left_mask);
    context.right_bytes = BytesOf(mask ^ candidate.left_mask);
    Result<OperatorCost> op = evaluator_->CostJoin(context);
    if (!op.ok()) {
      ++pruned_;  // infeasible candidate (e.g. BHJ OOM)
      continue;
    }
    const cost::CostVector total = candidate.inputs + op->cost;
    const double scalar = total.Weighted(config_.time_weight);
    if (!entry.valid || scalar < entry.scalar ||
        (scalar == entry.scalar && candidate.offer < entry.offer)) {
      entry = Entry{true, scalar, total, candidate.left_mask, candidate.impl,
                    candidate.offer, op->resources};
    }
  }
  pending_.clear();
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
