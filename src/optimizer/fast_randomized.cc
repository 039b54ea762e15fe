#include "optimizer/fast_randomized.h"

#include <algorithm>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/plan_cost.h"
#include "plan/cardinality.h"
#include "plan/plan_builder.h"

namespace raqo::optimizer {

namespace {

/// Independent random seed plans the archive starts from.
constexpr int kSeedPlans = 4;
/// Target approximation precision of the Pareto archive: a new plan is
/// kept only if no archived plan is within (1 + eps) of it on every
/// objective.
constexpr double kApproxEps = 0.05;

/// Collects mutable pointers to every join node of the tree.
std::vector<plan::PlanNode*> CollectJoins(plan::PlanNode& root) {
  std::vector<plan::PlanNode*> joins;
  root.VisitJoins([&](plan::PlanNode& j) { joins.push_back(&j); });
  return joins;
}

/// Applies one random mutation in place. Returns false when the chosen
/// mutation is not applicable to the picked node (caller just retries).
bool MutateOnce(plan::PlanNode& root, Rng& rng) {
  std::vector<plan::PlanNode*> joins = CollectJoins(root);
  if (joins.empty()) return false;
  plan::PlanNode* node = joins[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(joins.size()) - 1))];

  switch (rng.UniformInt(0, 3)) {
    case 0: {  // exchange (commutativity): swap the two children
      auto l = node->TakeLeft();
      auto r = node->TakeRight();
      node->ReplaceLeft(std::move(r));
      node->ReplaceRight(std::move(l));
      return true;
    }
    case 1: {  // left associativity: (A JOIN B) JOIN C -> A JOIN (B JOIN C)
      if (!node->mutable_left()->is_join()) return false;
      auto lower = node->TakeLeft();   // A JOIN B
      auto c = node->TakeRight();      // C
      auto a = lower->TakeLeft();      // A
      auto b = lower->TakeRight();     // B
      lower->ReplaceLeft(std::move(b));
      lower->ReplaceRight(std::move(c));  // lower becomes B JOIN C
      node->ReplaceLeft(std::move(a));
      node->ReplaceRight(std::move(lower));
      return true;
    }
    case 2: {  // right associativity: A JOIN (B JOIN C) -> (A JOIN B) JOIN C
      if (!node->mutable_right()->is_join()) return false;
      auto a = node->TakeLeft();       // A
      auto lower = node->TakeRight();  // B JOIN C
      auto b = lower->TakeLeft();      // B
      auto c = lower->TakeRight();     // C
      lower->ReplaceLeft(std::move(a));
      lower->ReplaceRight(std::move(b));  // lower becomes A JOIN B
      node->ReplaceLeft(std::move(lower));
      node->ReplaceRight(std::move(c));
      return true;
    }
    default: {  // operator implementation flip
      node->set_impl(node->impl() == plan::JoinImpl::kSortMergeJoin
                         ? plan::JoinImpl::kBroadcastHashJoin
                         : plan::JoinImpl::kSortMergeJoin);
      return true;
    }
  }
}

/// Epsilon-approximate Pareto archive insertion. Returns true when the
/// candidate was admitted.
bool ArchiveInsert(std::vector<ParetoEntry>& archive,
                   std::unique_ptr<plan::PlanNode> plan,
                   const cost::CostVector& cost) {
  for (const ParetoEntry& e : archive) {
    if (e.cost.ApproxDominates(cost, kApproxEps)) return false;
  }
  archive.erase(std::remove_if(archive.begin(), archive.end(),
                               [&](const ParetoEntry& e) {
                                 return cost.Dominates(e.cost);
                               }),
                archive.end());
  ParetoEntry entry;
  entry.plan = std::move(plan);
  entry.cost = cost;
  archive.push_back(std::move(entry));
  return true;
}

}  // namespace

Result<MultiObjectiveResult> FastRandomizedPlanner::Plan(
    const catalog::Catalog& catalog,
    const std::vector<catalog::TableId>& tables,
    PlanCostEvaluator& evaluator) const {
  if (tables.empty()) {
    return Status::InvalidArgument("cannot plan an empty table set");
  }
  if (options_.iterations < 1 || options_.moves_per_iteration < 1) {
    return Status::InvalidArgument("randomized planner options invalid");
  }

  Stopwatch watch;
  evaluator.ResetCounters();
  PlanningStats stats;
  Rng rng(options_.seed);
  plan::CardinalityEstimator estimator(&catalog);

  MultiObjectiveResult result;

  if (tables.size() == 1) {
    ParetoEntry entry;
    entry.plan = plan::PlanNode::MakeScan(tables[0]);
    result.frontier.push_back(std::move(entry));
    result.stats.wall_ms = watch.ElapsedMillis();
    return result;
  }

  obs::Span span;
  if (obs::TracingOn()) {
    span = obs::DefaultTracer().StartSpan("planner.randomized");
    span.SetAttr("num_tables", static_cast<int64_t>(tables.size()));
    span.SetAttr("iterations", static_cast<int64_t>(options_.iterations));
  }
  // Search counters, kept in locals on the hot path and flushed to the
  // metrics registry once per planning run.
  int64_t moves = 0;
  int64_t admitted = 0;
  int64_t infeasible = 0;

  // Seed the archive with random plans. Random seeding can produce
  // infeasible plans (e.g. all-BHJ over huge inputs); keep drawing a
  // bounded number of times.
  int seeded = 0;
  for (int attempt = 0; attempt < kSeedPlans * 20 && seeded < kSeedPlans;
       ++attempt) {
    RAQO_ASSIGN_OR_RETURN(std::unique_ptr<plan::PlanNode> candidate,
                          plan::BuildRandomPlan(catalog, tables, rng));
    ++stats.plans_considered;
    Result<cost::CostVector> cost =
        EvaluatePlanCost(*candidate, estimator, evaluator);
    if (!cost.ok()) {
      ++infeasible;
      continue;
    }
    admitted +=
        ArchiveInsert(result.frontier, std::move(candidate), *cost) ? 1 : 0;
    ++seeded;
  }
  if (result.frontier.empty()) {
    // Deterministic fallback: all-SMJ left-deep plan (SMJ is always
    // feasible in the execution model).
    RAQO_ASSIGN_OR_RETURN(
        std::unique_ptr<plan::PlanNode> fallback,
        plan::BuildLeftDeep(tables, plan::JoinImpl::kSortMergeJoin));
    ++stats.plans_considered;
    RAQO_ASSIGN_OR_RETURN(cost::CostVector cost,
                          EvaluatePlanCost(*fallback, estimator, evaluator));
    ArchiveInsert(result.frontier, std::move(fallback), cost);
  }

  // Improvement phases: mutate random archive members.
  for (int iter = 0; iter < options_.iterations; ++iter) {
    for (int move = 0; move < options_.moves_per_iteration; ++move) {
      ++moves;
      const size_t pick = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(result.frontier.size()) - 1));
      std::unique_ptr<plan::PlanNode> candidate =
          result.frontier[pick].plan->Clone();
      // One to three chained mutations per move.
      const int64_t k = rng.UniformInt(1, 3);
      bool mutated = false;
      for (int64_t m = 0; m < k; ++m) mutated |= MutateOnce(*candidate, rng);
      if (!mutated) continue;
      ++stats.plans_considered;
      Result<cost::CostVector> cost =
          EvaluatePlanCost(*candidate, estimator, evaluator);
      if (!cost.ok()) {
        ++infeasible;  // infeasible mutation
        continue;
      }
      admitted +=
          ArchiveInsert(result.frontier, std::move(candidate), *cost) ? 1 : 0;
    }
  }

  std::sort(result.frontier.begin(), result.frontier.end(),
            [](const ParetoEntry& a, const ParetoEntry& b) {
              return a.cost.seconds < b.cost.seconds;
            });

  if (span.recording()) {
    span.SetAttr("moves", moves);
    span.SetAttr("admitted", admitted);
    span.SetAttr("infeasible", infeasible);
    span.SetAttr("frontier_size",
                 static_cast<int64_t>(result.frontier.size()));
    span.SetAttr("plans_considered", stats.plans_considered);
  }
  if (obs::MetricsOn()) {
    static obs::Counter* runs =
        obs::DefaultMetrics().GetCounter("planner.randomized.runs");
    static obs::Counter* moves_total =
        obs::DefaultMetrics().GetCounter("planner.randomized.moves");
    static obs::Counter* admitted_total =
        obs::DefaultMetrics().GetCounter("planner.randomized.admitted");
    static obs::Counter* infeasible_total =
        obs::DefaultMetrics().GetCounter("planner.randomized.infeasible");
    static obs::Counter* plans_total = obs::DefaultMetrics().GetCounter(
        "planner.randomized.plans_considered");
    runs->Add(1);
    moves_total->Add(moves);
    admitted_total->Add(admitted);
    infeasible_total->Add(infeasible);
    plans_total->Add(stats.plans_considered);
  }

  stats.operator_cost_calls = evaluator.operator_cost_calls();
  stats.resource_configs_explored = evaluator.resource_configs_explored();
  stats.wall_ms = watch.ElapsedMillis();
  result.stats = stats;
  return result;
}

Result<PlannedQuery> FastRandomizedPlanner::PlanBest(
    const catalog::Catalog& catalog,
    const std::vector<catalog::TableId>& tables,
    PlanCostEvaluator& evaluator) const {
  RAQO_ASSIGN_OR_RETURN(MultiObjectiveResult multi,
                        Plan(catalog, tables, evaluator));
  if (multi.frontier.empty()) {
    return Status::FailedPrecondition(
        "randomized planner produced no feasible plan");
  }
  size_t best = 0;
  for (size_t i = 1; i < multi.frontier.size(); ++i) {
    if (multi.frontier[i].cost.Weighted(options_.time_weight) <
        multi.frontier[best].cost.Weighted(options_.time_weight)) {
      best = i;
    }
  }
  PlannedQuery out;
  out.plan = std::move(multi.frontier[best].plan);
  out.cost = multi.frontier[best].cost;
  out.stats = multi.stats;
  return out;
}

}  // namespace raqo::optimizer
