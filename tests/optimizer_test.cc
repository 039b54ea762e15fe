#include <gtest/gtest.h>

#include <algorithm>

#include "catalog/random_schema.h"
#include "catalog/tpch.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "optimizer/fast_randomized.h"
#include "optimizer/fixed_resource_evaluator.h"
#include "optimizer/plan_cost.h"
#include "optimizer/selinger.h"
#include "plan/plan_builder.h"

namespace raqo::optimizer {
namespace {

using catalog::TableId;
using catalog::TpchQuery;

FixedResourceEvaluator MakeEvaluator(
    resource::ResourceConfig config = resource::ResourceConfig(6, 20)) {
  return FixedResourceEvaluator(cost::PaperHiveModels(), config);
}

TEST(FixedResourceEvaluatorTest, CostsAndCounts) {
  FixedResourceEvaluator eval = MakeEvaluator();
  JoinContext ctx;
  ctx.impl = plan::JoinImpl::kSortMergeJoin;
  ctx.left_bytes = catalog::GbToBytes(2);
  ctx.right_bytes = catalog::GbToBytes(10);
  Result<OperatorCost> cost = eval.CostJoin(ctx);
  ASSERT_TRUE(cost.ok());
  EXPECT_GT(cost->cost.seconds, 0.0);
  EXPECT_GT(cost->cost.dollars, 0.0);
  ASSERT_TRUE(cost->resources.has_value());
  EXPECT_EQ(*cost->resources, resource::ResourceConfig(6, 20));
  EXPECT_EQ(eval.operator_cost_calls(), 1);
  EXPECT_EQ(eval.resource_configs_explored(), 1);
  eval.ResetCounters();
  EXPECT_EQ(eval.operator_cost_calls(), 0);
}

TEST(FixedResourceEvaluatorTest, BhjInfeasibleWhenTooBig) {
  FixedResourceEvaluator eval = MakeEvaluator(resource::ResourceConfig(2, 10));
  JoinContext ctx;
  ctx.impl = plan::JoinImpl::kBroadcastHashJoin;
  ctx.left_bytes = catalog::GbToBytes(5);
  ctx.right_bytes = catalog::GbToBytes(50);
  Result<OperatorCost> cost = eval.CostJoin(ctx);
  ASSERT_FALSE(cost.ok());
  EXPECT_TRUE(cost.status().IsResourceExhausted());
}

TEST(PlanCostTest, SumsJoinCostsAndAttachesResources) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(1.0);
  plan::CardinalityEstimator est(&cat);
  FixedResourceEvaluator eval = MakeEvaluator();
  std::vector<TableId> q3 = *catalog::TpchQueryTables(cat, TpchQuery::kQ3);
  auto plan = *plan::BuildLeftDeep(q3, plan::JoinImpl::kSortMergeJoin);
  Result<cost::CostVector> total = EvaluatePlanCost(*plan, est, eval);
  ASSERT_TRUE(total.ok());
  EXPECT_GT(total->seconds, 0.0);
  auto joins_with_resources = [](const plan::PlanNode& root) {
    int count = 0;
    root.VisitJoins([&](const plan::PlanNode& j) {
      if (j.resources().has_value()) ++count;
    });
    return count;
  };
  EXPECT_EQ(joins_with_resources(*plan), 2);
  // Const variant returns the same value and attaches nothing.
  auto fresh = *plan::BuildLeftDeep(q3, plan::JoinImpl::kSortMergeJoin);
  FixedResourceEvaluator eval2 = MakeEvaluator();
  Result<cost::CostVector> again = EvaluatePlanCostConst(*fresh, est, eval2);
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ(again->seconds, total->seconds);
  EXPECT_EQ(joins_with_resources(*fresh), 0);
}

TEST(SelingerTest, SingleTableIsScan) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(1.0);
  FixedResourceEvaluator eval = MakeEvaluator();
  SelingerPlanner planner;
  Result<PlannedQuery> result =
      planner.Plan(cat, {*cat.FindTable("orders")}, eval);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->plan->is_scan());
  EXPECT_DOUBLE_EQ(result->cost.seconds, 0.0);
}

TEST(SelingerTest, PlansAllTpchQueries) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  SelingerPlanner planner;
  for (TpchQuery q : {TpchQuery::kQ12, TpchQuery::kQ3, TpchQuery::kQ2,
                      TpchQuery::kAll}) {
    FixedResourceEvaluator eval = MakeEvaluator();
    std::vector<TableId> tables = *catalog::TpchQueryTables(cat, q);
    Result<PlannedQuery> result = planner.Plan(cat, tables, eval);
    ASSERT_TRUE(result.ok()) << catalog::TpchQueryName(q);
    EXPECT_TRUE(plan::ValidatePlan(cat, *result->plan, tables).ok());
    EXPECT_GT(result->cost.seconds, 0.0);
    EXPECT_GT(result->stats.plans_considered, 0);
    // Left-deep: every join's right child is a scan.
    result->plan->VisitJoins([](const plan::PlanNode& j) {
      EXPECT_TRUE(j.right()->is_scan());
    });
  }
}

TEST(SelingerTest, OptimalAmongLeftDeepPermutations) {
  // Exhaustive check on Q3 (3 tables): the DP result must match the best
  // of all left-deep orders x implementation choices.
  catalog::Catalog cat = catalog::BuildTpchCatalog(1.0);
  std::vector<TableId> tables =
      *catalog::TpchQueryTables(cat, TpchQuery::kQ3);
  std::sort(tables.begin(), tables.end());

  double best_brute = 1e300;
  plan::CardinalityEstimator est(&cat);
  do {
    for (int impl_bits = 0; impl_bits < 4; ++impl_bits) {
      std::vector<plan::JoinImpl> impls = {
          (impl_bits & 1) ? plan::JoinImpl::kBroadcastHashJoin
                          : plan::JoinImpl::kSortMergeJoin,
          (impl_bits & 2) ? plan::JoinImpl::kBroadcastHashJoin
                          : plan::JoinImpl::kSortMergeJoin};
      auto candidate = plan::BuildLeftDeep(tables, impls);
      ASSERT_TRUE(candidate.ok());
      FixedResourceEvaluator eval = MakeEvaluator();
      Result<cost::CostVector> c =
          EvaluatePlanCost(**candidate, est, eval);
      if (c.ok()) best_brute = std::min(best_brute, c->seconds);
    }
  } while (std::next_permutation(tables.begin(), tables.end()));

  FixedResourceEvaluator eval = MakeEvaluator();
  SelingerPlanner planner;
  Result<PlannedQuery> dp = planner.Plan(
      cat, *catalog::TpchQueryTables(cat, TpchQuery::kQ3), eval);
  ASSERT_TRUE(dp.ok());
  EXPECT_NEAR(dp->cost.seconds, best_brute, best_brute * 1e-9);
}

TEST(SelingerTest, RespectsTableLimit) {
  catalog::RandomSchemaOptions schema;
  schema.num_tables = kMaxSelingerTables + 1;
  catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
  SelingerPlanner planner;
  FixedResourceEvaluator eval = MakeEvaluator();
  Result<PlannedQuery> result = planner.Plan(
      cat, *catalog::RandomQueryTables(cat, kMaxSelingerTables + 1, 1),
      eval);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnsupported());
  EXPECT_EQ(eval.operator_cost_calls(), 0);
}

TEST(SelingerTest, RejectsEmptyAndDuplicates) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(1.0);
  SelingerPlanner planner;
  FixedResourceEvaluator eval = MakeEvaluator();
  EXPECT_FALSE(planner.Plan(cat, {}, eval).ok());
  EXPECT_FALSE(planner.Plan(cat, {0, 0}, eval).ok());
}

TEST(SelingerTest, HandlesDisconnectedQueriesViaCrossProducts) {
  catalog::Catalog cat;
  TableId a = *cat.AddTable({"a", 1000, 100});
  TableId b = *cat.AddTable({"b", 1000, 100});
  // No join edge at all: the fallback pass must still produce a plan.
  FixedResourceEvaluator eval = MakeEvaluator();
  SelingerPlanner planner;
  Result<PlannedQuery> result = planner.Plan(cat, {a, b}, eval);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan->NumJoins(), 1);
}

TEST(SelingerTest, MoneyObjectiveChangesScalarization) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  std::vector<TableId> tables =
      *catalog::TpchQueryTables(cat, TpchQuery::kAll);
  SelingerOptions time_opt;
  time_opt.time_weight = 1.0;
  SelingerOptions money_opt;
  money_opt.time_weight = 0.0;
  FixedResourceEvaluator e1 = MakeEvaluator();
  FixedResourceEvaluator e2 = MakeEvaluator();
  Result<PlannedQuery> by_time =
      SelingerPlanner(time_opt).Plan(cat, tables, e1);
  Result<PlannedQuery> by_money =
      SelingerPlanner(money_opt).Plan(cat, tables, e2);
  ASSERT_TRUE(by_time.ok());
  ASSERT_TRUE(by_money.ok());
  // The money-optimal plan cannot cost more dollars than the time-optimal.
  EXPECT_LE(by_money->cost.dollars, by_time->cost.dollars + 1e-9);
  EXPECT_LE(by_time->cost.seconds, by_money->cost.seconds + 1e-9);
}

TEST(FastRandomizedTest, ProducesValidFrontier) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  std::vector<TableId> tables =
      *catalog::TpchQueryTables(cat, TpchQuery::kAll);
  FixedResourceEvaluator eval = MakeEvaluator();
  FastRandomizedPlanner planner;
  Result<MultiObjectiveResult> result = planner.Plan(cat, tables, eval);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->frontier.empty());
  for (const ParetoEntry& e : result->frontier) {
    EXPECT_TRUE(plan::ValidatePlan(cat, *e.plan, tables).ok());
  }
  // No frontier entry strictly dominates another.
  for (size_t i = 0; i < result->frontier.size(); ++i) {
    for (size_t j = 0; j < result->frontier.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(
          result->frontier[i].cost.Dominates(result->frontier[j].cost));
    }
  }
  // Sorted by ascending time.
  for (size_t i = 1; i < result->frontier.size(); ++i) {
    EXPECT_LE(result->frontier[i - 1].cost.seconds,
              result->frontier[i].cost.seconds);
  }
}

TEST(FastRandomizedTest, DeterministicForFixedSeed) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  std::vector<TableId> tables =
      *catalog::TpchQueryTables(cat, TpchQuery::kQ2);
  FastRandomizedOptions options;
  options.seed = 77;
  FixedResourceEvaluator e1 = MakeEvaluator();
  FixedResourceEvaluator e2 = MakeEvaluator();
  Result<PlannedQuery> a =
      FastRandomizedPlanner(options).PlanBest(cat, tables, e1);
  Result<PlannedQuery> b =
      FastRandomizedPlanner(options).PlanBest(cat, tables, e2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->cost.seconds, b->cost.seconds);
  EXPECT_TRUE(a->plan->StructurallyEquals(*b->plan));
}

TEST(FastRandomizedTest, CloseToSelingerOnSmallQueries) {
  // On Q3 the randomized planner should find (nearly) the DP optimum.
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  std::vector<TableId> tables =
      *catalog::TpchQueryTables(cat, TpchQuery::kQ3);
  FixedResourceEvaluator e1 = MakeEvaluator();
  FixedResourceEvaluator e2 = MakeEvaluator();
  Result<PlannedQuery> dp = SelingerPlanner().Plan(cat, tables, e1);
  FastRandomizedOptions options;
  options.iterations = 20;
  Result<PlannedQuery> rnd =
      FastRandomizedPlanner(options).PlanBest(cat, tables, e2);
  ASSERT_TRUE(dp.ok());
  ASSERT_TRUE(rnd.ok());
  EXPECT_LE(rnd->cost.seconds, dp->cost.seconds * 1.2);
}

TEST(FastRandomizedTest, ScalesTo100Tables) {
  catalog::RandomSchemaOptions schema;
  schema.num_tables = 100;
  catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
  std::vector<TableId> tables = cat.AllTableIds();
  FixedResourceEvaluator eval = MakeEvaluator();
  FastRandomizedOptions options;
  options.iterations = 3;
  options.moves_per_iteration = 20;
  Result<PlannedQuery> result =
      FastRandomizedPlanner(options).PlanBest(cat, tables, eval);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan->NumJoins(), 99);
  EXPECT_TRUE(plan::ValidatePlan(cat, *result->plan, tables).ok());
}

TEST(FastRandomizedTest, SingleTableAndErrors) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(1.0);
  FixedResourceEvaluator eval = MakeEvaluator();
  FastRandomizedPlanner planner;
  Result<MultiObjectiveResult> single =
      planner.Plan(cat, {*cat.FindTable("orders")}, eval);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->frontier.size(), 1u);
  EXPECT_FALSE(planner.Plan(cat, {}, eval).ok());
  FastRandomizedOptions bad;
  bad.iterations = 0;
  EXPECT_FALSE(FastRandomizedPlanner(bad)
                   .Plan(cat, {0, 1}, eval)
                   .ok());
}

TEST(MultiObjectiveResultTest, FastestAndCheapest) {
  MultiObjectiveResult r;
  EXPECT_EQ(r.FastestEntry(), nullptr);
  ParetoEntry a;
  a.cost = {10, 5};
  ParetoEntry b;
  b.cost = {20, 1};
  r.frontier.push_back(std::move(a));
  r.frontier.push_back(std::move(b));
  EXPECT_DOUBLE_EQ(r.FastestEntry()->cost.seconds, 10);
  EXPECT_DOUBLE_EQ(r.CheapestEntry()->cost.dollars, 1);
}

}  // namespace
}  // namespace raqo::optimizer
