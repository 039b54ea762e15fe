#include <gtest/gtest.h>

#include "catalog/random_schema.h"
#include "catalog/tpch.h"
#include "cost/cost_model.h"
#include "optimizer/bushy_dp.h"
#include "optimizer/fast_randomized.h"
#include "optimizer/fixed_resource_evaluator.h"
#include "optimizer/selinger.h"
#include "plan/plan_builder.h"
#include "sim/profile_runner.h"

namespace raqo::optimizer {
namespace {

using catalog::TableId;
using catalog::TpchQuery;

FixedResourceEvaluator MakeEvaluator() {
  static const cost::JoinCostModels* models = new cost::JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  return FixedResourceEvaluator(*models, resource::ResourceConfig(6, 20));
}

TEST(BushyDpTest, SingleTableAndValidation) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(1.0);
  FixedResourceEvaluator eval = MakeEvaluator();
  BushyDpPlanner planner;
  Result<PlannedQuery> single =
      planner.Plan(cat, {*cat.FindTable("orders")}, eval);
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(single->plan->is_scan());
  EXPECT_FALSE(planner.Plan(cat, {}, eval).ok());
  EXPECT_FALSE(planner.Plan(cat, {0, 0}, eval).ok());
}

TEST(BushyDpTest, RespectsTableLimit) {
  catalog::RandomSchemaOptions schema;
  schema.num_tables = kMaxBushyDpTables + 1;
  catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
  BushyDpPlanner planner;
  FixedResourceEvaluator eval = MakeEvaluator();
  Result<PlannedQuery> r = planner.Plan(
      cat, *catalog::RandomQueryTables(cat, kMaxBushyDpTables + 1, 1), eval);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnsupported());
  EXPECT_EQ(eval.operator_cost_calls(), 0);
}

TEST(BushyDpTest, PlansAllTpchQueriesValidly) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  BushyDpPlanner planner;
  for (TpchQuery q : {TpchQuery::kQ12, TpchQuery::kQ3, TpchQuery::kQ2,
                      TpchQuery::kAll}) {
    FixedResourceEvaluator eval = MakeEvaluator();
    std::vector<TableId> tables = *catalog::TpchQueryTables(cat, q);
    Result<PlannedQuery> r = planner.Plan(cat, tables, eval);
    ASSERT_TRUE(r.ok()) << catalog::TpchQueryName(q);
    EXPECT_TRUE(plan::ValidatePlan(cat, *r->plan, tables).ok());
    // Connected queries get cross-product-free plans.
    EXPECT_TRUE(plan::ValidatePlan(cat, *r->plan, tables, true).ok());
  }
}

TEST(BushyDpTest, NeverWorseThanLeftDeepSelinger) {
  // The bushy space strictly contains the left-deep space, so for the
  // same evaluator the bushy optimum can only be at least as good.
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  for (TpchQuery q :
       {TpchQuery::kQ3, TpchQuery::kQ2, TpchQuery::kAll}) {
    std::vector<TableId> tables = *catalog::TpchQueryTables(cat, q);
    FixedResourceEvaluator e1 = MakeEvaluator();
    FixedResourceEvaluator e2 = MakeEvaluator();
    Result<PlannedQuery> bushy = BushyDpPlanner().Plan(cat, tables, e1);
    Result<PlannedQuery> left = SelingerPlanner().Plan(cat, tables, e2);
    ASSERT_TRUE(bushy.ok());
    ASSERT_TRUE(left.ok());
    EXPECT_LE(bushy->cost.seconds, left->cost.seconds * (1 + 1e-9))
        << catalog::TpchQueryName(q);
  }
}

TEST(BushyDpTest, MatchesSelingerOnTwoTables) {
  // With two tables the bushy and left-deep spaces coincide.
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  std::vector<TableId> tables =
      *catalog::TpchQueryTables(cat, TpchQuery::kQ12);
  FixedResourceEvaluator e1 = MakeEvaluator();
  FixedResourceEvaluator e2 = MakeEvaluator();
  Result<PlannedQuery> bushy = BushyDpPlanner().Plan(cat, tables, e1);
  Result<PlannedQuery> left = SelingerPlanner().Plan(cat, tables, e2);
  ASSERT_TRUE(bushy.ok());
  ASSERT_TRUE(left.ok());
  EXPECT_DOUBLE_EQ(bushy->cost.seconds, left->cost.seconds);
}

TEST(BushyDpTest, IsLowerBoundForRandomizedPlanner) {
  // The randomized planner roams the same (bushy) space, so the DP
  // optimum is a true lower bound on anything it finds.
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  std::vector<TableId> tables =
      *catalog::TpchQueryTables(cat, TpchQuery::kAll);
  FixedResourceEvaluator e1 = MakeEvaluator();
  FixedResourceEvaluator e2 = MakeEvaluator();
  Result<PlannedQuery> bushy = BushyDpPlanner().Plan(cat, tables, e1);
  FastRandomizedOptions options;
  options.iterations = 15;
  Result<PlannedQuery> rnd =
      FastRandomizedPlanner(options).PlanBest(cat, tables, e2);
  ASSERT_TRUE(bushy.ok());
  ASSERT_TRUE(rnd.ok());
  EXPECT_LE(bushy->cost.seconds, rnd->cost.seconds * (1 + 1e-9));
  // ...and the randomized planner should get reasonably close.
  EXPECT_LE(rnd->cost.seconds, bushy->cost.seconds * 1.5);
}

TEST(BushyDpTest, HandlesDisconnectedQueries) {
  catalog::Catalog cat;
  TableId a = *cat.AddTable({"a", 1000, 100});
  TableId b = *cat.AddTable({"b", 1000, 100});
  TableId c = *cat.AddTable({"c", 1000, 100});
  ASSERT_TRUE(cat.AddJoin(a, b, 0.001).ok());
  // c is disconnected: a cross product is unavoidable.
  FixedResourceEvaluator eval = MakeEvaluator();
  Result<PlannedQuery> r = BushyDpPlanner().Plan(cat, {a, b, c}, eval);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan->NumJoins(), 2);
  EXPECT_TRUE(plan::ValidatePlan(cat, *r->plan, {a, b, c}).ok());
}

TEST(BushyDpTest, FindsGenuinelyBushyPlanWhenBetter) {
  // A chain a-b-c-d whose outer edges are highly selective but whose
  // bridge edge (b-c) is not: every left-deep order must cross the
  // bridge with one side still huge, materializing an enormous
  // intermediate that a later join consumes. The bushy plan
  // (a JOIN b) JOIN (c JOIN d) reduces both sides first and crosses the
  // bridge with two tiny inputs.
  catalog::Catalog cat;
  TableId a = *cat.AddTable({"a", 1'000'000, 120});
  TableId b = *cat.AddTable({"b", 1'000'000, 120});
  TableId c = *cat.AddTable({"c", 1'000'000, 120});
  TableId d = *cat.AddTable({"d", 1'000'000, 120});
  ASSERT_TRUE(cat.AddJoin(a, b, 1e-9).ok());  // reduces to ~1e3 rows
  ASSERT_TRUE(cat.AddJoin(c, d, 1e-9).ok());  // reduces to ~1e3 rows
  ASSERT_TRUE(cat.AddJoin(b, c, 1.0).ok());   // non-selective bridge
  FixedResourceEvaluator e1 = MakeEvaluator();
  FixedResourceEvaluator e2 = MakeEvaluator();
  Result<PlannedQuery> bushy =
      BushyDpPlanner().Plan(cat, {a, b, c, d}, e1);
  Result<PlannedQuery> left = SelingerPlanner().Plan(cat, {a, b, c, d}, e2);
  ASSERT_TRUE(bushy.ok());
  ASSERT_TRUE(left.ok());
  EXPECT_LT(bushy->cost.seconds, left->cost.seconds * 0.8);
  // The winning plan is not left-deep: some join's right child is a join.
  bool has_bushy_join = false;
  bushy->plan->VisitJoins([&](const plan::PlanNode& j) {
    if (j.right()->is_join() && j.left()->is_join()) has_bushy_join = true;
  });
  EXPECT_TRUE(has_bushy_join);
}

TEST(BushyDpTest, WorksWithRandomSchemas) {
  catalog::RandomSchemaOptions schema;
  schema.num_tables = 30;
  schema.seed = 5;
  catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
  for (int n : {3, 6, 10}) {
    std::vector<TableId> tables = *catalog::RandomQueryTables(cat, n, 7);
    FixedResourceEvaluator e1 = MakeEvaluator();
    FixedResourceEvaluator e2 = MakeEvaluator();
    Result<PlannedQuery> bushy = BushyDpPlanner().Plan(cat, tables, e1);
    Result<PlannedQuery> left = SelingerPlanner().Plan(cat, tables, e2);
    ASSERT_TRUE(bushy.ok()) << n;
    ASSERT_TRUE(left.ok()) << n;
    EXPECT_LE(bushy->cost.seconds, left->cost.seconds * (1 + 1e-9)) << n;
  }
}

}  // namespace
}  // namespace raqo::optimizer
