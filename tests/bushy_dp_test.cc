#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "catalog/random_schema.h"
#include "catalog/tpch.h"
#include "common/rng.h"
#include "core/raqo_cost_evaluator.h"
#include "cost/cost_model.h"
#include "optimizer/bushy_dp.h"
#include "optimizer/fast_randomized.h"
#include "optimizer/fixed_resource_evaluator.h"
#include "optimizer/plan_cost.h"
#include "optimizer/selinger.h"
#include "plan/cardinality.h"
#include "plan/plan_builder.h"
#include "sim/profile_runner.h"

namespace raqo::optimizer {
namespace {

using catalog::TableId;
using catalog::TpchQuery;

const cost::JoinCostModels& Models() {
  static const cost::JoinCostModels* models = new cost::JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  return *models;
}

FixedResourceEvaluator MakeEvaluator() {
  return FixedResourceEvaluator(Models(), resource::ResourceConfig(6, 20));
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

// ---------------------------------------------------------------------
// Exhaustive oracle for both DPs. The two planners share one subset-DP
// engine, so agreeing with each other proves little. Here the test
// enumerates every plan of small random queries itself, costs each with
// EvaluatePlanCost and checks each DP against the minimum.

/// Memoizes an evaluator's operator costs by implementation and input
/// sizes. Both evaluators are pure functions of those, so a plan costs
/// what it would unmemoized; the memo keeps 26,880 five-table bushy
/// plans cheap to cost.
class MemoEvaluator : public PlanCostEvaluator {
 public:
  explicit MemoEvaluator(PlanCostEvaluator* inner) : inner_(inner) {}

 protected:
  Result<OperatorCost> CostJoinImpl(const JoinContext& context) override {
    const auto key = std::make_tuple(static_cast<int>(context.impl),
                                     context.left_bytes, context.right_bytes);
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      it = memo_.emplace(key, inner_->CostJoin(context)).first;
    }
    return it->second;
  }

 private:
  PlanCostEvaluator* inner_;
  std::map<std::tuple<int, double, double>, Result<OperatorCost>> memo_;
};

/// A random query of `n` tables whose join graph is a clique or a random
/// spanning tree; the query joins all of them.
catalog::Catalog OracleCatalog(Rng& rng, int n, bool clique) {
  catalog::Catalog cat;
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(cat.AddTable({std::string(1, static_cast<char>('a' + i)),
                              std::pow(10.0, rng.Uniform(4.0, 8.0)),
                              rng.Uniform(50.0, 200.0)})
                    .ok());
  }
  // Each edge is strongly reducing or weak, with equal odds: a weak edge
  // between two reduced sides is where bushy trees and cross products
  // beat the left-deep, edge-only plans.
  auto join = [&](int a, int b) {
    const double selectivity = rng.Bernoulli(0.5)
                                   ? std::pow(10.0, rng.Uniform(-9.0, -6.0))
                                   : std::pow(10.0, rng.Uniform(-2.0, 0.0));
    EXPECT_TRUE(cat.AddJoin(a, b, selectivity).ok());
  };
  for (int i = 1; i < n; ++i) {
    if (clique) {
      for (int j = 0; j < i; ++j) join(j, i);
    } else {
      join(static_cast<int>(rng.UniformInt(0, i - 1)), i);
    }
  }
  return cat;
}

/// The oracle's own view of the join graph of at most five tables, over
/// table masks.
struct OracleGraph {
  OracleGraph(const catalog::Catalog& cat, int n) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (cat.join_graph().HasEdge(i, j)) neighbours[i] |= uint32_t{1} << j;
      }
    }
    for (uint32_t mask = 1; mask < (uint32_t{1} << n); ++mask) {
      uint32_t reached = mask & (~mask + 1);
      for (int round = 0; round < n; ++round) {
        for (int i = 0; i < n; ++i) {
          if (reached >> i & 1) reached |= neighbours[i] & mask;
        }
      }
      connected[mask] = reached == mask;
    }
  }
  bool Adjacent(uint32_t a, uint32_t b) const {
    for (int i = 0; i < 32; ++i) {
      if ((a >> i & 1) && (neighbours[i] & b)) return true;
    }
    return false;
  }
  uint32_t neighbours[32] = {};
  bool connected[32] = {};
};

/// Calls `fn` with every cross-product-free bushy tree over `mask`: each
/// join's two sides are connected and joined by an edge. Both child
/// orders and both implementations of every join are enumerated.
void ForEachBushyTree(
    const OracleGraph& graph, uint32_t mask,
    const std::function<void(std::unique_ptr<plan::PlanNode>)>& fn) {
  if (__builtin_popcount(mask) == 1) {
    fn(plan::PlanNode::MakeScan(__builtin_ctz(mask)));
    return;
  }
  for (uint32_t left = (mask - 1) & mask; left != 0; left = (left - 1) & mask) {
    const uint32_t right = mask ^ left;
    if (!graph.connected[left] || !graph.connected[right] ||
        !graph.Adjacent(left, right)) {
      continue;
    }
    ForEachBushyTree(graph, left, [&](std::unique_ptr<plan::PlanNode> l) {
      ForEachBushyTree(graph, right, [&](std::unique_ptr<plan::PlanNode> r) {
        for (plan::JoinImpl impl : {plan::JoinImpl::kSortMergeJoin,
                                    plan::JoinImpl::kBroadcastHashJoin}) {
          fn(plan::PlanNode::MakeJoin(impl, l->Clone(), r->Clone()));
        }
      });
    });
  }
}

// Twelve seeded queries of 3-5 tables, half cliques and half random
// spanning trees, under both evaluators at time weights 1 and 0:
//   - the bushy DP equals the cheapest cross-product-free bushy tree;
//   - on cliques, Selinger equals the cheapest left-deep plan;
//   - on trees, Selinger lies between the cheapest left-deep plan and
//     the cheapest cross-product-free one (it takes a cross product only
//     to reach a subset no edge reaches).
TEST(SubsetDpOracleTest, BothDpsMatchExhaustiveEnumeration) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTolerance = 1e-9;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const int n = 3 + static_cast<int>(seed % 3);
    const bool clique = seed % 2 == 0;
    const catalog::Catalog cat = OracleCatalog(rng, n, clique);
    const OracleGraph graph(cat, n);
    std::vector<TableId> tables;
    for (int i = 0; i < n; ++i) tables.push_back(i);

    for (const bool raqo : {false, true}) {
      for (const double weight : {1.0, 0.0}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << (clique ? ", clique" : ", tree")
                     << " of " << n << (raqo ? ", RAQO" : ", fixed")
                     << " evaluator, weight " << weight);
        auto make_evaluator = [&]() -> std::unique_ptr<PlanCostEvaluator> {
          if (!raqo) {
            return std::make_unique<FixedResourceEvaluator>(MakeEvaluator());
          }
          core::RaqoEvaluatorOptions options;
          options.time_weight = weight;
          return std::make_unique<core::RaqoCostEvaluator>(
              Models(), resource::ClusterConditions::PaperDefault(),
              resource::PricingModel(), options);
        };
        std::unique_ptr<PlanCostEvaluator> oracle = make_evaluator();
        MemoEvaluator memo(oracle.get());
        plan::CardinalityEstimator estimator(&cat);
        auto scalar = [&](plan::PlanNode& plan) {
          Result<cost::CostVector> cost =
              EvaluatePlanCost(plan, estimator, memo);
          return cost.ok() ? cost->Weighted(weight) : kInf;
        };

        double best_bushy = kInf;
        ForEachBushyTree(graph, (uint32_t{1} << n) - 1,
                         [&](std::unique_ptr<plan::PlanNode> plan) {
                           best_bushy = std::min(best_bushy, scalar(*plan));
                         });
        double best_left_deep = kInf;
        double best_left_deep_free = kInf;  // cross-product-free only
        std::vector<TableId> order = tables;
        do {
          bool cross_product_free = true;
          uint32_t prefix = uint32_t{1} << order[0];
          for (int i = 1; i < n; ++i) {
            const uint32_t table = uint32_t{1} << order[i];
            cross_product_free &= graph.Adjacent(table, prefix);
            prefix |= table;
          }
          for (uint32_t choice = 0; choice < (uint32_t{1} << (n - 1));
               ++choice) {
            std::vector<plan::JoinImpl> impls;
            for (int i = 0; i + 1 < n; ++i) {
              impls.push_back((choice >> i & 1)
                                  ? plan::JoinImpl::kBroadcastHashJoin
                                  : plan::JoinImpl::kSortMergeJoin);
            }
            const double cost = scalar(**plan::BuildLeftDeep(order, impls));
            best_left_deep = std::min(best_left_deep, cost);
            if (cross_product_free) {
              best_left_deep_free = std::min(best_left_deep_free, cost);
            }
          }
        } while (std::next_permutation(order.begin(), order.end()));
        ASSERT_LT(best_bushy, kInf);

        std::unique_ptr<PlanCostEvaluator> bushy_evaluator = make_evaluator();
        std::unique_ptr<PlanCostEvaluator> selinger_evaluator =
            make_evaluator();
        BushyDpOptions bushy_options;
        bushy_options.time_weight = weight;
        SelingerOptions selinger_options;
        selinger_options.time_weight = weight;
        Result<PlannedQuery> bushy =
            BushyDpPlanner(bushy_options).Plan(cat, tables, *bushy_evaluator);
        Result<PlannedQuery> selinger = SelingerPlanner(selinger_options)
                                            .Plan(cat, tables,
                                                  *selinger_evaluator);
        ASSERT_TRUE(bushy.ok()) << bushy.status().ToString();
        ASSERT_TRUE(selinger.ok()) << selinger.status().ToString();
        const double bushy_cost = bushy->cost.Weighted(weight);
        const double selinger_cost = selinger->cost.Weighted(weight);
        EXPECT_NEAR(bushy_cost, best_bushy, kTolerance * best_bushy);
        if (clique) {
          EXPECT_NEAR(selinger_cost, best_left_deep,
                      kTolerance * best_left_deep);
        } else {
          EXPECT_GE(selinger_cost, best_left_deep * (1 - kTolerance));
          EXPECT_LE(selinger_cost, best_left_deep_free * (1 + kTolerance));
        }
      }
    }
  }
}

}  // namespace
}  // namespace raqo::optimizer
