#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "catalog/tpch.h"
#include "common/rng.h"
#include "core/raqo_cost_evaluator.h"
#include "core/raqo_planner.h"
#include "optimizer/fixed_resource_evaluator.h"
#include "plan/plan_builder.h"
#include "sim/profile_runner.h"

namespace raqo::core {
namespace {

using catalog::TableId;
using catalog::TpchQuery;
using resource::ClusterConditions;
using resource::ResourceConfig;

cost::JoinCostModels SimModels() {
  static const cost::JoinCostModels* models = new cost::JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  return *models;
}

optimizer::JoinContext Ctx(plan::JoinImpl impl, double left_gb,
                           double right_gb) {
  optimizer::JoinContext ctx;
  ctx.impl = impl;
  ctx.left_bytes = catalog::GbToBytes(left_gb);
  ctx.right_bytes = catalog::GbToBytes(right_gb);
  return ctx;
}

TEST(RaqoEvaluatorTest, PlansResourcesPerOperator) {
  RaqoCostEvaluator eval(SimModels(), ClusterConditions::PaperDefault());
  Result<optimizer::OperatorCost> cost =
      eval.CostJoin(Ctx(plan::JoinImpl::kSortMergeJoin, 3, 30));
  ASSERT_TRUE(cost.ok());
  ASSERT_TRUE(cost->resources.has_value());
  EXPECT_TRUE(ClusterConditions::PaperDefault().Contains(*cost->resources));
  EXPECT_GT(eval.resource_configs_explored(), 1);
}

RaqoEvaluatorOptions HillClimbOptions() {
  RaqoEvaluatorOptions options;
  options.search = ResourceSearch::kHillClimb;
  return options;
}

TEST(RaqoEvaluatorTest, HillClimbCheaperThanFixedDefault) {
  // Resource-planned SMJ must be no worse than the same operator under an
  // arbitrary fixed configuration — that is the point of RAQO.
  RaqoCostEvaluator raqo(SimModels(), ClusterConditions::PaperDefault(),
                         resource::PricingModel(), HillClimbOptions());
  optimizer::FixedResourceEvaluator fixed(SimModels(),
                                          ResourceConfig(2, 10));
  auto planned = raqo.CostJoin(Ctx(plan::JoinImpl::kSortMergeJoin, 3, 30));
  auto unplanned = fixed.CostJoin(Ctx(plan::JoinImpl::kSortMergeJoin, 3, 30));
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(unplanned.ok());
  EXPECT_LE(planned->cost.seconds, unplanned->cost.seconds + 1e-9);
}

TEST(RaqoEvaluatorTest, BruteForceMatchesOrBeatsHillClimb) {
  RaqoEvaluatorOptions brute_options;
  brute_options.search = ResourceSearch::kBruteForce;
  RaqoCostEvaluator brute(SimModels(), ClusterConditions::PaperDefault(),
                          resource::PricingModel(), brute_options);
  RaqoCostEvaluator hill(SimModels(), ClusterConditions::PaperDefault(),
                         resource::PricingModel(), HillClimbOptions());
  const auto ctx = Ctx(plan::JoinImpl::kBroadcastHashJoin, 2, 40);
  auto b = brute.CostJoin(ctx);
  auto h = hill.CostJoin(ctx);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(h.ok());
  EXPECT_LE(b->cost.seconds, h->cost.seconds + 1e-9);
  EXPECT_GT(brute.resource_configs_explored(),
            hill.resource_configs_explored());
}

TEST(RaqoEvaluatorTest, SharedCacheHitReturnsTheComputedCostUnsearched) {
  // The server builds an evaluator per request; one whose join is in the
  // shared cache answers with the cost bits of the evaluator that
  // computed it and searches no cell.
  RaqoEvaluatorOptions options;
  options.use_cache = true;
  options.cache_mode = CacheLookupMode::kExact;
  auto shared = std::make_shared<ResourcePlanCache>(
      CacheLookupMode::kExact, 0.0, CacheIndexKind::kSortedArray, 1);
  const auto ctx = Ctx(plan::JoinImpl::kSortMergeJoin, 3, 30);

  RaqoCostEvaluator first(SimModels(), ClusterConditions::PaperDefault(),
                          resource::PricingModel(), options);
  first.ShareCache(shared);
  auto computed = first.CostJoin(ctx);
  ASSERT_TRUE(computed.ok());

  RaqoCostEvaluator second(SimModels(), ClusterConditions::PaperDefault(),
                           resource::PricingModel(), options);
  second.ShareCache(shared);
  auto hit = second.CostJoin(ctx);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->cost.seconds, computed->cost.seconds);
  EXPECT_EQ(hit->cost.dollars, computed->cost.dollars);
  EXPECT_EQ(second.resource_configs_explored(), 0);
}

TEST(RaqoEvaluatorTest, BhjFeasibilityBoundary) {
  RaqoCostEvaluator eval(SimModels(), ClusterConditions::PaperDefault());
  // 50 GB build side fits no 10 GB container.
  auto infeasible =
      eval.CostJoin(Ctx(plan::JoinImpl::kBroadcastHashJoin, 50, 100));
  ASSERT_FALSE(infeasible.ok());
  EXPECT_TRUE(infeasible.status().IsResourceExhausted());
  // 8 GB build side requires a large container; the chosen config must
  // satisfy the capacity bound.
  auto feasible =
      eval.CostJoin(Ctx(plan::JoinImpl::kBroadcastHashJoin, 8, 100));
  ASSERT_TRUE(feasible.ok());
  EXPECT_GE(feasible->resources->container_size_gb() *
                optimizer::kBhjCapacityFactor,
            8.0 - 1e-9);

  // A cache hit planned for a smaller build side must not answer with a
  // container too small for this one. Planned for money, 1.138 GB fits
  // 1 GB containers; 1.145 GB, 0.007 GB away, needs 2 GB ones.
  for (CacheLookupMode mode : {CacheLookupMode::kNearestNeighbor,
                               CacheLookupMode::kWeightedAverage}) {
    RaqoEvaluatorOptions options;
    options.use_cache = true;
    options.cache_mode = mode;
    options.cache_threshold_gb = 0.01;
    options.time_weight = 0.0;
    RaqoCostEvaluator cached(SimModels(), ClusterConditions::PaperDefault(),
                             resource::PricingModel(), options);
    auto small =
        cached.CostJoin(Ctx(plan::JoinImpl::kBroadcastHashJoin, 1.138, 50));
    ASSERT_TRUE(small.ok());
    EXPECT_EQ(small->resources->container_size_gb(), 1.0);
    auto hit =
        cached.CostJoin(Ctx(plan::JoinImpl::kBroadcastHashJoin, 1.145, 50));
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(cached.cache_stats().hits, 1) << CacheLookupModeName(mode);
    EXPECT_EQ(hit->resources->container_size_gb(), 2.0)
        << CacheLookupModeName(mode);
  }
  // The same holds in exact mode for an entry a peer on a finer grid
  // planned (as cache_load would insert it): its 1.25 GB containers snap
  // onto this grid, whose smallest container for 1.15625 GB is 2 GB.
  auto shared = std::make_shared<ResourcePlanCache>(
      CacheLookupMode::kExact, 0.0, CacheIndexKind::kSortedArray, 1);
  CachedResourcePlan peer;
  peer.key_gb = 1.15625;
  peer.larger_gb = 50.0;
  peer.config = ResourceConfig(1.25, 40);
  peer.cost = 1.0;
  const cost::JoinCostModels models = SimModels();
  shared->Insert(models.ForImpl(plan::JoinImpl::kBroadcastHashJoin).name(),
                 peer);
  RaqoEvaluatorOptions exact;
  exact.use_cache = true;
  exact.cache_mode = CacheLookupMode::kExact;
  RaqoCostEvaluator replica(SimModels(), ClusterConditions::PaperDefault(),
                            resource::PricingModel(), exact);
  replica.ShareCache(shared);
  auto answered =
      replica.CostJoin(Ctx(plan::JoinImpl::kBroadcastHashJoin, 1.15625, 50));
  ASSERT_TRUE(answered.ok());
  EXPECT_EQ(replica.resource_configs_explored(), 0);  // answered by the hit
  EXPECT_EQ(answered->resources->container_size_gb(), 2.0);
}

// The join DP asks for a lower bound of each candidate's cost, sorts a
// subset's candidates by it and skips those that cannot win. Over seeded
// contexts (data up to 10,000 GB, BHJ build sides that raise the grid's
// smallest container, weights 0, 0.5, 1 and random, random input costs,
// a third of them repeated so an exact cache hits):
//   - the bound is at most the same context's cost in each component,
//     so the DP's key is at most the candidate's scalar, and an
//     infeasible join answers the bound request with the same error;
//   - a bound request followed by a cost call leaves the same cost bits,
//     resources, cache size, lookup counts and configs explored as the
//     cost call alone: it searches, looks up and inserts nothing, and
//     leaves the warm start alone.
TEST(RaqoEvaluatorTest, IncumbentSkipsOnlyCandidatesThatCannotWin) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "exact cache" : "no cache");
    RaqoEvaluatorOptions options;
    options.use_cache = cached;
    options.cache_mode = CacheLookupMode::kExact;
    RaqoCostEvaluator reference(SimModels(),
                                ClusterConditions::PaperDefault());
    RaqoCostEvaluator bounded(SimModels(), ClusterConditions::PaperDefault(),
                              resource::PricingModel(), options);
    RaqoCostEvaluator plain(SimModels(), ClusterConditions::PaperDefault(),
                            resource::PricingModel(), options);
    Rng rng(cached ? 29 : 17);
    std::vector<optimizer::JoinContext> seen;
    int64_t bounds = 0;
    int64_t tight = 0;  // key within one ulp of the scalar
    for (int i = 0; i < 1500; ++i) {
      optimizer::JoinContext ctx;
      if (!seen.empty() && rng.Bernoulli(0.3)) {
        ctx = seen[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(seen.size()) - 1))];
      } else {
        // Log-uniform sizes put BHJ build sides across the grid-raising
        // range (1.14-11.4 GB); uniform ones reach 10,000 GB.
        auto size_gb = [&] {
          return rng.Bernoulli(0.5) ? std::pow(10.0, rng.Uniform(-3.0, 4.0))
                                    : rng.Uniform(0.0, 10'000.0);
        };
        ctx = Ctx(rng.Bernoulli(0.5) ? plan::JoinImpl::kBroadcastHashJoin
                                     : plan::JoinImpl::kSortMergeJoin,
                  size_gb(), size_gb());
        seen.push_back(ctx);
      }
      const double weights[] = {0.0, 0.5, 1.0, rng.Uniform(0.0, 1.0)};
      const double weight = weights[rng.UniformInt(0, 3)];
      const cost::CostVector inputs =
          rng.Bernoulli(0.8) ? cost::CostVector{rng.Uniform(0.0, 5'000.0),
                                                rng.Uniform(0.0, 50.0)}
                             : cost::CostVector{};

      Result<optimizer::OperatorCost> truth = reference.CostJoin(ctx);
      optimizer::JoinContext bound_ctx = ctx;
      bound_ctx.bound_only = true;
      Result<optimizer::OperatorCost> bound = bounded.CostJoin(bound_ctx);
      if (!truth.ok()) {
        ASSERT_TRUE(truth.status().IsResourceExhausted());
        ASSERT_FALSE(bound.ok());
        EXPECT_EQ(bound.status().code(), truth.status().code());
      } else {
        ASSERT_TRUE(bound.ok()) << bound.status().ToString();
        EXPECT_FALSE(bound->resources.has_value());
        ASSERT_LE(bound->cost.seconds, truth->cost.seconds)
            << "smaller " << ctx.smaller_gb() << " GB";
        ASSERT_LE(bound->cost.dollars, truth->cost.dollars)
            << "smaller " << ctx.smaller_gb() << " GB";
        const double scalar = (inputs + truth->cost).Weighted(weight);
        const double key = (inputs + bound->cost).Weighted(weight);
        ASSERT_LE(key, scalar) << "weight " << weight;
        ++bounds;
        if (key >= std::nextafter(scalar, -kInf)) ++tight;
      }

      Result<optimizer::OperatorCost> after_bound = bounded.CostJoin(ctx);
      Result<optimizer::OperatorCost> alone = plain.CostJoin(ctx);
      ASSERT_EQ(after_bound.ok(), alone.ok());
      if (alone.ok()) {
        EXPECT_EQ(after_bound->cost.seconds, alone->cost.seconds);
        EXPECT_EQ(after_bound->cost.dollars, alone->cost.dollars);
        EXPECT_EQ(after_bound->resources, alone->resources);
      }
      ASSERT_EQ(bounded.cache_size(), plain.cache_size()) << "call " << i;
      ASSERT_EQ(bounded.cache_stats().hits, plain.cache_stats().hits);
      ASSERT_EQ(bounded.cache_stats().misses, plain.cache_stats().misses);
      ASSERT_EQ(bounded.resource_configs_explored(),
                plain.resource_configs_explored())
          << "call " << i;
      ASSERT_EQ(bounded.operator_cost_calls(), plain.operator_cost_calls());
    }
    EXPECT_GT(bounds, 1000);
    // The bound is tight enough that some keys reach their own scalar.
    EXPECT_GT(tight, 0);
    if (cached) {
      EXPECT_GT(plain.cache_stats().hits, 100);
    }
  }
}

// Only a bounded-sweep model with no cache or an exact one gives a bound.
// The exact planners (ModelSearch::kPlanner: the brute force, the hill
// climbs, and the sweep's own evaluator at a weight outside [0, 1]) and
// similarity-mode caches answer Unsupported, so the DP costs their
// candidates in offer order, and the request does no work.
TEST(RaqoEvaluatorTest, IncumbentNeverSkipsOutsideTheSoundEnvelope) {
  optimizer::JoinContext ctx = Ctx(plan::JoinImpl::kSortMergeJoin, 3, 30);
  ctx.bound_only = true;
  {
    RaqoCostEvaluator eval(SimModels(), ClusterConditions::PaperDefault());
    Result<optimizer::OperatorCost> bound = eval.CostJoin(ctx);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    EXPECT_EQ(eval.resource_configs_explored(), 0);
    EXPECT_EQ(eval.operator_cost_calls(), 0);
  }
  auto expect_unsupported = [&](const RaqoEvaluatorOptions& options,
                                const std::string& label) {
    RaqoCostEvaluator eval(SimModels(), ClusterConditions::PaperDefault(),
                           resource::PricingModel(), options);
    for (plan::JoinImpl impl : {plan::JoinImpl::kSortMergeJoin,
                                plan::JoinImpl::kBroadcastHashJoin}) {
      ctx.impl = impl;
      Result<optimizer::OperatorCost> bound = eval.CostJoin(ctx);
      EXPECT_TRUE(!bound.ok() && bound.status().IsUnsupported())
          << label << ": " << bound.status().ToString();
    }
    EXPECT_EQ(eval.resource_configs_explored(), 0) << label;
    EXPECT_EQ(eval.cache_size(), 0u) << label;
    EXPECT_EQ(eval.cache_stats().hits + eval.cache_stats().misses, 0)
        << label;
  };
  for (ResourceSearch search :
       {ResourceSearch::kBruteForce, ResourceSearch::kHillClimb,
        ResourceSearch::kAcceleratedHillClimb}) {
    RaqoEvaluatorOptions options;
    options.search = search;
    expect_unsupported(options,
                       "search " + std::to_string(static_cast<int>(search)));
  }
  for (double weight : {-0.5, 1.5}) {
    RaqoEvaluatorOptions options;
    options.time_weight = weight;
    expect_unsupported(options, "weight " + std::to_string(weight));
  }
  for (CacheLookupMode mode : {CacheLookupMode::kNearestNeighbor,
                               CacheLookupMode::kWeightedAverage}) {
    RaqoEvaluatorOptions options;
    options.use_cache = true;
    options.cache_mode = mode;
    expect_unsupported(options, CacheLookupModeName(mode));
  }
}

TEST(RaqoEvaluatorTest, CacheShortCircuitsRepeatedLookups) {
  RaqoEvaluatorOptions options;
  options.use_cache = true;
  options.cache_mode = CacheLookupMode::kExact;
  RaqoCostEvaluator eval(SimModels(), ClusterConditions::PaperDefault(),
                         resource::PricingModel(), options);
  const auto ctx = Ctx(plan::JoinImpl::kSortMergeJoin, 3, 30);
  auto first = eval.CostJoin(ctx);
  const int64_t after_first = eval.resource_configs_explored();
  auto second = eval.CostJoin(ctx);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(eval.resource_configs_explored(), after_first);  // no new work
  EXPECT_DOUBLE_EQ(first->cost.seconds, second->cost.seconds);
  EXPECT_EQ(*first->resources, *second->resources);
  EXPECT_EQ(eval.cache_stats().hits, 1);
  EXPECT_EQ(eval.cache_stats().misses, 1);
}

TEST(RaqoEvaluatorTest, NearestNeighborCacheServesSimilarData) {
  RaqoEvaluatorOptions options;
  options.use_cache = true;
  options.cache_mode = CacheLookupMode::kNearestNeighbor;
  options.cache_threshold_gb = 0.1;
  RaqoCostEvaluator eval(SimModels(), ClusterConditions::PaperDefault(),
                         resource::PricingModel(), options);
  ASSERT_TRUE(eval.CostJoin(Ctx(plan::JoinImpl::kSortMergeJoin, 3, 30)).ok());
  const int64_t explored = eval.resource_configs_explored();
  // 3.05 GB is within the 0.1 GB delta threshold of 3 GB.
  auto near_hit =
      eval.CostJoin(Ctx(plan::JoinImpl::kSortMergeJoin, 3.05, 30));
  ASSERT_TRUE(near_hit.ok());
  EXPECT_EQ(eval.resource_configs_explored(), explored);
  EXPECT_EQ(eval.cache_stats().hits, 1);
}

TEST(RaqoEvaluatorTest, CacheSeparatesOperatorModels) {
  RaqoEvaluatorOptions options;
  options.use_cache = true;
  options.cache_mode = CacheLookupMode::kExact;
  RaqoCostEvaluator eval(SimModels(), ClusterConditions::PaperDefault(),
                         resource::PricingModel(), options);
  ASSERT_TRUE(eval.CostJoin(Ctx(plan::JoinImpl::kSortMergeJoin, 2, 30)).ok());
  // Same data characteristics but the BHJ model: must be a miss.
  ASSERT_TRUE(
      eval.CostJoin(Ctx(plan::JoinImpl::kBroadcastHashJoin, 2, 30)).ok());
  EXPECT_EQ(eval.cache_stats().hits, 0);
  EXPECT_EQ(eval.cache_stats().misses, 2);
}

TEST(RaqoEvaluatorTest, UpdateClusterConditionsDropsCache) {
  RaqoEvaluatorOptions options;
  options.use_cache = true;
  RaqoCostEvaluator eval(SimModels(), ClusterConditions::PaperDefault(),
                         resource::PricingModel(), options);
  ASSERT_TRUE(eval.CostJoin(Ctx(plan::JoinImpl::kSortMergeJoin, 2, 30)).ok());
  EXPECT_GT(eval.cache_size(), 0u);
  eval.UpdateClusterConditions(ClusterConditions::WithMax(5, 20));
  EXPECT_EQ(eval.cache_size(), 0u);
  auto cost = eval.CostJoin(Ctx(plan::JoinImpl::kSortMergeJoin, 2, 30));
  ASSERT_TRUE(cost.ok());
  EXPECT_TRUE(ClusterConditions::WithMax(5, 20).Contains(*cost->resources));
}

RaqoPlanner MakePlanner(const catalog::Catalog* cat,
                        RaqoPlannerOptions options = RaqoPlannerOptions()) {
  return RaqoPlanner(cat, SimModels(), ClusterConditions::PaperDefault(),
                     resource::PricingModel(), options);
}

TEST(RaqoPlannerTest, PlanEmitsJointQueryResourcePlan) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  RaqoPlanner planner = MakePlanner(&cat);
  std::vector<TableId> q3 = *catalog::TpchQueryTables(cat, TpchQuery::kQ3);
  Result<JointPlan> joint = planner.Plan(q3);
  ASSERT_TRUE(joint.ok());
  EXPECT_TRUE(plan::ValidatePlan(cat, *joint->plan, q3).ok());
  // Every join of the emitted plan carries a resource request.
  joint->plan->VisitJoins([](const plan::PlanNode& j) {
    EXPECT_TRUE(j.resources().has_value());
  });
  EXPECT_GT(joint->stats.resource_configs_explored, 0);
  EXPECT_GT(joint->cost.seconds, 0.0);
}

TEST(RaqoPlannerTest, RaqoBeatsFixedResourceBaseline) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  RaqoPlanner planner = MakePlanner(&cat);
  std::vector<TableId> q3 = *catalog::TpchQueryTables(cat, TpchQuery::kQ3);
  Result<JointPlan> joint = planner.Plan(q3);
  ASSERT_TRUE(joint.ok());
  for (const ResourceConfig& fixed :
       {ResourceConfig(2, 10), ResourceConfig(5, 50),
        ResourceConfig(10, 100)}) {
    Result<JointPlan> baseline = planner.PlanForResources(q3, fixed);
    ASSERT_TRUE(baseline.ok()) << fixed.ToString();
    EXPECT_LE(joint->cost.seconds, baseline->cost.seconds + 1e-6)
        << fixed.ToString();
  }
}

TEST(RaqoPlannerTest, PlanForResourcesValidatesBudget) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  RaqoPlanner planner = MakePlanner(&cat);
  std::vector<TableId> q12 =
      *catalog::TpchQueryTables(cat, TpchQuery::kQ12);
  EXPECT_FALSE(
      planner.PlanForResources(q12, ResourceConfig(50, 10)).ok());
}

TEST(RaqoPlannerTest, PlanResourcesForPlanKeepsStructure) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  RaqoPlanner planner = MakePlanner(&cat);
  std::vector<TableId> q3 = *catalog::TpchQueryTables(cat, TpchQuery::kQ3);
  auto fixed_plan = *plan::BuildLeftDeep(q3, plan::JoinImpl::kSortMergeJoin);
  Result<JointPlan> joint = planner.PlanResourcesForPlan(*fixed_plan);
  ASSERT_TRUE(joint.ok());
  EXPECT_TRUE(joint->plan->StructurallyEquals(*fixed_plan));
  joint->plan->VisitJoins([](const plan::PlanNode& j) {
    EXPECT_TRUE(j.resources().has_value());
  });
}

TEST(RaqoPlannerTest, MoneyBudgetUseCase) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  RaqoPlannerOptions options;
  options.algorithm = PlannerAlgorithm::kFastRandomized;
  RaqoPlanner planner = MakePlanner(&cat, options);
  std::vector<TableId> q3 = *catalog::TpchQueryTables(cat, TpchQuery::kQ3);
  Result<optimizer::MultiObjectiveResult> frontier = planner.PlanFrontier(q3);
  ASSERT_TRUE(frontier.ok());
  ASSERT_FALSE(frontier->frontier.empty());
  // No entry is matched or dominated by another: weight passes that find
  // the same cost vector contribute one point.
  for (const optimizer::ParetoEntry& a : frontier->frontier) {
    for (const optimizer::ParetoEntry& b : frontier->frontier) {
      if (&a == &b) continue;
      EXPECT_FALSE(a.cost.seconds <= b.cost.seconds &&
                   a.cost.dollars <= b.cost.dollars)
          << a.cost.ToString() << " covers " << b.cost.ToString();
    }
  }
  const double cheapest = frontier->CheapestEntry()->cost.dollars;
  // A generous budget admits a plan...
  Result<JointPlan> affordable =
      planner.PlanForMoneyBudget(q3, cheapest * 10);
  ASSERT_TRUE(affordable.ok());
  EXPECT_LE(affordable->cost.dollars, cheapest * 10);
  // ...an impossible budget does not.
  Result<JointPlan> impossible =
      planner.PlanForMoneyBudget(q3, cheapest * 0.01);
  ASSERT_FALSE(impossible.ok());
  EXPECT_TRUE(impossible.status().IsNotFound());
  EXPECT_FALSE(planner.PlanForMoneyBudget(q3, -1.0).ok());
}

TEST(RaqoPlannerTest, BothAlgorithmsProduceComparablePlans) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  std::vector<TableId> tables =
      *catalog::TpchQueryTables(cat, TpchQuery::kAll);
  RaqoPlannerOptions selinger;
  selinger.algorithm = PlannerAlgorithm::kSelinger;
  RaqoPlannerOptions randomized;
  randomized.algorithm = PlannerAlgorithm::kFastRandomized;
  randomized.randomized.iterations = 15;
  RaqoPlanner a = MakePlanner(&cat, selinger);
  RaqoPlanner b = MakePlanner(&cat, randomized);
  Result<JointPlan> pa = a.Plan(tables);
  Result<JointPlan> pb = b.Plan(tables);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  // The randomized planner explores bushy plans too, so either may win,
  // but they should be in the same ballpark.
  EXPECT_LT(pb->cost.seconds, pa->cost.seconds * 2.0);
  EXPECT_LT(pa->cost.seconds, pb->cost.seconds * 2.0);
}

TEST(RaqoPlannerTest, AdaptiveReplanningOnClusterChange) {
  // Adaptive RAQO (Section VIII): when the cluster shrinks, replanning
  // the same query yields resource requests that fit the new conditions.
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  RaqoPlanner planner = MakePlanner(&cat);
  std::vector<TableId> q12 =
      *catalog::TpchQueryTables(cat, TpchQuery::kQ12);
  Result<JointPlan> before = planner.Plan(q12);
  ASSERT_TRUE(before.ok());
  planner.UpdateClusterConditions(ClusterConditions::WithMax(3, 10));
  Result<JointPlan> after = planner.Plan(q12);
  ASSERT_TRUE(after.ok());
  after->plan->VisitJoins([](const plan::PlanNode& j) {
    ASSERT_TRUE(j.resources().has_value());
    EXPECT_TRUE(ClusterConditions::WithMax(3, 10).Contains(*j.resources()));
  });
  // A busier (smaller) cluster cannot make the query faster.
  EXPECT_GE(after->cost.seconds, before->cost.seconds - 1e-9);
}

TEST(RaqoPlannerTest, CacheReducesResourceIterationsAcrossJoins) {
  // TPC-H All has several joins with similar smaller-input sizes; with
  // nearest-neighbor caching the planner should explore fewer
  // configurations.
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  std::vector<TableId> tables =
      *catalog::TpchQueryTables(cat, TpchQuery::kAll);
  RaqoPlannerOptions no_cache;
  RaqoPlannerOptions with_cache;
  with_cache.evaluator.use_cache = true;
  with_cache.evaluator.cache_mode = CacheLookupMode::kNearestNeighbor;
  with_cache.evaluator.cache_threshold_gb = 0.1;
  RaqoPlanner a = MakePlanner(&cat, no_cache);
  RaqoPlanner b = MakePlanner(&cat, with_cache);
  Result<JointPlan> pa = a.Plan(tables);
  Result<JointPlan> pb = b.Plan(tables);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  EXPECT_LT(pb->stats.resource_configs_explored,
            pa->stats.resource_configs_explored);
  EXPECT_GT(pb->stats.cache_hits, 0);
}

TEST(RaqoPlannerTest, ReusedPlannerMatchesFreshPlanner) {
  // A planner that already planned other queries answers each query
  // exactly like a fresh planner, down to the per-query search counters:
  // RunPlanner drops the previous query's warm starts before planning.
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  RaqoPlanner reused = MakePlanner(&cat);
  for (TpchQuery query : {TpchQuery::kAll, TpchQuery::kQ2, TpchQuery::kQ3,
                          TpchQuery::kQ12}) {
    SCOPED_TRACE(catalog::TpchQueryName(query));
    const std::vector<TableId> tables =
        *catalog::TpchQueryTables(cat, query);
    RaqoPlanner fresh = MakePlanner(&cat);
    const Result<JointPlan> expected = fresh.Plan(tables);
    const Result<JointPlan> actual = reused.Plan(tables);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(actual->plan->ToString(), expected->plan->ToString());
    EXPECT_EQ(actual->cost.seconds, expected->cost.seconds);
    EXPECT_EQ(actual->cost.dollars, expected->cost.dollars);
    EXPECT_EQ(actual->stats.resource_configs_explored,
              expected->stats.resource_configs_explored);
  }
}

TEST(RaqoPlannerTest, AlgorithmNames) {
  EXPECT_STREQ(PlannerAlgorithmName(PlannerAlgorithm::kSelinger),
               "Selinger");
  EXPECT_STREQ(PlannerAlgorithmName(PlannerAlgorithm::kFastRandomized),
               "FastRandomized");
}

}  // namespace
}  // namespace raqo::core
