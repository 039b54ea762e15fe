// Property-based sweeps across randomized inputs: invariants that must
// hold for every seed, not just hand-picked cases.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "catalog/random_schema.h"
#include "catalog/tpch.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "concurrent_handle.h"
#include "core/raqo_planner.h"
#include "core/workload_runner.h"
#include "optimizer/bushy_dp.h"
#include "optimizer/fixed_resource_evaluator.h"
#include "optimizer/plan_cost.h"
#include "optimizer/selinger.h"
#include "plan/cardinality.h"
#include "plan/plan_builder.h"
#include "plan/table_set.h"
#include "resource/cluster_conditions.h"
#include "server/service.h"
#include "sim/profile_runner.h"
#include "sim/simulator.h"
#include "trace/queue_sim.h"

namespace raqo {
namespace {

using catalog::TableId;

class SeededPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// ---------------------------------------------------------------------
// TableSet behaves exactly like a reference std::set over random ops.

TEST_P(SeededPropertyTest, TableSetMatchesReferenceSet) {
  Rng rng(GetParam());
  plan::TableSet set;
  std::set<TableId> reference;
  for (int op = 0; op < 2'000; ++op) {
    const auto id =
        static_cast<TableId>(rng.UniformInt(0, plan::TableSet::kMaxTables - 1));
    if (rng.Bernoulli(0.6)) {
      set.Add(id);
      reference.insert(id);
    } else {
      set.Remove(id);
      reference.erase(id);
    }
    if (op % 100 == 0) {
      EXPECT_EQ(set.Count(), static_cast<int>(reference.size()));
      EXPECT_EQ(set.ToVector(),
                std::vector<TableId>(reference.begin(), reference.end()));
    }
  }
  // Set algebra against a second random set.
  plan::TableSet other;
  std::set<TableId> other_ref;
  for (int i = 0; i < 50; ++i) {
    const auto id =
        static_cast<TableId>(rng.UniformInt(0, plan::TableSet::kMaxTables - 1));
    other.Add(id);
    other_ref.insert(id);
  }
  std::set<TableId> expected_union = reference;
  expected_union.insert(other_ref.begin(), other_ref.end());
  EXPECT_EQ(set.Union(other).Count(),
            static_cast<int>(expected_union.size()));
  for (TableId id : other_ref) {
    EXPECT_EQ(set.Intersect(other).Contains(id),
              reference.count(id) > 0);
    EXPECT_FALSE(set.Minus(other).Contains(id));
  }
}

// ---------------------------------------------------------------------
// Cluster grids: iteration, containment, and snapping are consistent.

TEST_P(SeededPropertyTest, ClusterGridConsistency) {
  Rng rng(GetParam());
  const double max_cs = rng.Uniform(2, 20);
  const double max_nc = static_cast<double>(rng.UniformInt(2, 500));
  const double step_cs = rng.Uniform(0.5, 2.0);
  const double step_nc = static_cast<double>(rng.UniformInt(1, 7));
  Result<resource::ClusterConditions> cluster =
      resource::ClusterConditions::Create(
          resource::ResourceConfig(1, 1),
          resource::ResourceConfig(max_cs, max_nc),
          resource::ResourceConfig(step_cs, step_nc));
  ASSERT_TRUE(cluster.ok());

  int64_t visited = 0;
  cluster->ForEachConfig([&](const resource::ResourceConfig& c) {
    ++visited;
    EXPECT_TRUE(cluster->Contains(c));
    // Grid points snap to themselves.
    EXPECT_EQ(cluster->SnapToGrid(c), c);
    return true;
  });
  EXPECT_EQ(visited, cluster->TotalGridSize());

  // Snapping arbitrary points lands inside the cluster.
  for (int i = 0; i < 100; ++i) {
    const resource::ResourceConfig arbitrary(rng.Uniform(-5, 40),
                                             rng.Uniform(-5, 2000));
    const resource::ResourceConfig snapped =
        cluster->SnapToGrid(arbitrary);
    EXPECT_TRUE(cluster->Contains(snapped));
    EXPECT_EQ(cluster->SnapToGrid(snapped), snapped);  // idempotent
  }
}

// ---------------------------------------------------------------------
// Random plans: structure and mutation-by-planner preserve coverage.

TEST_P(SeededPropertyTest, RandomPlansAlwaysCoverTheQuery) {
  catalog::RandomSchemaOptions schema;
  schema.num_tables = 25;
  schema.seed = GetParam();
  catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
  Rng rng(GetParam() * 7 + 1);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(2, 25));
    std::vector<TableId> tables =
        *catalog::RandomQueryTables(cat, n, GetParam() + trial);
    auto plan = *plan::BuildRandomPlan(cat, tables, rng);
    EXPECT_TRUE(plan::ValidatePlan(cat, *plan, tables).ok());
    EXPECT_TRUE(plan::ValidatePlan(cat, *plan, tables, true).ok())
        << "random plan contains a cross product on a connected query";
    EXPECT_EQ(plan->NumJoins(), n - 1);
    // Clone equivalence.
    auto copy = plan->Clone();
    EXPECT_TRUE(copy->StructurallyEquals(*plan));
  }
}

// ---------------------------------------------------------------------
// End-to-end fuzz: planning random queries on random schemas never
// crashes, and emitted joint plans are valid and executable.

TEST_P(SeededPropertyTest, PlannerFuzzOnRandomSchemas) {
  catalog::RandomSchemaOptions schema;
  schema.num_tables = 16;
  schema.seed = GetParam();
  catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
  static const cost::JoinCostModels* models = new cost::JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  const resource::ClusterConditions cluster =
      resource::ClusterConditions::PaperDefault();

  for (core::PlannerAlgorithm algorithm :
       {core::PlannerAlgorithm::kSelinger,
        core::PlannerAlgorithm::kFastRandomized}) {
    core::RaqoPlannerOptions options;
    options.algorithm = algorithm;
    options.randomized.iterations = 3;
    options.randomized.moves_per_iteration = 12;
    options.randomized.seed = GetParam();
    core::RaqoPlanner planner(&cat, *models, cluster,
                              resource::PricingModel(), options);
    for (int q = 2; q <= 10; q += 4) {
      std::vector<TableId> tables =
          *catalog::RandomQueryTables(cat, q, GetParam() + q);
      Result<core::JointPlan> joint = planner.Plan(tables);
      ASSERT_TRUE(joint.ok()) << joint.status().ToString();
      EXPECT_TRUE(plan::ValidatePlan(cat, *joint->plan, tables).ok());
      joint->plan->VisitJoins([&](const plan::PlanNode& j) {
        ASSERT_TRUE(j.resources().has_value());
        EXPECT_TRUE(cluster.Contains(*j.resources()));
      });
      // The joint plan must execute on the simulator (resources were
      // chosen in the feasible region).
      sim::ExecutionSimulator simulator(sim::EngineProfile::Hive(), &cat);
      Result<sim::SimPlanResult> run =
          simulator.RunPlan(*joint->plan, sim::ExecParams{});
      EXPECT_TRUE(run.ok()) << run.status().ToString();
    }
  }
}

// ---------------------------------------------------------------------
// Concurrency determinism: for any seed, N threads calling
// PlanningService::Handle on one service pick the same per-query cost,
// plan, and join resource configurations as one planner planning the
// workload in order.

TEST_P(SeededPropertyTest, ConcurrentRunnerMatchesSequential) {
  catalog::RandomSchemaOptions schema;
  schema.num_tables = 12;
  schema.seed = GetParam();
  catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
  static const cost::JoinCostModels* models = new cost::JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  const resource::ClusterConditions cluster =
      resource::ClusterConditions::PaperDefault();

  Rng rng(GetParam() * 13 + 5);
  std::vector<core::WorkloadQuery> workload;
  for (int i = 0; i < 16; ++i) {
    core::WorkloadQuery query;
    query.label = "q" + std::to_string(i);
    query.tables = *catalog::RandomQueryTables(
        cat, static_cast<int>(rng.UniformInt(2, 7)), GetParam() + i * 31);
    workload.push_back(std::move(query));
  }

  // Shared exact-match caching keeps concurrent planning bit-identical
  // to sequential planning (see PlanningService's contract).
  core::RaqoPlannerOptions options;
  options.evaluator.use_cache = true;
  options.evaluator.cache_mode = core::CacheLookupMode::kExact;
  options.clear_cache_between_queries = false;

  core::RaqoPlanner planner(&cat, *models, cluster,
                            resource::PricingModel(), options);
  const std::vector<server::PlanResponse> seq =
      PlanSequentially(planner, cat, workload);
  const std::vector<server::PlanRequest> requests =
      TableListRequests(cat, workload);

  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    server::PlanningServiceOptions service_options;
    service_options.planner = options;
    const server::PlanningService service(&cat, *models, cluster,
                                          resource::PricingModel(),
                                          service_options);
    ExpectSamePlans(HandleOnThreads(service, requests, threads), seq);
  }
}

// ---------------------------------------------------------------------
// Metamorphic properties of the default, exact resource search: over
// the four TPC-H queries and 34 random 10-table schemas per seed, the
// optimal joint cost must not depend on the order the tables are listed
// in, must never rise when the resource grid grows, and must be
// reproduced bit-for-bit by planning resources for the chosen plan. The
// optimal time must not fall when every table grows.

struct MetamorphicCase {
  std::string label;
  std::shared_ptr<const catalog::Catalog> catalog;
  std::vector<TableId> tables;
};

std::vector<MetamorphicCase> MetamorphicCases(uint64_t seed) {
  std::vector<MetamorphicCase> cases;
  auto tpch = std::make_shared<const catalog::Catalog>(
      catalog::BuildTpchCatalog(100.0));
  for (catalog::TpchQuery query :
       {catalog::TpchQuery::kQ12, catalog::TpchQuery::kQ3,
        catalog::TpchQuery::kQ2, catalog::TpchQuery::kAll}) {
    cases.push_back({catalog::TpchQueryName(query), tpch,
                     *catalog::TpchQueryTables(*tpch, query)});
  }
  Rng rng(seed * 7 + 1);
  for (int trial = 0; trial < 34; ++trial) {
    catalog::RandomSchemaOptions schema;
    schema.num_tables = 10;
    schema.seed = seed * 1000 + static_cast<uint64_t>(trial);
    auto cat = std::make_shared<const catalog::Catalog>(
        *catalog::BuildRandomCatalog(schema));
    std::vector<TableId> tables = *catalog::RandomQueryTables(
        *cat, static_cast<int>(rng.UniformInt(2, 8)), schema.seed * 31 + 1);
    cases.push_back({"random schema " + std::to_string(schema.seed),
                     std::move(cat), std::move(tables)});
  }
  return cases;
}

const cost::JoinCostModels& HiveModels() {
  static const cost::JoinCostModels* models = new cost::JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  return *models;
}

TEST_P(SeededPropertyTest, TableOrderNeverChangesOptimalCost) {
  Rng rng(GetParam() + 3);
  for (const MetamorphicCase& c : MetamorphicCases(GetParam())) {
    core::RaqoPlanner planner(c.catalog.get(), HiveModels(),
                              resource::ClusterConditions::PaperDefault());
    const Result<core::JointPlan> listed = planner.Plan(c.tables);
    ASSERT_TRUE(listed.ok()) << c.label << ": " << listed.status().ToString();
    std::vector<TableId> permuted = c.tables;
    for (size_t i = permuted.size(); i > 1; --i) {
      std::swap(permuted[i - 1],
                permuted[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(i) - 1))]);
    }
    const Result<core::JointPlan> shuffled = planner.Plan(permuted);
    ASSERT_TRUE(shuffled.ok()) << c.label;
    EXPECT_EQ(shuffled->cost.seconds, listed->cost.seconds) << c.label;
    EXPECT_EQ(shuffled->cost.dollars, listed->cost.dollars) << c.label;
  }
}

TEST_P(SeededPropertyTest, LargerGridNeverRaisesOptimalCost) {
  Rng rng(GetParam() + 5);
  for (const MetamorphicCase& c : MetamorphicCases(GetParam())) {
    // Unit minima and steps on both grids; only the maxima grow.
    const double cs = static_cast<double>(rng.UniformInt(2, 10));
    const double nc = static_cast<double>(rng.UniformInt(10, 100));
    const resource::ClusterConditions grid =
        resource::ClusterConditions::WithMax(cs, nc);
    const resource::ClusterConditions superset =
        resource::ClusterConditions::WithMax(
            cs + static_cast<double>(rng.UniformInt(0, 6)),
            nc + static_cast<double>(rng.UniformInt(1, 100)));
    core::RaqoPlanner small(c.catalog.get(), HiveModels(), grid);
    core::RaqoPlanner large(c.catalog.get(), HiveModels(), superset);
    const Result<core::JointPlan> on_small = small.Plan(c.tables);
    const Result<core::JointPlan> on_large = large.Plan(c.tables);
    ASSERT_TRUE(on_small.ok()) << c.label << ": "
                               << on_small.status().ToString();
    ASSERT_TRUE(on_large.ok()) << c.label;
    EXPECT_LE(on_large->cost.seconds, on_small->cost.seconds)
        << c.label << " on " << grid.ToString() << " vs "
        << superset.ToString();
  }
}

TEST_P(SeededPropertyTest, ReplanningResourcesReproducesOptimalCost) {
  for (const MetamorphicCase& c : MetamorphicCases(GetParam())) {
    core::RaqoPlanner planner(c.catalog.get(), HiveModels(),
                              resource::ClusterConditions::PaperDefault());
    const Result<core::JointPlan> joint = planner.Plan(c.tables);
    ASSERT_TRUE(joint.ok()) << c.label << ": " << joint.status().ToString();
    const Result<core::JointPlan> replanned =
        planner.PlanResourcesForPlan(*joint->plan);
    ASSERT_TRUE(replanned.ok()) << c.label << ": "
                                << replanned.status().ToString();
    EXPECT_EQ(replanned->cost.seconds, joint->cost.seconds) << c.label;
    EXPECT_EQ(replanned->cost.dollars, joint->cost.dollars) << c.label;
  }
}

// `source` with every table's row count multiplied by `k`. Join edges
// and their selectivities are copied unchanged, so every intermediate
// result grows too.
std::shared_ptr<const catalog::Catalog> ScaledCatalog(
    const catalog::Catalog& source, double k) {
  auto scaled = std::make_shared<catalog::Catalog>();
  for (TableId id : source.AllTableIds()) {
    catalog::TableDef def = source.table(id);
    def.row_count *= k;
    const Result<TableId> added = scaled->AddTable(std::move(def));
    EXPECT_TRUE(added.ok() && *added == id) << source.table(id).name;
  }
  for (const catalog::JoinEdge& e : source.join_graph().edges()) {
    EXPECT_TRUE(
        scaled->AddJoin(e.left, e.right, e.selectivity, e.predicate).ok());
  }
  return scaled;
}

TEST_P(SeededPropertyTest, ScalingTablesUpNeverLowersOptimalTime) {
  constexpr double kScales[] = {1.5, 10.0};
  const resource::ClusterConditions grid =
      resource::ClusterConditions::PaperDefault();

  // Precondition: growing both inputs of a join never lowers its
  // predicted time, at any grid cell. Weight signs alone do not show
  // this: the trained SMJ model has small negative weights on ss*nc,
  // ss/cs and ls/cs.
  Rng rng(GetParam() + 7);
  for (int sample = 0; sample < 20; ++sample) {
    const double ls = std::pow(10.0, rng.Uniform(-2.0, 3.0));
    const double ss = ls * std::pow(10.0, rng.Uniform(-4.0, 0.0));
    for (plan::JoinImpl impl : {plan::JoinImpl::kSortMergeJoin,
                                plan::JoinImpl::kBroadcastHashJoin}) {
      const cost::OperatorCostModel& model = HiveModels().ForImpl(impl);
      for (double k : kScales) {
        int64_t violations = 0;
        std::string first;
        grid.ForEachConfig([&](const resource::ResourceConfig& config) {
          const double cs = config.container_size_gb();
          const double nc = config.num_containers();
          const double before = model.PredictSeconds({ss, ls, cs, nc});
          const double after =
              model.PredictSeconds({k * ss, k * ls, cs, nc});
          if (after < before && violations++ == 0) {
            first = StrPrintf("%s at ss=%g ls=%g cs=%g nc=%g: %.17g s, x%g "
                              "gives %.17g s",
                              plan::JoinImplName(impl), ss, ls, cs, nc,
                              before, k, after);
          }
          return true;
        });
        ASSERT_EQ(violations, 0) << first;
      }
    }
  }

  for (const MetamorphicCase& c : MetamorphicCases(GetParam())) {
    core::RaqoPlanner planner(c.catalog.get(), HiveModels(), grid);
    const Result<core::JointPlan> base = planner.Plan(c.tables);
    ASSERT_TRUE(base.ok()) << c.label << ": " << base.status().ToString();
    for (double k : kScales) {
      const std::shared_ptr<const catalog::Catalog> scaled_catalog =
          ScaledCatalog(*c.catalog, k);
      core::RaqoPlanner scaled_planner(scaled_catalog.get(), HiveModels(),
                                       grid);
      const Result<core::JointPlan> scaled = scaled_planner.Plan(c.tables);
      ASSERT_TRUE(scaled.ok()) << c.label << " x" << k << ": "
                               << scaled.status().ToString();
      EXPECT_GE(scaled->cost.seconds, base->cost.seconds)
          << c.label << " with every table x" << k;
    }
  }
}

// ---------------------------------------------------------------------
// Cross-planner agreement: on random join graphs up to 7 tables under a
// fixed resource configuration, the bushy DP optimum is never worse than
// Selinger's left-deep optimum, both planners' reported costs survive
// independent re-evaluation, and when the bushy winner is itself a
// linear tree the two agree exactly (the cost model is symmetric in
// child order, so every linear shape is left-deep-reachable). Under
// joint resource planning, for speed and for money, the bushy optimum's
// scalarized cost is never worse than Selinger's either.

TEST_P(SeededPropertyTest, CrossPlannerAgreementOnRandomGraphs) {
  catalog::RandomSchemaOptions schema;
  schema.num_tables = 10;
  schema.seed = GetParam() * 3 + 2;
  catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
  static const cost::JoinCostModels* models = new cost::JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  const resource::ResourceConfig fixed(6, 20);

  Rng rng(GetParam() + 17);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(2, 7));
    std::vector<TableId> tables =
        *catalog::RandomQueryTables(cat, n, GetParam() * 101 + trial);

    optimizer::FixedResourceEvaluator bushy_eval(*models, fixed);
    optimizer::FixedResourceEvaluator selinger_eval(*models, fixed);
    Result<optimizer::PlannedQuery> bushy =
        optimizer::BushyDpPlanner().Plan(cat, tables, bushy_eval);
    Result<optimizer::PlannedQuery> selinger =
        optimizer::SelingerPlanner().Plan(cat, tables, selinger_eval);
    ASSERT_TRUE(bushy.ok()) << bushy.status().ToString();
    ASSERT_TRUE(selinger.ok()) << selinger.status().ToString();

    // Bushy space contains the left-deep space.
    EXPECT_LE(bushy->cost.seconds,
              selinger->cost.seconds * (1 + 1e-9));

    // Each planner's reported cost matches an independent re-evaluation
    // of the plan it returned.
    plan::CardinalityEstimator estimator(&cat);
    optimizer::FixedResourceEvaluator check(*models, fixed);
    const Result<cost::CostVector> bushy_again =
        optimizer::EvaluatePlanCostConst(*bushy->plan, estimator, check);
    const Result<cost::CostVector> selinger_again =
        optimizer::EvaluatePlanCostConst(*selinger->plan, estimator, check);
    ASSERT_TRUE(bushy_again.ok());
    ASSERT_TRUE(selinger_again.ok());
    EXPECT_NEAR(bushy_again->seconds, bushy->cost.seconds,
                1e-9 * (1.0 + bushy->cost.seconds));
    EXPECT_NEAR(selinger_again->seconds, selinger->cost.seconds,
                1e-9 * (1.0 + selinger->cost.seconds));

    // A linear bushy winner means both explored the same effective
    // space, so the optima must coincide.
    bool linear = true;
    bushy->plan->VisitJoins([&](const plan::PlanNode& join) {
      if (!join.left()->is_scan() && !join.right()->is_scan()) {
        linear = false;
      }
    });
    if (linear) {
      EXPECT_NEAR(bushy->cost.seconds, selinger->cost.seconds,
                  1e-9 * (1.0 + selinger->cost.seconds))
          << "linear bushy optimum disagrees with Selinger on trial "
          << trial;
    }

    for (const double weight : {1.0, 0.0}) {
      core::RaqoEvaluatorOptions eval_options;
      eval_options.time_weight = weight;
      core::RaqoCostEvaluator bushy_raqo(
          *models, resource::ClusterConditions::PaperDefault(),
          resource::PricingModel(), eval_options);
      core::RaqoCostEvaluator selinger_raqo(
          *models, resource::ClusterConditions::PaperDefault(),
          resource::PricingModel(), eval_options);
      optimizer::BushyDpOptions bushy_options;
      bushy_options.time_weight = weight;
      optimizer::SelingerOptions selinger_options;
      selinger_options.time_weight = weight;
      Result<optimizer::PlannedQuery> joint_bushy =
          optimizer::BushyDpPlanner(bushy_options)
              .Plan(cat, tables, bushy_raqo);
      Result<optimizer::PlannedQuery> joint_selinger =
          optimizer::SelingerPlanner(selinger_options)
              .Plan(cat, tables, selinger_raqo);
      ASSERT_TRUE(joint_bushy.ok()) << joint_bushy.status().ToString();
      ASSERT_TRUE(joint_selinger.ok()) << joint_selinger.status().ToString();
      EXPECT_LE(joint_bushy->cost.Weighted(weight),
                joint_selinger->cost.Weighted(weight) * (1 + 1e-9))
          << "time_weight " << weight << ", trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------
// Queue simulations: conservation properties on random traces.

TEST_P(SeededPropertyTest, QueuePoliciesPreserveJobs) {
  trace::WorkloadOptions options;
  options.num_jobs = 1'000;
  options.seed = GetParam();
  const auto jobs = *trace::GenerateWorkload(options);
  for (trace::QueuePolicy policy :
       {trace::QueuePolicy::kFifo, trace::QueuePolicy::kBackfill}) {
    const auto outcomes =
        *trace::SimulateQueue(jobs, options.cluster_capacity, policy);
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_GE(outcomes[i].start_s, jobs[i].arrival_s);
      EXPECT_DOUBLE_EQ(outcomes[i].runtime_s, jobs[i].runtime_s);
    }
    // Capacity is never exceeded at any start instant.
    for (size_t i = 0; i < outcomes.size(); ++i) {
      int used = 0;
      const double t = outcomes[i].start_s;
      for (size_t j = 0; j < outcomes.size(); ++j) {
        if (outcomes[j].start_s <= t &&
            t < outcomes[j].start_s + outcomes[j].runtime_s) {
          used += jobs[j].containers;
        }
      }
      EXPECT_LE(used, options.cluster_capacity)
          << "capacity violated at t=" << t;
    }
  }
}

// ---------------------------------------------------------------------
// Empirical CDF: quantile and fraction are mutually consistent.

TEST_P(SeededPropertyTest, CdfQuantileFractionConsistency) {
  Rng rng(GetParam());
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(rng.LogNormal(1.0, 1.5));
  EmpiricalCdf cdf(samples);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double v = cdf.Quantile(q);
    EXPECT_GE(cdf.FractionAtOrBelow(v), q - 0.01);
  }
  double prev = -1.0;
  for (double v : {0.1, 0.5, 1.0, 5.0, 20.0}) {
    const double f = cdf.FractionAtOrBelow(v);
    EXPECT_GE(f, prev);  // monotone
    EXPECT_NEAR(f + cdf.FractionAtOrAbove(v + 1e-12), 1.0, 0.01);
    prev = f;
  }
}

}  // namespace
}  // namespace raqo
