#include <gtest/gtest.h>

#include <cmath>

#include "catalog/tpch.h"
#include "core/raqo_planner.h"
#include "core/resource_planner.h"
#include "core/robust.h"
#include "core/search_space.h"
#include "cost/model_eval.h"
#include "plan/plan_builder.h"
#include "rules/rule_based.h"
#include "sim/profile_runner.h"
#include "sim/scheduler.h"

namespace raqo {
namespace {

using catalog::TableId;
using catalog::TpchQuery;
using resource::ClusterConditions;
using resource::ResourceConfig;

const cost::JoinCostModels& Models() {
  static const cost::JoinCostModels* models = new cost::JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  return *models;
}

// ---------------------------------------------------------------------
// Accelerated hill climbing

double FarBowl(const ResourceConfig& c) {
  // Optimum far from the start (the cluster minimum).
  const double dcs = c.container_size_gb() - 90.0;
  const double dnc = c.num_containers() - 80'000.0;
  return dcs * dcs + 1e-6 * dnc * dnc + 3.0;
}

TEST(AcceleratedHillClimbTest, FindsConvexOptimum) {
  core::AcceleratedHillClimbResourcePlanner planner;
  ClusterConditions cluster = ClusterConditions::PaperDefault();
  auto bowl = [](const ResourceConfig& c) {
    const double dcs = c.container_size_gb() - 6.0;
    const double dnc = c.num_containers() - 40.0;
    return dcs * dcs + 0.01 * dnc * dnc + 5.0;
  };
  Result<core::ResourcePlanResult> r = planner.PlanResources(bowl, cluster);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->config, ResourceConfig(6, 40));
  EXPECT_DOUBLE_EQ(r->cost, 5.0);
}

TEST(AcceleratedHillClimbTest, LogarithmicOnHugeGrids) {
  // 100 GB x 100K containers, optimum ~(90, 80000): the plain climber
  // needs ~80K iterations; the accelerated one only O(log) per leg.
  ClusterConditions cluster = ClusterConditions::WithMax(100, 100'000);
  core::AcceleratedHillClimbResourcePlanner fast;
  core::HillClimbResourcePlanner slow;
  Result<core::ResourcePlanResult> f = fast.PlanResources(FarBowl, cluster);
  Result<core::ResourcePlanResult> s = slow.PlanResources(FarBowl, cluster);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(s.ok());
  EXPECT_LT(f->configs_explored, 2'000);
  EXPECT_GT(s->configs_explored, 50'000);
  // Both land near the optimum.
  EXPECT_NEAR(f->config.container_size_gb(), 90.0, 1.0);
  EXPECT_NEAR(f->config.num_containers(), 80'000.0, 2'000.0);
  EXPECT_LE(f->cost, s->cost * 1.05);
}

TEST(AcceleratedHillClimbTest, StaysOnGrid) {
  ClusterConditions cluster = *ClusterConditions::Create(
      ResourceConfig(1, 5), ResourceConfig(10, 500), ResourceConfig(1, 5));
  core::AcceleratedHillClimbResourcePlanner planner;
  auto objective = [](const ResourceConfig& c) {
    return std::fabs(c.num_containers() - 333.0) + c.container_size_gb();
  };
  Result<core::ResourcePlanResult> r =
      planner.PlanResources(objective, cluster);
  ASSERT_TRUE(r.ok());
  // nc must be 5-aligned: the nearest grid points to 333 are 330/335.
  const double rem = std::fmod(r->config.num_containers() - 5.0, 5.0);
  EXPECT_NEAR(rem, 0.0, 1e-9);
  EXPECT_NEAR(r->config.num_containers(), 335.0, 5.0);
}

TEST(AcceleratedHillClimbTest, InfeasibleEverywhereFails) {
  core::AcceleratedHillClimbResourcePlanner planner;
  auto infeasible = [](const ResourceConfig&) {
    return std::numeric_limits<double>::infinity();
  };
  EXPECT_TRUE(
      planner.PlanResources(infeasible, ClusterConditions::WithMax(2, 2))
          .status()
          .IsFailedPrecondition());
}

TEST(AcceleratedHillClimbTest, AvailableThroughEvaluatorOptions) {
  core::RaqoEvaluatorOptions options;
  options.search = core::ResourceSearch::kAcceleratedHillClimb;
  core::RaqoCostEvaluator eval(Models(),
                               ClusterConditions::WithMax(100, 100'000),
                               resource::PricingModel(), options);
  optimizer::JoinContext ctx;
  ctx.impl = plan::JoinImpl::kSortMergeJoin;
  ctx.left_bytes = catalog::GbToBytes(3);
  ctx.right_bytes = catalog::GbToBytes(77);
  Result<optimizer::OperatorCost> cost = eval.CostJoin(ctx);
  ASSERT_TRUE(cost.ok());
  EXPECT_LT(eval.resource_configs_explored(), 5'000);
}

// ---------------------------------------------------------------------
// Robustness analysis

TEST(RobustnessTest, SmjPlanSurvivesDegradation) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  std::vector<TableId> q12 = *catalog::TpchQueryTables(cat, TpchQuery::kQ12);
  auto smj = *plan::BuildLeftDeep(q12, plan::JoinImpl::kSortMergeJoin);
  Result<core::RobustnessReport> report = core::EvaluatePlanRobustness(
      cat, Models(), ClusterConditions::PaperDefault(),
      resource::PricingModel(), *smj);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->AlwaysFeasible());
  EXPECT_EQ(report->per_perturbation_cost.size(), 5u);
  // Costs can only get worse as the cluster shrinks.
  EXPECT_GE(report->worst_cost, report->per_perturbation_cost[0]);
}

TEST(RobustnessTest, BhjPlanBreaksWhenContainersShrink) {
  // A 5.1 GB broadcast needs ~4.5+ GB containers; halving the 10 GB
  // maximum kills it.
  catalog::Catalog cat;
  TableId orders = *cat.AddTable({"orders_sample", 49'000'000, 110});
  TableId lineitem = *cat.AddTable({"lineitem", 600'000'000, 130});
  ASSERT_TRUE(cat.AddJoin(lineitem, orders, 1e-8).ok());
  auto bhj =
      *plan::BuildLeftDeep({lineitem, orders},
                           plan::JoinImpl::kBroadcastHashJoin);
  core::RobustnessOptions options;
  options.perturbations = {{1.0, 1.0}, {0.4, 1.0}};
  Result<core::RobustnessReport> report = core::EvaluatePlanRobustness(
      cat, Models(), ClusterConditions::PaperDefault(),
      resource::PricingModel(), *bhj, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->infeasible_count, 1);
  EXPECT_FALSE(report->AlwaysFeasible());
  EXPECT_TRUE(std::isinf(report->worst_cost));
}

TEST(RobustnessTest, PickPrefersAlwaysFeasiblePlan) {
  catalog::Catalog cat;
  TableId orders = *cat.AddTable({"orders_sample", 49'000'000, 110});
  TableId lineitem = *cat.AddTable({"lineitem", 600'000'000, 130});
  ASSERT_TRUE(cat.AddJoin(lineitem, orders, 1e-8).ok());
  auto bhj = *plan::BuildLeftDeep({lineitem, orders},
                                  plan::JoinImpl::kBroadcastHashJoin);
  auto smj = *plan::BuildLeftDeep({lineitem, orders},
                                  plan::JoinImpl::kSortMergeJoin);
  core::RobustnessOptions options;
  options.perturbations = {{1.0, 1.0}, {0.4, 1.0}};
  // BHJ is faster when everything is fine, but the robust pick must be
  // SMJ because BHJ dies on the degraded cluster.
  Result<size_t> pick = core::PickRobustPlanIndex(
      cat, Models(), ClusterConditions::PaperDefault(),
      resource::PricingModel(), {bhj.get(), smj.get()}, options);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 1u);
}

TEST(RobustnessTest, ValidatesInput) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(1.0);
  auto plan = *plan::BuildLeftDeep(
      *catalog::TpchQueryTables(cat, TpchQuery::kQ12),
      plan::JoinImpl::kSortMergeJoin);
  core::RobustnessOptions bad;
  bad.perturbations = {};
  EXPECT_FALSE(core::EvaluatePlanRobustness(
                   cat, Models(), ClusterConditions::PaperDefault(),
                   resource::PricingModel(), *plan, bad)
                   .ok());
  bad.perturbations = {{-1.0, 1.0}};
  EXPECT_FALSE(core::EvaluatePlanRobustness(
                   cat, Models(), ClusterConditions::PaperDefault(),
                   resource::PricingModel(), *plan, bad)
                   .ok());
  EXPECT_FALSE(core::PickRobustPlanIndex(cat, Models(),
                                         ClusterConditions::PaperDefault(),
                                         resource::PricingModel(), {})
                   .ok());
}

// ---------------------------------------------------------------------
// Resource-aware scheduler

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : cat_(catalog::BuildTpchCatalog(100.0)) {
    q12_ = *catalog::TpchQueryTables(cat_, TpchQuery::kQ12);
    // Primary: SMJ across 40 fat containers. Alternative: SMJ on 8.
    primary_ = *plan::BuildLeftDeep(q12_, plan::JoinImpl::kSortMergeJoin);
    primary_->set_resources(ResourceConfig(8, 40));
    alternative_ = *plan::BuildLeftDeep(q12_, plan::JoinImpl::kSortMergeJoin);
    alternative_->set_resources(ResourceConfig(8, 8));
  }

  catalog::Catalog cat_;
  std::vector<TableId> q12_;
  std::unique_ptr<plan::PlanNode> primary_;
  std::unique_ptr<plan::PlanNode> alternative_;
};

TEST_F(SchedulerTest, RunsPrimaryWhenResourcesFree) {
  sim::ResourceAwareScheduler scheduler(sim::EngineProfile::Hive(), &cat_);
  sim::ClusterAvailability available;
  available.free_containers = 100;
  Result<sim::ScheduleDecision> d =
      scheduler.Decide({primary_.get(), alternative_.get()}, available);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->action, sim::ScheduleAction::kRunPrimary);
  EXPECT_EQ(d->plan_index, 0u);
  EXPECT_DOUBLE_EQ(d->wait_s, 0.0);
}

TEST_F(SchedulerTest, SwitchesToAlternativeWhenQueueIsSlow) {
  sim::ResourceAwareScheduler scheduler(sim::EngineProfile::Hive(), &cat_);
  sim::ClusterAvailability available;
  available.free_containers = 10;   // primary needs 40
  available.drain_rate_containers_per_s = 0.001;  // would wait ~8 hours
  Result<sim::ScheduleDecision> d =
      scheduler.Decide({primary_.get(), alternative_.get()}, available);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->action, sim::ScheduleAction::kRunAlternative);
  EXPECT_EQ(d->plan_index, 1u);
}

TEST_F(SchedulerTest, WaitsWhenDrainIsFast) {
  sim::ResourceAwareScheduler scheduler(sim::EngineProfile::Hive(), &cat_);
  sim::ClusterAvailability available;
  available.free_containers = 38;  // primary needs 40: tiny deficit
  available.drain_rate_containers_per_s = 100.0;  // frees in 0.02 s
  Result<sim::ScheduleDecision> d =
      scheduler.Decide({primary_.get(), alternative_.get()}, available);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->action, sim::ScheduleAction::kWait);
  EXPECT_EQ(d->plan_index, 0u);
  EXPECT_GT(d->wait_s, 0.0);
  EXPECT_LT(d->wait_s, 1.0);
}

TEST_F(SchedulerTest, RejectsOversizedAndInvalidInput) {
  sim::ResourceAwareScheduler scheduler(sim::EngineProfile::Hive(), &cat_);
  sim::ClusterAvailability available;
  available.max_container_gb = 4.0;  // plans demand 8 GB containers
  Result<sim::ScheduleDecision> d =
      scheduler.Decide({primary_.get()}, available);
  ASSERT_FALSE(d.ok());
  EXPECT_TRUE(d.status().IsResourceExhausted());

  EXPECT_FALSE(scheduler.Decide({}, sim::ClusterAvailability{}).ok());
  sim::ClusterAvailability bad;
  bad.drain_rate_containers_per_s = 0.0;
  EXPECT_FALSE(scheduler.Decide({primary_.get()}, bad).ok());

  // Plans without resource requests are rejected.
  auto bare = *plan::BuildLeftDeep(q12_, plan::JoinImpl::kSortMergeJoin);
  Result<sim::ScheduleDecision> no_res =
      scheduler.Decide({bare.get()}, sim::ClusterAvailability{});
  ASSERT_FALSE(no_res.ok());
  EXPECT_TRUE(no_res.status().IsFailedPrecondition());
}

TEST_F(SchedulerTest, DecisionToStringMentionsAction) {
  sim::ScheduleDecision d;
  d.action = sim::ScheduleAction::kWait;
  d.wait_s = 3;
  EXPECT_NE(d.ToString().find("wait"), std::string::npos);
  EXPECT_STREQ(sim::ScheduleActionName(sim::ScheduleAction::kRunPrimary),
               "run-primary");
}

// ---------------------------------------------------------------------
// Cost-model fit reporting

TEST(ModelEvalTest, PerfectModelScoresPerfectly) {
  // Enough observations to determine the extended feature set's
  // 10 weights + intercept.
  std::vector<cost::ProfileSample> samples;
  for (double ss : {1.0, 2.0, 3.0, 4.0}) {
    for (double nc : {5.0, 10.0, 20.0}) {
      for (double cs : {2.0, 4.0}) {
        cost::ProfileSample s;
        s.features.smaller_gb = ss;
        s.features.larger_gb = 10.0;
        s.features.container_size_gb = cs;
        s.features.num_containers = nc;
        s.seconds = 7.0 * ss + 100.0 + nc + 2.0 * cs;
        samples.push_back(s);
      }
    }
  }
  Result<cost::OperatorCostModel> model =
      cost::OperatorCostModel::Train("exact", samples);
  ASSERT_TRUE(model.ok());
  Result<cost::ModelFitReport> report =
      cost::EvaluateFit(*model, samples);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->r_squared, 0.999);
  EXPECT_LT(report->mean_abs_pct_error, 0.5);
  EXPECT_EQ(report->samples, samples.size());
  EXPECT_NE(report->ToString().find("R^2"), std::string::npos);
}

TEST(ModelEvalTest, ExtendedModelFitsSimulatorBetterThanPaperForm) {
  // The ablation the paper defers to future work: richer cost-model
  // features fit the execution profiles substantially better.
  const sim::EngineProfile hive = sim::EngineProfile::Hive();
  const auto samples = sim::CollectProfileSamples(
      hive, plan::JoinImpl::kSortMergeJoin, sim::ProfileGrid());
  Result<cost::OperatorCostModel> extended = cost::OperatorCostModel::Train(
      "smj-ext", samples, cost::FeatureSet::kExtended);
  Result<cost::OperatorCostModel> paper = cost::OperatorCostModel::Train(
      "smj-paper", samples, cost::FeatureSet::kPaper);
  ASSERT_TRUE(extended.ok());
  ASSERT_TRUE(paper.ok());
  const auto ext_fit = *cost::EvaluateFit(*extended, samples);
  const auto paper_fit = *cost::EvaluateFit(*paper, samples);
  EXPECT_GT(ext_fit.r_squared, paper_fit.r_squared);
  EXPECT_GT(ext_fit.r_squared, 0.9);
  EXPECT_LT(ext_fit.rmse_seconds, paper_fit.rmse_seconds);
}

TEST(ModelEvalTest, RejectsEmptySamples) {
  EXPECT_FALSE(cost::EvaluateFit(cost::PaperHiveSmjModel(), {}).ok());
}

// ---------------------------------------------------------------------
// Search-space accounting (Section VI-B)

TEST(SearchSpaceTest, MatchesClosedFormOnSmallInputs) {
  // n=3, a=2, rp=4, rc=5: joint = 3! * (2*4*5)^3 = 6 * 64000 = 384000;
  // independent = 3! * 2 * 3 * 4 * 5 = 720.
  const core::SearchSpaceSize space = core::ComputeSearchSpace(3, 2, 4, 5);
  EXPECT_NEAR(std::pow(10.0, space.log10_joint), 384'000.0, 1.0);
  EXPECT_NEAR(std::pow(10.0, space.log10_independent), 720.0, 0.01);
  EXPECT_NE(space.ToString().find("joint 10^"), std::string::npos);
}

TEST(SearchSpaceTest, IndependenceAssumptionCollapsesTheExponent) {
  // The paper's point: per-operator independence turns the resource
  // factor from exponential in n to linear in n.
  const core::SearchSpaceSize small = core::ComputeSearchSpace(8, 2, 100, 10);
  const core::SearchSpaceSize big = core::ComputeSearchSpace(100, 2, 100, 10);
  EXPECT_GT(small.log10_joint - small.log10_independent, 20.0);
  EXPECT_GT(big.log10_joint - big.log10_independent, 300.0);
  // The independent space of TPC-H All (8 joins) stays enumerable-ish.
  EXPECT_LT(small.log10_independent, 10.0);
}

}  // namespace
}  // namespace raqo
