#include <gtest/gtest.h>

#include "catalog/tpch.h"
#include "core/raqo_planner.h"
#include "plan/plan_builder.h"
#include "rules/rule_based.h"
#include "sim/profile_runner.h"
#include "sim/simulator.h"

namespace raqo {
namespace {

using catalog::TableId;
using catalog::TpchQuery;

/// End-to-end: plans produced by RAQO are executed on the simulator (the
/// "real" system in this reproduction) and compared against baselines.
class EndToEndTest : public ::testing::Test {
 protected:
  EndToEndTest()
      : cat_(catalog::BuildTpchCatalog(100.0)),
        profile_(sim::EngineProfile::Hive()),
        models_(*sim::TrainModelsFromSimulator(profile_)),
        simulator_(profile_, &cat_) {}

  /// Simulated execution time of a joint plan (per-node resources).
  double Execute(const plan::PlanNode& plan) {
    sim::ExecParams defaults;
    defaults.container_size_gb = 4.0;
    defaults.num_containers = 10;
    Result<sim::SimPlanResult> run = simulator_.RunPlan(plan, defaults);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run.ok() ? run->seconds : 1e18;
  }

  catalog::Catalog cat_;
  sim::EngineProfile profile_;
  cost::JoinCostModels models_;
  sim::ExecutionSimulator simulator_;
};

TEST_F(EndToEndTest, JointPlanExecutesFasterThanDefaultRulePlan) {
  // The motivating experiment (Figure 2): RAQO's joint query/resource
  // plan versus the default-optimizer plan (10 MB rule, fixed default
  // resources) on the single-join query.
  std::vector<TableId> q12 = *catalog::TpchQueryTables(cat_, TpchQuery::kQ12);

  core::RaqoPlanner planner(&cat_, models_,
                            resource::ClusterConditions::PaperDefault());
  Result<core::JointPlan> joint = planner.Plan(q12);
  ASSERT_TRUE(joint.ok());

  // Default plan: the 10 MB rule picks SMJ for a 15 GB orders table and
  // runs on whatever default the user guessed.
  rules::DefaultRulePolicy default_rule;
  const double orders_gb = cat_.table(*cat_.FindTable("orders")).total_gb();
  const plan::JoinImpl default_impl = default_rule.Choose(
      orders_gb, resource::ResourceConfig(4, 10), 0);
  EXPECT_EQ(default_impl, plan::JoinImpl::kSortMergeJoin);
  auto default_plan = *plan::BuildLeftDeep(q12, default_impl);

  const double joint_seconds = Execute(*joint->plan);
  const double default_seconds = Execute(*default_plan);
  EXPECT_LE(joint_seconds, default_seconds * 1.05);
}

TEST_F(EndToEndTest, CostModelRanksPlansLikeTheSimulator) {
  // For pairs of plans whose simulated times differ substantially, the
  // learned cost model must rank them the same way (that is all a
  // planner needs).
  std::vector<TableId> q2 = *catalog::TpchQueryTables(cat_, TpchQuery::kQ2);
  plan::CardinalityEstimator est(&cat_);

  auto evaluate_model = [&](const plan::PlanNode& p) {
    double total = 0.0;
    p.VisitJoins([&](const plan::PlanNode& j) {
      const plan::JoinInputStats stats = est.JoinStats(j);
      cost::JoinFeatures f;
      f.smaller_gb = stats.smaller_gb();
      f.larger_gb = stats.larger_gb();
      f.container_size_gb = 4.0;
      f.num_containers = 10.0;
      total += models_.ForImpl(j.impl()).PredictSeconds(f);
    });
    return total;
  };

  Rng rng(42);
  int comparable = 0;
  int agreements = 0;
  for (int trial = 0; trial < 80; ++trial) {
    auto a = *plan::BuildRandomPlan(cat_, q2, rng);
    auto b = *plan::BuildRandomPlan(cat_, q2, rng);
    sim::ExecParams params;
    params.container_size_gb = 4.0;
    params.num_containers = 10;
    Result<sim::SimPlanResult> ra = simulator_.RunPlan(*a, params);
    Result<sim::SimPlanResult> rb = simulator_.RunPlan(*b, params);
    if (!ra.ok() || !rb.ok()) continue;  // OOM plans do not count
    if (std::max(ra->seconds, rb->seconds) <
        1.3 * std::min(ra->seconds, rb->seconds)) {
      continue;  // too close to call
    }
    ++comparable;
    const bool sim_prefers_a = ra->seconds < rb->seconds;
    const bool model_prefers_a = evaluate_model(*a) < evaluate_model(*b);
    if (sim_prefers_a == model_prefers_a) ++agreements;
  }
  ASSERT_GT(comparable, 5);
  EXPECT_GE(static_cast<double>(agreements) / comparable, 0.8);
}

TEST_F(EndToEndTest, RuleBasedRaqoBeatsDefaultRuleAcrossResources) {
  // Section V: traversing the RAQO decision tree with the current
  // resources picks join implementations that execute no slower than the
  // default 10 MB rule, across a sweep of resource configurations.
  Result<rules::DecisionTreePolicy> policy =
      rules::TrainRaqoPolicy(profile_);
  ASSERT_TRUE(policy.ok());
  rules::DefaultRulePolicy default_rule;

  // Join: sampled orders (varying) x lineitem, as in Section III.
  const double large_gb = 77.0;
  int raqo_wins = 0;
  int ties = 0;
  int total = 0;
  for (double ss : {0.5, 2.0, 4.0, 6.0}) {
    for (double cs : {3.0, 6.0, 9.0}) {
      for (int nc : {10, 40}) {
        sim::ExecParams params;
        params.container_size_gb = cs;
        params.num_containers = nc;
        const resource::ResourceConfig res(cs, nc);
        auto run_with = [&](plan::JoinImpl impl) {
          Result<sim::JoinRunResult> r = simulator_.RunJoin(
              impl, catalog::GbToBytes(ss), catalog::GbToBytes(large_gb),
              params);
          return r.ok() ? r->seconds : 1e18;
        };
        const double raqo_s = run_with(policy->Choose(ss, res, 0));
        const double rule_s = run_with(default_rule.Choose(ss, res, 0));
        ++total;
        if (raqo_s < rule_s * 0.999) {
          ++raqo_wins;
        } else if (raqo_s <= rule_s * 1.05) {
          ++ties;
        }
      }
    }
  }
  // RAQO must never lose meaningfully, and must win a good share.
  EXPECT_EQ(raqo_wins + ties, total);
  EXPECT_GE(raqo_wins, total / 4);
}

TEST_F(EndToEndTest, ResourcePlannedJoinNearGridOptimum) {
  // For a single SMJ, compare the hill-climbed resource choice against
  // the simulator's true optimum over the whole grid: the chosen
  // configuration must be close in *simulated* time (the cost model is
  // only an approximation of the simulator).
  core::RaqoEvaluatorOptions hill_climb;
  hill_climb.search = core::ResourceSearch::kHillClimb;
  core::RaqoCostEvaluator eval(models_,
                               resource::ClusterConditions::PaperDefault(),
                               resource::PricingModel(), hill_climb);
  optimizer::JoinContext ctx;
  ctx.impl = plan::JoinImpl::kSortMergeJoin;
  ctx.left_bytes = catalog::GbToBytes(5.0);
  ctx.right_bytes = catalog::GbToBytes(77.0);
  Result<optimizer::OperatorCost> planned = eval.CostJoin(ctx);
  ASSERT_TRUE(planned.ok());

  double best_sim = 1e18;
  double chosen_sim = 0.0;
  resource::ClusterConditions::PaperDefault().ForEachConfig(
      [&](const resource::ResourceConfig& config) {
        sim::ExecParams params;
        params.container_size_gb = config.container_size_gb();
        params.num_containers =
            static_cast<int>(config.num_containers());
        Result<sim::JoinRunResult> run = simulator_.RunJoin(
            ctx.impl, ctx.left_bytes, ctx.right_bytes, params);
        if (run.ok()) {
          best_sim = std::min(best_sim, run->seconds);
          if (config == *planned->resources) chosen_sim = run->seconds;
        }
        return true;
      });
  ASSERT_GT(chosen_sim, 0.0);
  EXPECT_LE(chosen_sim, best_sim * 1.6);
}

}  // namespace
}  // namespace raqo
