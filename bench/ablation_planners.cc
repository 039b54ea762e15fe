// Ablation: planner and resource-search design choices.
//  1. Query planners under the same RAQO evaluator: Selinger (left-deep
//     DP), bushy DP (exact bushy optimum), FastRandomized (approximate,
//     scales past DP limits) — plan quality vs planning effort.
//  2. Resource-search strategies at growing cluster sizes: brute force
//     vs the paper's Algorithm 1 hill climbing vs the accelerated-stride
//     extension — the cost of Figure 15(b)-scale clusters.

#include <cstdio>

#include "bench/bench_util.h"
#include "catalog/tpch.h"
#include "core/raqo_cost_evaluator.h"
#include "core/resource_planner.h"
#include "optimizer/bushy_dp.h"
#include "optimizer/fast_randomized.h"
#include "optimizer/selinger.h"
#include "sim/profile_runner.h"

namespace {

using namespace raqo;

const cost::JoinCostModels& Models() {
  static const cost::JoinCostModels* models = new cost::JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  return *models;
}

void PlannerAblation() {
  bench::Section("Ablation 1: query planners under RAQO (TPC-H, "
                 "switch-aware grid resource planning)");
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  bench::Table table({"query", "planner", "cost (s)", "wall (ms)",
                      "plans considered", "resource iters"});
  for (catalog::TpchQuery q :
       {catalog::TpchQuery::kQ3, catalog::TpchQuery::kQ2,
        catalog::TpchQuery::kAll}) {
    const std::vector<catalog::TableId> tables =
        *catalog::TpchQueryTables(cat, q);
    auto report = [&](const char* name,
                      const Result<optimizer::PlannedQuery>& r) {
      RAQO_CHECK(r.ok()) << r.status().ToString();
      table.AddRow({catalog::TpchQueryName(q), name,
                    bench::Num(r->cost.seconds),
                    bench::Num(r->stats.wall_ms, "%.3f"),
                    bench::Int(r->stats.plans_considered),
                    bench::Int(r->stats.resource_configs_explored)});
    };
    {
      core::RaqoCostEvaluator eval(Models(),
                                   resource::ClusterConditions::PaperDefault());
      report("Selinger", optimizer::SelingerPlanner().Plan(cat, tables, eval));
    }
    {
      core::RaqoCostEvaluator eval(Models(),
                                   resource::ClusterConditions::PaperDefault());
      report("BushyDP", optimizer::BushyDpPlanner().Plan(cat, tables, eval));
    }
    {
      core::RaqoCostEvaluator eval(Models(),
                                   resource::ClusterConditions::PaperDefault());
      report("FastRandomized",
             optimizer::FastRandomizedPlanner().PlanBest(cat, tables, eval));
    }
  }
  table.Print();
  std::printf("\nBushyDP is the ground-truth optimum; Selinger restricts "
              "to left-deep trees; FastRandomized approximates both at a "
              "fraction of the enumeration for large queries\n");
}

void ResourceSearchAblation() {
  bench::Section("Ablation 2: resource-search strategies vs cluster size "
                 "(single SMJ operator, unit allocation steps)");
  bench::Table table({"cluster (containers)", "strategy", "iters",
                      "chosen config", "cost (s)"});
  cost::JoinFeatures base;
  base.smaller_gb = 3.0;
  base.larger_gb = 77.0;
  auto objective = [&](const resource::ResourceConfig& c) {
    cost::JoinFeatures f = base;
    f.container_size_gb = c.container_size_gb();
    f.num_containers = c.num_containers();
    return Models().smj.PredictSeconds(f);
  };
  for (double max_nc : {100.0, 1'000.0, 10'000.0}) {
    const resource::ClusterConditions cluster =
        resource::ClusterConditions::WithMax(10, max_nc);
    const core::BruteForceResourcePlanner brute;
    const core::HillClimbResourcePlanner hill;
    const core::AcceleratedHillClimbResourcePlanner accel;
    for (const core::ResourcePlanner* planner :
         std::initializer_list<const core::ResourcePlanner*>{
             &brute, &hill, &accel}) {
      if (planner == &brute && max_nc > 1'000.0) {
        table.AddRow({bench::Int(static_cast<int64_t>(max_nc)),
                      planner->name(), "(skipped)", "-", "-"});
        continue;
      }
      Result<core::ResourcePlanResult> r =
          planner->PlanResources(objective, cluster);
      RAQO_CHECK(r.ok()) << r.status().ToString();
      table.AddRow({bench::Int(static_cast<int64_t>(max_nc)),
                    planner->name(), bench::Int(r->configs_explored),
                    r->config.ToString(), bench::Num(r->cost)});
    }
  }
  table.Print();
  std::printf("\nAlgorithm 1 walks one grid step per move, so its cost "
              "grows with the distance to the optimum; the accelerated "
              "variant doubles its stride and stays logarithmic\n");
}

}  // namespace

int main() {
  PlannerAblation();
  ResourceSearchAblation();
  return 0;
}
