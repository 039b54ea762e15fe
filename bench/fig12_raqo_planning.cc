// Reproduces Figure 12: RAQO planning on the TPC-H schema. For each
// evaluation query (Q12: 1 join, Q3: 2 joins, Q2: 3 joins, All: 7 joins)
// and each query planner (the FastRandomized multi-objective planner and
// the Selinger bottom-up planner), the run compares plain query
// optimization ("QO", costing under one fixed resource configuration)
// against cost-based RAQO (hill-climbing resource planning inside
// getPlanCost; cache off, as in the paper's default setup).
//
// Reported, as in the paper: planner wall-clock runtime and the number of
// resource configurations explored (#Resource-Iterations).

#include <cstdio>

#include "bench/bench_util.h"
#include "catalog/tpch.h"
#include "core/raqo_planner.h"
#include "sim/profile_runner.h"

namespace {

using namespace raqo;

struct Row {
  double wall_ms = 0.0;
  int64_t resource_iters = 0;
  double cost_seconds = 0.0;
};

Row Run(const catalog::Catalog& cat,
        const std::vector<catalog::TableId>& tables,
        const cost::JoinCostModels& models, core::PlannerAlgorithm algo,
        bool raqo) {
  const int kRepeats = 3;
  Row best{};
  for (int rep = 0; rep < kRepeats; ++rep) {
    core::RaqoPlannerOptions options;
    options.algorithm = algo;
    // Figure 12 measures the paper's Algorithm 1, not the exact default.
    options.evaluator.search = core::ResourceSearch::kHillClimb;
    core::RaqoPlanner planner(&cat, models,
                              resource::ClusterConditions::PaperDefault(),
                              resource::PricingModel(), options);
    Result<core::JointPlan> result =
        raqo ? planner.Plan(tables)
             : planner.PlanForResources(tables,
                                        resource::ResourceConfig(4, 10));
    RAQO_CHECK(result.ok()) << result.status().ToString();
    best.wall_ms += result->stats.wall_ms / kRepeats;
    best.resource_iters = result->stats.resource_configs_explored;
    best.cost_seconds = result->cost.seconds;
  }
  return best;
}

}  // namespace

int main() {
  using namespace raqo;
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  const cost::JoinCostModels models =
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive());

  bench::Section("Figure 12: planner runtimes on TPC-H (avg of 3 runs)");
  bench::Table table({"query", "planner", "QO (ms)", "RAQO (ms)",
                      "RAQO resource-iters", "QO cost (s)",
                      "RAQO cost (s)"});
  for (catalog::TpchQuery q :
       {catalog::TpchQuery::kQ12, catalog::TpchQuery::kQ3,
        catalog::TpchQuery::kQ2, catalog::TpchQuery::kAll}) {
    const std::vector<catalog::TableId> tables =
        *catalog::TpchQueryTables(cat, q);
    for (core::PlannerAlgorithm algo :
         {core::PlannerAlgorithm::kFastRandomized,
          core::PlannerAlgorithm::kSelinger}) {
      const Row qo = Run(cat, tables, models, algo, /*raqo=*/false);
      const Row rq = Run(cat, tables, models, algo, /*raqo=*/true);
      table.AddRow({catalog::TpchQueryName(q),
                    core::PlannerAlgorithmName(algo),
                    bench::Num(qo.wall_ms, "%.3f"),
                    bench::Num(rq.wall_ms, "%.3f"),
                    bench::Int(rq.resource_iters),
                    bench::Num(qo.cost_seconds),
                    bench::Num(rq.cost_seconds)});
    }
  }
  table.Print();
  std::printf(
      "\npaper: plans still produced in milliseconds; resource planning "
      "adds overhead because the whole resource space is considered per "
      "candidate operator (>0.5M iterations for FastRandomized on All)\n");
  return 0;
}
