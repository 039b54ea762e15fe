// Use case "c => (p, r)" (Section IV): a serverless-analytics user cares
// about the dollar amount on the bill. This example runs the
// multi-objective planner once, prints the (execution time, dollars)
// frontier for TPC-H Q3, and then answers price-capped requests:
// "what is the fastest plan I can get for at most $X?"

#include <cstdio>

#include "catalog/tpch.h"
#include "core/raqo_planner.h"
#include "sim/profile_runner.h"

int main() {
  using namespace raqo;

  catalog::Catalog catalog = catalog::BuildTpchCatalog(100.0);
  Result<cost::JoinCostModels> models =
      sim::TrainModelsFromSimulator(sim::EngineProfile::Hive());
  if (!models.ok()) {
    std::fprintf(stderr, "%s\n", models.status().ToString().c_str());
    return 1;
  }

  core::RaqoPlannerOptions options;
  options.algorithm = core::PlannerAlgorithm::kFastRandomized;
  options.randomized.iterations = 20;
  resource::PricingModel pricing(0.05);  // $/GB-hour
  core::RaqoPlanner planner(&catalog, *models,
                            resource::ClusterConditions::PaperDefault(),
                            pricing, options);

  std::vector<catalog::TableId> query =
      *catalog::TpchQueryTables(catalog, catalog::TpchQuery::kQ3);

  Result<optimizer::MultiObjectiveResult> frontier =
      planner.PlanFrontier(query);
  if (!frontier.ok()) {
    std::fprintf(stderr, "%s\n", frontier.status().ToString().c_str());
    return 1;
  }

  std::printf("time/money frontier for TPC-H Q3 (%zu plans):\n",
              frontier->frontier.size());
  std::printf("%12s %12s   plan\n", "time (s)", "cost ($)");
  for (const optimizer::ParetoEntry& entry : frontier->frontier) {
    std::printf("%12.1f %12.4f   %s\n", entry.cost.seconds,
                entry.cost.dollars,
                entry.plan->ToString(&catalog).c_str());
  }

  std::printf("\nprice-capped requests:\n");
  const double cheapest = frontier->CheapestEntry()->cost.dollars;
  for (double budget : {cheapest * 0.5, cheapest * 1.2, cheapest * 3.0,
                        cheapest * 10.0}) {
    Result<core::JointPlan> pick = planner.PlanForMoneyBudget(query, budget);
    if (!pick.ok()) {
      std::printf("  budget $%.4f: %s\n", budget,
                  pick.status().ToString().c_str());
      continue;
    }
    std::printf("  budget $%.4f: %.1f s for $%.4f -> %s\n", budget,
                pick->cost.seconds, pick->cost.dollars,
                pick->plan->ToString(&catalog).c_str());
  }
  return 0;
}
