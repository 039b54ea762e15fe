// Reproduces Figure 14: the effectiveness of the resource-plan cache on
// the TPC-H All query, over the "data delta threshold" (how far apart two
// smaller-input sizes may be for a cached resource plan to be reused).
// Compared, as in the paper: hill climbing alone (HC), HC with
// nearest-neighbor cache lookups (HC+Caching_NN), and HC with
// weighted-average lookups (HC+Caching_WA). Reported: resource iterations
// and planner runtime. The paper sees up to ~10x planner-time reduction
// at a 0.1 GB threshold.

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
  int64_t cache_hits = 0;
};

Row Run(const catalog::Catalog& cat,
        const std::vector<catalog::TableId>& tables,
        const cost::JoinCostModels& models, bool use_cache,
        core::CacheLookupMode mode, double threshold) {
  const int kRepeats = 3;
  Row out{};
  for (int rep = 0; rep < kRepeats; ++rep) {
    core::RaqoPlannerOptions options;
    options.algorithm = core::PlannerAlgorithm::kFastRandomized;
    // Figure 14 measures caching on top of the paper's Algorithm 1.
    options.evaluator.search = core::ResourceSearch::kHillClimb;
    options.evaluator.use_cache = use_cache;
    options.evaluator.cache_mode = mode;
    options.evaluator.cache_threshold_gb = threshold;
    core::RaqoPlanner planner(&cat, models,
                              resource::ClusterConditions::PaperDefault(),
                              resource::PricingModel(), options);
    // The cache is cleared before each query run, as in the paper.
    Result<core::JointPlan> result = planner.Plan(tables);
    RAQO_CHECK(result.ok()) << result.status().ToString();
    out.wall_ms += result->stats.wall_ms / kRepeats;
    out.resource_iters = result->stats.resource_configs_explored;
    out.cache_hits = result->stats.cache_hits;
  }
  return out;
}

}  // namespace

int main() {
  using namespace raqo;
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  const cost::JoinCostModels models =
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive());
  const std::vector<catalog::TableId> tables =
      *catalog::TpchQueryTables(cat, catalog::TpchQuery::kAll);

  const Row hc = Run(cat, tables, models, false,
                     core::CacheLookupMode::kNearestNeighbor, 0.0);

  bench::Section("Figure 14: resource-plan cache on TPC-H All "
                 "(HC baseline vs cached variants; avg of 3 runs)");
  std::printf("HillClimbing (HC) baseline: %lld resource iterations, "
              "%.3f ms\n\n",
              (long long)hc.resource_iters, hc.wall_ms);

  bench::Table table({"data delta threshold (GB)", "HC+NN iters",
                      "HC+NN (ms)", "HC+NN hits", "HC+WA iters",
                      "HC+WA (ms)", "HC+WA hits"});
  for (double threshold : {0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}) {
    const Row nn = Run(cat, tables, models, true,
                       core::CacheLookupMode::kNearestNeighbor, threshold);
    const Row wa = Run(cat, tables, models, true,
                       core::CacheLookupMode::kWeightedAverage, threshold);
    table.AddRow({StrPrintf("%g", threshold), bench::Int(nn.resource_iters),
                  bench::Num(nn.wall_ms, "%.3f"), bench::Int(nn.cache_hits),
                  bench::Int(wa.resource_iters),
                  bench::Num(wa.wall_ms, "%.3f"),
                  bench::Int(wa.cache_hits)});
  }
  table.Print();
  std::printf("\npaper: caching becomes more effective as the threshold "
              "grows; up to ~10x planner-time reduction at 0.1 GB\n");
  return 0;
}
