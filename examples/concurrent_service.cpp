// A miniature RAQO planning service: a batch of TPC-H queries fanned
// across worker threads that share one thread-safe resource-plan cache.
// The concurrent run returns exactly the plans the sequential runner
// would (exact-match cache mode keeps planning deterministic), while the
// shared cache lets later queries reuse resource plans computed by any
// worker — the across-query reuse of Figure 15(b), now concurrent.

#include <cstdio>

#include "catalog/tpch.h"
#include "core/concurrent_workload_runner.h"
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

  // The workload: every TPC-H join query. It is submitted twice, as two
  // separate batches — the shared cache persists across Run calls, so
  // the second round hits the resource plans the first round cached.
  // (Putting both rounds in one batch would let a query race its own
  // resubmission on another worker before the cache is warm.)
  auto make_round = [&](const char* suffix) {
    std::vector<core::WorkloadQuery> workload;
    for (catalog::TpchQuery q :
         {catalog::TpchQuery::kQ12, catalog::TpchQuery::kQ3,
          catalog::TpchQuery::kQ2, catalog::TpchQuery::kAll}) {
      core::WorkloadQuery query;
      query.label = std::string(catalog::TpchQueryName(q)) + suffix;
      query.tables = *catalog::TpchQueryTables(catalog, q);
      workload.push_back(std::move(query));
    }
    return workload;
  };

  core::RaqoPlannerOptions planner_options;
  planner_options.evaluator.use_cache = true;
  planner_options.evaluator.cache_mode = core::CacheLookupMode::kExact;
  planner_options.clear_cache_between_queries = false;

  core::ConcurrentRunnerOptions service_options;
  service_options.num_threads = 4;

  core::ConcurrentWorkloadRunner service(
      &catalog, *models, resource::ClusterConditions::PaperDefault(),
      resource::PricingModel(), planner_options, service_options);

  std::printf("%-22s %12s %10s  %s\n", "query", "est. seconds",
              "#res-iter", "joint plan");
  size_t total_queries = 0;
  double total_ms = 0.0;
  for (const char* suffix : {"", " (resubmitted)"}) {
    Result<core::WorkloadReport> report = service.Run(make_round(suffix));
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    for (const core::QueryRunReport& q : report->queries) {
      std::printf("%-22s %12.2f %10lld  %s\n", q.label.c_str(),
                  q.cost.seconds, (long long)q.resource_configs_explored,
                  q.plan.c_str());
    }
    total_queries += report->queries.size();
    total_ms += report->wall_clock_ms;
  }
  const core::CacheStats cache = service.shared_cache_stats();
  std::printf(
      "\n%zu queries on %d threads in %.1f ms; shared cache: %lld hits / "
      "%lld misses, %zu entries\n",
      total_queries, service.num_threads(), total_ms,
      (long long)cache.hits, (long long)cache.misses,
      service.shared_cache_size());
  return 0;
}
