// A miniature RAQO planning service: a batch of TPC-H queries sent by
// four threads that call PlanningService::Handle on one service, the way
// the planning server's workers do. The threads share the service's
// thread-safe resource-plan cache; in exact-match mode every thread gets
// exactly the plans one planner would return, while later queries reuse
// resource plans computed by any thread — the across-query reuse of
// Figure 15(b), now concurrent.

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "catalog/tpch.h"
#include "common/stopwatch.h"
#include "server/service.h"
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

  // The workload: every TPC-H join query as a table-list request. It is
  // submitted twice, as two separate batches — the shared cache
  // persists across batches, so the second round hits the resource plans
  // the first round cached. (Putting both rounds in one batch would let
  // a query race its own resubmission on another thread before the
  // cache is warm.)
  auto make_round = [&](const char* suffix) {
    std::vector<server::PlanRequest> requests;
    for (catalog::TpchQuery q :
         {catalog::TpchQuery::kQ12, catalog::TpchQuery::kQ3,
          catalog::TpchQuery::kQ2, catalog::TpchQuery::kAll}) {
      server::PlanRequest request;
      request.id = std::string(catalog::TpchQueryName(q)) + suffix;
      const std::vector<catalog::TableId> tables =
          *catalog::TpchQueryTables(catalog, q);
      for (catalog::TableId table : tables) {
        request.tables.push_back(catalog.table(table).name);
      }
      requests.push_back(std::move(request));
    }
    return requests;
  };

  server::PlanningServiceOptions options;
  options.planner.evaluator.use_cache = true;
  options.planner.evaluator.cache_mode = core::CacheLookupMode::kExact;
  options.planner.clear_cache_between_queries = false;
  const server::PlanningService service(
      &catalog, *models, resource::ClusterConditions::PaperDefault(),
      resource::PricingModel(), options);
  constexpr int kThreads = 4;

  std::printf("%-22s %12s %10s  %s\n", "query", "est. seconds",
              "#res-iter", "joint plan");
  size_t total_queries = 0;
  double total_ms = 0.0;
  for (const char* suffix : {"", " (resubmitted)"}) {
    const std::vector<server::PlanRequest> requests = make_round(suffix);
    std::vector<server::PlanResponse> responses(requests.size());
    std::atomic<size_t> cursor{0};
    const auto work = [&] {
      for (size_t i = cursor++; i < requests.size(); i = cursor++) {
        responses[i] = service.Handle(requests[i]);
      }
    };
    const Stopwatch watch;
    std::vector<std::thread> threads;
    for (int t = 1; t < kThreads; ++t) threads.emplace_back(work);
    work();
    for (std::thread& thread : threads) thread.join();
    total_ms += watch.ElapsedMillis();
    for (const server::PlanResponse& r : responses) {
      if (!r.ok()) {
        std::fprintf(stderr, "%s: %s %s\n", r.id.c_str(), r.status.c_str(),
                     r.error.c_str());
        return 1;
      }
      std::printf("%-22s %12.2f %10lld  %s\n", r.id.c_str(), r.cost.seconds,
                  (long long)r.stats.resource_configs_explored,
                  r.plan.c_str());
    }
    total_queries += responses.size();
  }
  const core::CacheStats cache = service.shared_cache_stats();
  std::printf(
      "\n%zu queries on %d threads in %.1f ms; shared cache: %lld hits / "
      "%lld misses, %lld entries\n",
      total_queries, kThreads, total_ms, (long long)cache.hits,
      (long long)cache.misses,
      (long long)service.shared_cache()->entry_count());
  return 0;
}
