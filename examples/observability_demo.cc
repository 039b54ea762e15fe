// Plans a TPC-H workload on the planning service, from four threads
// calling PlanningService::Handle, with the observability layer fully
// on, then exports the telemetry:
//
//   metrics.json — snapshot of every counter/gauge/histogram
//   trace.json   — Chrome trace_event spans; open in chrome://tracing
//                  or https://ui.perfetto.dev to see per-thread
//                  planner.query > planner.selinger >
//                  planner.resource.* > cache.lookup nesting
//
// Finishes with a "where did planning time go" table computed from the
// spans themselves, plus the per-shard breakdown of the shared cache.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/tpch.h"
#include "common/stopwatch.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

  // Metrics are on by default; tracing is opt-in. Reset both so the
  // export covers exactly this run.
  obs::DefaultMetrics().set_enabled(true);
  obs::DefaultMetrics().ResetAll();
  obs::DefaultTracer().Clear();
  obs::DefaultTracer().set_enabled(true);

  // The workload: every TPC-H join query as a table-list request, twice
  // — the second round hits the resource plans the first round cached,
  // which shows up as fast cache.lookup spans in place of resource-search
  // spans.
  std::vector<server::PlanRequest> requests;
  for (const char* suffix : {"", " (again)"}) {
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
  }

  server::PlanningServiceOptions options;
  options.planner.evaluator.use_cache = true;
  options.planner.evaluator.cache_mode = core::CacheLookupMode::kExact;
  options.planner.clear_cache_between_queries = false;
  const server::PlanningService service(
      &catalog, *models, resource::ClusterConditions::PaperDefault(),
      resource::PricingModel(), options);
  constexpr int kThreads = 4;

  // The threads take requests from one cursor and call Handle.
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
  const double wall_ms = watch.ElapsedMillis();
  obs::DefaultTracer().set_enabled(false);
  for (const server::PlanResponse& r : responses) {
    if (!r.ok()) {
      std::fprintf(stderr, "%s: %s %s\n", r.id.c_str(), r.status.c_str(),
                   r.error.c_str());
      return 1;
    }
  }

  const std::vector<obs::FinishedSpan> spans =
      obs::DefaultTracer().Snapshot();
  const obs::MetricsSnapshot metrics = obs::DefaultMetrics().Snapshot();
  for (const auto& [path, content] :
       {std::pair<const char*, std::string>{"metrics.json",
                                            obs::MetricsToJson(metrics)},
        {"trace.json", obs::SpansToChromeTraceJson(spans)}}) {
    Status written = obs::WriteTextFile(path, content);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu bytes)\n", path, content.size());
  }

  std::printf(
      "\nplanned %zu queries on %d threads in %.1f ms (%lld spans, "
      "%lld dropped)\n",
      responses.size(), kThreads, wall_ms,
      (long long)obs::DefaultTracer().total_finished(),
      (long long)obs::DefaultTracer().dropped());

  // Where the time went, from the spans themselves. Durations are
  // inclusive — a planner.query span contains its resource searches and
  // cache lookups — so this reads "time spent inside", not exclusive
  // profile time.
  struct Agg {
    double total_us = 0.0;
    int64_t count = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const obs::FinishedSpan& s : spans) {
    Agg& agg = by_name[s.name];
    agg.total_us += s.dur_us;
    agg.count += 1;
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  std::printf("\nwhere planning time went (top 5 span kinds, inclusive):\n");
  std::printf("%-26s %8s %12s %12s\n", "span", "count", "total ms",
              "mean us");
  for (size_t i = 0; i < rows.size() && i < 5; ++i) {
    const Agg& agg = rows[i].second;
    std::printf("%-26s %8lld %12.2f %12.1f\n", rows[i].first.c_str(),
                (long long)agg.count, agg.total_us / 1e3,
                agg.total_us / static_cast<double>(agg.count));
  }

  const core::CacheStats cache = service.shared_cache_stats();
  std::printf("\nshared cache: %lld/%lld hits (%.0f%% hit rate)\n",
              (long long)cache.hits, (long long)cache.lookups(),
              100.0 * cache.hit_rate());
  std::printf("%6s %8s %9s %9s %11s %13s\n", "shard", "entries", "lookups",
              "inserts", "contended", "lock-wait us");
  const std::vector<core::ShardStats> shards =
      service.shared_cache()->shard_stats();
  for (size_t i = 0; i < shards.size(); ++i) {
    const core::ShardStats& s = shards[i];
    std::printf("%6zu %8zu %9lld %9lld %11lld %13.1f\n", i, s.entries,
                (long long)s.lookups, (long long)s.inserts,
                (long long)s.contended_acquires, s.lock_wait_ns / 1e3);
  }
  return 0;
}
