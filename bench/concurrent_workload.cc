// Concurrent planning-service throughput: a Figure 15(b)-style workload
// of many queries over a random schema, planned by the sequential
// WorkloadRunner and by the ConcurrentWorkloadRunner at 1/2/4/8 worker
// threads sharing one exact-match resource-plan cache.
//
// Besides the wall-clock speedup the bench verifies, for every thread
// count, that the concurrent service returned exactly the sequential
// plans and costs — the determinism contract the concurrency test suite
// checks is re-asserted here on the bench workload itself. Speedup is
// reported against the measured hardware concurrency: on a single-core
// host all configurations collapse to ~1x by construction, while on a
// 4-core host the 4-thread run shows the >=2x the service targets.
//
// With --smoke the bench turns into a CI regression gate: it exits
// non-zero when the 4-thread speedup on a >=4-core host falls below a
// conservative floor.

#include <cstdio>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "catalog/random_schema.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/concurrent_workload_runner.h"
#include "core/workload_runner.h"
#include "sim/profile_runner.h"

namespace {

using namespace raqo;

// The scaling gate, enforced only on hosts with >= 4 hardware threads:
// 4 planner workers must beat the sequential baseline by at least this
// much. The serial-bottleneck era plateaued at ~1.56x; the persistent
// worker pool and planners clear 2x on a 4-core CI runner, so 1.7x is
// conservative.
constexpr double kSpeedupFloor = 1.7;

core::RaqoPlannerOptions ServiceOptions() {
  core::RaqoPlannerOptions options;
  options.algorithm = core::PlannerAlgorithm::kSelinger;
  // Exact-match shared caching: deterministic (hits reproduce what
  // planning would compute) and still effective on a workload with
  // repeated data characteristics.
  options.evaluator.use_cache = true;
  options.evaluator.cache_mode = core::CacheLookupMode::kExact;
  options.clear_cache_between_queries = false;
  return options;
}

// Per-query planning-latency distribution of a workload report: the
// tail matters to a planning *service* (one slow query behind a shared
// pool shows up at p99 long before it moves the mean).
bench::LatencyStats PlanLatencies(const core::WorkloadReport& report) {
  std::vector<double> wall_ms;
  wall_ms.reserve(report.queries.size());
  for (const core::QueryRunReport& query : report.queries) {
    wall_ms.push_back(query.wall_ms);
  }
  return bench::SummarizeLatencies(wall_ms);
}

std::string LatencyCell(const bench::LatencyStats& stats) {
  return StrPrintf("%.1f/%.1f/%.1f", stats.p50, stats.p95, stats.p99);
}

bool SamePlans(const core::WorkloadReport& a, const core::WorkloadReport& b) {
  if (a.queries.size() != b.queries.size()) return false;
  for (size_t i = 0; i < a.queries.size(); ++i) {
    if (a.queries[i].plan != b.queries[i].plan) return false;
    if (a.queries[i].cost.seconds != b.queries[i].cost.seconds) return false;
    if (a.queries[i].cost.dollars != b.queries[i].cost.dollars) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace raqo;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  catalog::RandomSchemaOptions schema;
  schema.num_tables = 40;
  catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
  const cost::JoinCostModels models =
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive());
  const resource::ClusterConditions cluster =
      resource::ClusterConditions::PaperDefault();

  // 64 queries of 4..10 relations; labels repeat data characteristics
  // often enough for the shared cache to matter.
  Rng rng(2024);
  std::vector<core::WorkloadQuery> workload;
  for (int i = 0; i < 64; ++i) {
    core::WorkloadQuery query;
    query.label = "q" + std::to_string(i);
    query.tables = *catalog::RandomQueryTables(
        cat, static_cast<int>(rng.UniformInt(4, 10)),
        static_cast<uint64_t>(9000 + i));
    workload.push_back(std::move(query));
  }

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  bench::Section("Concurrent planning service: across-query workload "
                 "(64 queries, random 40-table schema)");
  std::printf("hardware threads available: %u\n\n", hardware_threads);

  // Sequential baseline.
  core::RaqoPlanner planner(&cat, models, cluster, resource::PricingModel(),
                            ServiceOptions());
  core::WorkloadRunner sequential(&planner);
  const Result<core::WorkloadReport> baseline = sequential.Run(workload);
  RAQO_CHECK(baseline.ok()) << baseline.status().ToString();

  // Rendered to BENCH_concurrent.json alongside the printed table.
  std::string json_levels;
  double speedup_at_4 = 0.0;
  bench::Table table({"threads", "wall clock (ms)", "speedup",
                      "p50/p95/p99 (ms)", "cache hits", "cache misses",
                      "plans identical"});
  const bench::LatencyStats baseline_lat = PlanLatencies(*baseline);
  table.AddRow({"sequential", bench::Num(baseline->wall_clock_ms, "%.1f"),
                bench::Num(1.0, "%.2fx"), LatencyCell(baseline_lat),
                bench::Int(baseline->total_cache_hits),
                bench::Int(baseline->total_cache_misses), "-"});

  for (int threads : {1, 2, 4, 8}) {
    core::ConcurrentRunnerOptions concurrency;
    concurrency.num_threads = threads;
    core::ConcurrentWorkloadRunner service(&cat, models, cluster,
                                           resource::PricingModel(),
                                           ServiceOptions(), concurrency);
    const Result<core::WorkloadReport> report = service.Run(workload);
    RAQO_CHECK(report.ok()) << report.status().ToString();
    const bool identical = SamePlans(*baseline, *report);
    RAQO_CHECK(identical)
        << "concurrent service diverged from sequential plans";
    const double speedup =
        baseline->wall_clock_ms / report->wall_clock_ms;
    if (threads == 4) speedup_at_4 = speedup;
    const bench::LatencyStats level_lat = PlanLatencies(*report);
    table.AddRow({bench::Int(threads),
                  bench::Num(report->wall_clock_ms, "%.1f"),
                  bench::Num(speedup, "%.2fx"), LatencyCell(level_lat),
                  bench::Int(report->shared_cache.hits),
                  bench::Int(report->shared_cache.misses),
                  identical ? "yes" : "NO"});
    const int64_t hits = report->shared_cache.hits;
    const int64_t misses = report->shared_cache.misses;
    const double hit_rate =
        hits + misses > 0
            ? static_cast<double>(hits) / static_cast<double>(hits + misses)
            : 0.0;
    if (!json_levels.empty()) json_levels += ", ";
    json_levels += StrPrintf(
        "{\"threads\": %d, \"wall_ms\": %s, \"speedup\": %s, %s, "
        "\"cache_hits\": %lld, \"cache_misses\": %lld, \"hit_rate\": %s, "
        "\"plans_identical\": %s}",
        threads, JsonNumber(report->wall_clock_ms).c_str(),
        JsonNumber(speedup).c_str(),
        bench::LatencyJsonFields(level_lat, "ms").c_str(),
        (long long)hits, (long long)misses, JsonNumber(hit_rate).c_str(),
        identical ? "true" : "false");
  }
  table.Print();

  const std::string json = StrPrintf(
      "{\"bench\": \"concurrent_workload\", \"queries\": %zu, "
      "\"hardware_threads\": %u, "
      "\"sequential_wall_ms\": %s, \"sequential\": {%s}, "
      "\"levels\": [%s]}\n",
      workload.size(), hardware_threads,
      JsonNumber(baseline->wall_clock_ms).c_str(),
      bench::LatencyJsonFields(baseline_lat, "ms").c_str(),
      json_levels.c_str());
  if (Status written = WriteTextFile("BENCH_concurrent.json", json);
      !written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_concurrent.json\n");
  std::printf(
      "\nspeedup scales with physical cores (target: >=2x at 4 threads on "
      "a >=4-core host); plans, costs, and resource configurations are "
      "identical to the sequential baseline at every thread count\n");

  if (smoke) {
    if (hardware_threads >= 4) {
      if (speedup_at_4 < kSpeedupFloor) {
        std::fprintf(stderr,
                     "SMOKE FAIL: 4-thread speedup %.2fx is below the "
                     "%.2fx floor on a %u-thread host — the concurrent "
                     "core regressed\n",
                     speedup_at_4, kSpeedupFloor, hardware_threads);
        return 1;
      }
    } else {
      std::printf(
          "smoke: host has %u hardware threads, skipping the 4-thread "
          "speedup gate (needs >= 4)\n",
          hardware_threads);
    }
    std::printf("smoke: scaling gate passed\n");
  }
  return 0;
}
