// Concurrent planning-service throughput: a Figure 15(b)-style workload
// of 64 queries over a random schema, sent as table-list requests by N
// threads that call PlanningService::Handle on one service, the way the
// server's workers do, at 1/2/4/8 threads. The service's shared cache is
// exact-match, so every thread count must return the same plans.
//
// Each round runs the levels in the order 1, 4, 2, 8 threads, each on a
// fresh service (its response cache never answers across runs), and the
// 1- and 4-thread runs of a round form a pair. Per level the bench
// reports the median wall time with its min-max spread, the threads'
// total CPU time, the effective parallelism (CPU / wall), per-request
// p50/p95/p99, the shared cache's hits and misses, and how many of its
// stripe acquisitions blocked after spinning. Every run at every
// level must return the plans, costs and per-join resources of the first
// 1-thread run.
//
// With --smoke the bench is a CI regression gate: on a host with >= 4
// hardware threads, the median over the rounds of the pair speedup
// (1-thread wall / 4-thread wall) must reach kSpeedupFloor. A median of
// pairs run back to back shrugs off the rounds in which the host
// starves the process, while a service that serializes its callers
// fails every pair.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "bench/bench_util.h"
#include "catalog/random_schema.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "server/service.h"
#include "sim/profile_runner.h"

namespace {

using namespace raqo;

// The scaling gate, enforced only on hosts with >= 4 hardware threads:
// the median 4-thread pair speedup must reach this floor.
constexpr double kSpeedupFloor = 1.7;
constexpr int kRounds = 9;
constexpr int kLevels[] = {1, 4, 2, 8};

server::PlanningServiceOptions ServiceOptions() {
  server::PlanningServiceOptions options;
  options.planner.algorithm = core::PlannerAlgorithm::kSelinger;
  // Exact-match shared caching: deterministic (hits reproduce what
  // planning would compute) and still effective on a workload with
  // repeated data characteristics.
  options.planner.evaluator.use_cache = true;
  options.planner.evaluator.cache_mode = core::CacheLookupMode::kExact;
  options.planner.clear_cache_between_queries = false;
  return options;
}

double ThreadCpuMillis() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) + 1e-6 * ts.tv_nsec;
}

struct Run {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  ///< summed over the run's threads
  std::vector<double> request_ms;
  core::CacheStats cache;
  /// Shared-cache stripe acquisitions that blocked (after spinning).
  int64_t blocked = 0;
  std::vector<server::PlanResponse> responses;
};

// Answers every request on `threads` threads (the caller's plus
// threads - 1 it starts) that take requests from one atomic cursor.
Run RunLevel(const catalog::Catalog& cat, const cost::JoinCostModels& models,
             const std::vector<server::PlanRequest>& requests, int threads) {
  const server::PlanningService service(
      &cat, models, resource::ClusterConditions::PaperDefault(),
      resource::PricingModel(), ServiceOptions());
  Run run;
  run.request_ms.resize(requests.size());
  run.responses.resize(requests.size());
  std::atomic<size_t> cursor{0};
  std::vector<double> cpu_ms(static_cast<size_t>(threads));
  const auto work = [&](int t) {
    const double cpu_start = ThreadCpuMillis();
    for (size_t i = cursor++; i < requests.size(); i = cursor++) {
      const Stopwatch watch;
      run.responses[i] = service.Handle(requests[i]);
      run.request_ms[i] = watch.ElapsedMillis();
    }
    cpu_ms[static_cast<size_t>(t)] = ThreadCpuMillis() - cpu_start;
  };
  const Stopwatch wall;
  std::vector<std::thread> helpers;
  for (int t = 1; t < threads; ++t) helpers.emplace_back(work, t);
  work(0);
  for (std::thread& helper : helpers) helper.join();
  run.wall_ms = wall.ElapsedMillis();
  for (double ms : cpu_ms) run.cpu_ms += ms;
  run.cache = service.shared_cache_stats();
  for (const core::ShardStats& stripe : service.shared_cache()->shard_stats()) {
    run.blocked += stripe.contended_acquires;
  }
  return run;
}

bool SamePlans(const std::vector<server::PlanResponse>& a,
               const std::vector<server::PlanResponse>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].ok() || a[i].plan != b[i].plan ||
        a[i].cost.seconds != b[i].cost.seconds ||
        a[i].cost.dollars != b[i].cost.dollars ||
        a[i].join_resources != b[i].join_resources) {
      return false;
    }
  }
  return true;
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : Percentile(values, 50.0);
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

  // 64 queries of 4..10 relations; they repeat data characteristics
  // often enough for the shared cache to matter.
  Rng rng(2024);
  std::vector<server::PlanRequest> requests;
  for (int i = 0; i < 64; ++i) {
    server::PlanRequest request;
    request.id = "q" + std::to_string(i);
    const std::vector<catalog::TableId> tables = *catalog::RandomQueryTables(
        cat, static_cast<int>(rng.UniformInt(4, 10)),
        static_cast<uint64_t>(9000 + i));
    for (catalog::TableId table : tables) {
      request.tables.push_back(cat.table(table).name);
    }
    requests.push_back(std::move(request));
  }

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  bench::Section("Concurrent planning service: across-query workload "
                 "(64 queries, random 40-table schema)");
  std::printf("hardware threads available: %u; %d rounds of levels "
              "1, 4, 2, 8 threads\n\n",
              hardware_threads, kRounds);

  std::map<int, std::vector<Run>> runs;
  std::map<int, int> diverged;  // runs whose plans differ from reference
  std::vector<server::PlanResponse> reference;
  for (int round = 0; round < kRounds; ++round) {
    for (int threads : kLevels) {
      Run run = RunLevel(cat, models, requests, threads);
      for (const server::PlanResponse& response : run.responses) {
        RAQO_CHECK(response.ok()) << response.id << ": " << response.error;
      }
      if (reference.empty()) reference = run.responses;
      diverged[threads] += SamePlans(run.responses, reference) ? 0 : 1;
      run.responses.clear();
      runs[threads].push_back(std::move(run));
    }
  }

  // Rendered to BENCH_concurrent.json alongside the printed table.
  std::string json_levels;
  double pair_speedup_at_4 = 0.0;
  bench::Table table({"threads", "median wall (ms)", "min-max (ms)",
                      "pair speedup", "CPU (ms)", "parallelism",
                      "p50/p95/p99 (ms)", "cache hits", "cache misses",
                      "blocked acquires", "plans identical"});
  int diverged_runs = 0;
  for (const auto& [threads, level] : runs) {  // ascending thread counts
    std::vector<double> wall, cpu, parallelism, speedup, hits, misses,
        blocked, request_ms;
    for (size_t r = 0; r < level.size(); ++r) {
      wall.push_back(level[r].wall_ms);
      cpu.push_back(level[r].cpu_ms);
      parallelism.push_back(level[r].cpu_ms / level[r].wall_ms);
      speedup.push_back(runs.at(1)[r].wall_ms / level[r].wall_ms);
      hits.push_back(static_cast<double>(level[r].cache.hits));
      misses.push_back(static_cast<double>(level[r].cache.misses));
      blocked.push_back(static_cast<double>(level[r].blocked));
      request_ms.insert(request_ms.end(), level[r].request_ms.begin(),
                        level[r].request_ms.end());
    }
    const bench::LatencyStats latency = bench::SummarizeLatencies(request_ms);
    const double median_speedup = Median(speedup);
    if (threads == 4) pair_speedup_at_4 = median_speedup;
    diverged_runs += diverged[threads];
    const double min_wall = *std::min_element(wall.begin(), wall.end());
    const double max_wall = *std::max_element(wall.begin(), wall.end());
    table.AddRow({bench::Int(threads), bench::Num(Median(wall), "%.1f"),
                  StrPrintf("%.1f-%.1f", min_wall, max_wall),
                  bench::Num(median_speedup, "%.2fx"),
                  bench::Num(Median(cpu), "%.1f"),
                  bench::Num(Median(parallelism), "%.2f"),
                  StrPrintf("%.1f/%.1f/%.1f", latency.p50, latency.p95,
                            latency.p99),
                  bench::Int(static_cast<int64_t>(Median(hits))),
                  bench::Int(static_cast<int64_t>(Median(misses))),
                  bench::Int(static_cast<int64_t>(Median(blocked))),
                  diverged[threads] == 0 ? "yes" : "NO"});
    if (!json_levels.empty()) json_levels += ", ";
    json_levels += StrPrintf(
        "{\"threads\": %d, \"median_wall_ms\": %s, \"min_wall_ms\": %s, "
        "\"max_wall_ms\": %s, \"median_pair_speedup\": %s, "
        "\"median_cpu_ms\": %s, \"median_parallelism\": %s, %s, "
        "\"median_cache_hits\": %lld, \"median_cache_misses\": %lld, "
        "\"median_blocked_acquires\": %lld, \"plans_identical\": %s}",
        threads, JsonNumber(Median(wall)).c_str(),
        JsonNumber(min_wall).c_str(), JsonNumber(max_wall).c_str(),
        JsonNumber(median_speedup).c_str(), JsonNumber(Median(cpu)).c_str(),
        JsonNumber(Median(parallelism)).c_str(),
        bench::LatencyJsonFields(latency, "ms").c_str(),
        static_cast<long long>(Median(hits)),
        static_cast<long long>(Median(misses)),
        static_cast<long long>(Median(blocked)),
        diverged[threads] == 0 ? "true" : "false");
  }
  table.Print();

  const std::string json = StrPrintf(
      "{\"bench\": \"concurrent_workload\", \"queries\": %zu, "
      "\"hardware_threads\": %u, \"rounds\": %d, \"levels\": [%s]}\n",
      requests.size(), hardware_threads, kRounds, json_levels.c_str());
  if (Status written = WriteTextFile("BENCH_concurrent.json", json);
      !written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_concurrent.json\n");
  if (diverged_runs > 0) {
    std::fprintf(stderr,
                 "FAIL: a run returned plans other than the first 1-thread "
                 "run's\n");
    return 1;
  }
  std::printf(
      "\npair speedup is the median over rounds of the round's 1-thread "
      "wall over its wall at this level (target: >=2x at 4 threads on a "
      ">=4-core host); every run returned the plans, costs and resource "
      "configurations of the first 1-thread run\n");

  if (smoke) {
    if (hardware_threads >= 4) {
      if (pair_speedup_at_4 < kSpeedupFloor) {
        std::fprintf(stderr,
                     "SMOKE FAIL: median 4-thread pair speedup %.2fx is "
                     "below the %.2fx floor on a %u-thread host\n",
                     pair_speedup_at_4, kSpeedupFloor, hardware_threads);
        return 1;
      }
    } else {
      std::printf(
          "smoke: host has %u hardware threads, skipping the 4-thread "
          "speedup gate (needs >= 4)\n",
          hardware_threads);
    }
    std::printf("smoke: scaling gate passed (median 4-thread pair "
                "speedup %.2fx, floor %.2fx)\n",
                pair_speedup_at_4, kSpeedupFloor);
  }
  return 0;
}
