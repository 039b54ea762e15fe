// Closed-loop load generator for the RAQO planning server: an
// in-process server on a loopback port, then ramped concurrency levels
// (1 -> 64 connections) of clients that each fire requests
// back-to-back and wait for every answer, for at least 1 s per level.
// Reports throughput, p50/p99 latency and the answers a reactor gave
// from the response cache per level, plus the shared plan-cache hit
// rate, and writes the same numbers machine-readably to
// BENCH_server.json.
//
// Modes:
//   (default)      quota-free, single anonymous tenant — byte-identical
//                  responses to the pre-tenant server.
//   --tenants N    spread connections round-robin over N named tenants;
//                  tenant t0 carries a 1-request in-flight quota, so its
//                  surplus concurrency is rejected instead of queued.
//   --reactors N   run the server with N reactor threads (0 = the
//                  server default, min(4, hardware threads)).
//   --sweep        connection ladder 1 -> 256, run twice: once with one
//                  reactor as the baseline and once with --reactors,
//                  recording both ladders and the peak-throughput
//                  speedup into BENCH_server.json.
//   --smoke        short CI gate: 2 tenants, shortened ramp and a fixed
//                  16 requests per connection instead of 1 s levels;
//                  asserts zero protocol errors, a non-zero count of
//                  per-tenant quota rejections, and that every ladder
//                  had answers given on a reactor.
//   --restart-recovery
//                  durability scenario instead of the ladder: warm a
//                  server whose cache journals to disk, kill it, restart
//                  on the same data directory and measure how long until
//                  the pre-restart hit rate is back (recovery replay
//                  time — the rate itself is available on the first
//                  request), then warm a cold replica from the restarted
//                  node over the wire via cache_dump/cache_load. Fails on
//                  any protocol error, and unless the restart replayed
//                  one snapshot entry or journal record per entry the
//                  node held. With --smoke, also asserts that the
//                  recovered and replica passes miss the resource-plan
//                  cache no more often than the pre-restart pass.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "catalog/tpch.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "server/client.h"
#include "server/server.h"
#include "sim/profile_runner.h"

namespace {

using namespace raqo;

struct LevelResult {
  int connections = 0;
  int64_t requests = 0;
  int64_t errors = 0;
  int64_t quota_rejected = 0;
  /// OK responses the service answered from its response cache.
  int64_t response_cache_hits = 0;
  /// Of those, the ones a reactor gave without a hand-off to a worker.
  int64_t reactor_answers = 0;
  double wall_ms = 0.0;
  double throughput_rps = 0.0;
  // End-to-end request latency percentiles (bench::SummarizeLatencies,
  // shared with the other benches so the JSON artifacts compare).
  bench::LatencyStats latency_us;
};

struct LadderResult {
  int num_reactors = 0;
  std::vector<LevelResult> levels;
  std::map<std::string, server::TenantStats> tenant_stats;
};

double PeakRps(const std::vector<LevelResult>& levels) {
  double peak = 0.0;
  for (const LevelResult& level : levels) {
    peak = std::max(peak, level.throughput_rps);
  }
  return peak;
}

std::string LevelsJson(const std::vector<LevelResult>& levels) {
  std::string json = "[";
  for (size_t i = 0; i < levels.size(); ++i) {
    const LevelResult& level = levels[i];
    if (i > 0) json += ", ";
    const double response_cache_hit_ratio =
        level.requests > 0 ? static_cast<double>(level.response_cache_hits) /
                                 static_cast<double>(level.requests)
                           : 0.0;
    json += StrPrintf(
        "{\"connections\": %d, \"requests\": %lld, \"errors\": %lld, "
        "\"quota_rejected\": %lld, \"wall_ms\": %s, \"throughput_rps\": %s, "
        "\"response_cache_hit_ratio\": %s, \"reactor_answers\": %lld, %s}",
        level.connections, (long long)level.requests, (long long)level.errors,
        (long long)level.quota_rejected, JsonNumber(level.wall_ms).c_str(),
        JsonNumber(level.throughput_rps).c_str(),
        JsonNumber(response_cache_hit_ratio).c_str(),
        (long long)level.reactor_answers,
        bench::LatencyJsonFields(level.latency_us, "us").c_str());
  }
  return json + "]";
}

void PrintLevels(const std::vector<LevelResult>& levels, int tenants) {
  std::vector<std::string> headers = {"connections", "requests", "errors",
                                      "wall (ms)", "throughput (req/s)",
                                      "p50 (us)", "p95 (us)", "p99 (us)",
                                      "reactor answers"};
  if (tenants > 0) headers.insert(headers.begin() + 3, "quota rejected");
  bench::Table table(headers);
  for (const LevelResult& level : levels) {
    std::vector<std::string> row = {
        bench::Int(level.connections), bench::Int(level.requests),
        bench::Int(level.errors), bench::Num(level.wall_ms, "%.1f"),
        bench::Num(level.throughput_rps, "%.0f"),
        bench::Num(level.latency_us.p50, "%.0f"),
        bench::Num(level.latency_us.p95, "%.0f"),
        bench::Num(level.latency_us.p99, "%.0f"),
        bench::Int(level.reactor_answers)};
    if (tenants > 0) {
      row.insert(row.begin() + 3, bench::Int(level.quota_rejected));
    }
    table.AddRow(row);
  }
  table.Print();
}

// One full ladder against a freshly started server: every ramp level
// opens `connections` closed-loop clients that each fire requests
// back-to-back, at least `requests_per_client` of them and until the
// level has run for `min_level_time`.
LadderResult RunLadder(const server::PlanningService& service, int tenants,
                       int num_reactors, const std::vector<int>& ramp,
                       int requests_per_client,
                       std::chrono::milliseconds min_level_time,
                       const std::vector<std::vector<std::string>>& mix) {
  server::ServerOptions server_options;
  server_options.port = 0;
  server_options.num_reactors = num_reactors;
  server_options.num_workers = std::max(
      4u, std::thread::hardware_concurrency());
  server_options.max_queue = 256;
  server_options.max_connections =
      static_cast<size_t>(*std::max_element(ramp.begin(), ramp.end())) + 64;
  if (tenants > 0) {
    // Tenant t0 is the deliberately throttled one: with several
    // closed-loop connections sharing it, concurrency above 1 trips the
    // in-flight cap and is answered RESOURCE_EXHAUSTED at admission.
    server_options.tenant_quotas["t0"].max_inflight = 1;
  }
  server::PlanningServer server(&service, server_options);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    std::exit(1);
  }

  LadderResult result;
  result.num_reactors = server.num_reactors();
  for (int connections : ramp) {
    std::vector<std::thread> clients;
    std::mutex latencies_mu;
    std::vector<double> latencies_us;
    std::atomic<int64_t> errors{0};
    std::atomic<int64_t> quota_rejected{0};
    std::atomic<int64_t> response_cache_hits{0};
    const int64_t reactor_answers_before = server.stats().reactor_answers;

    const auto level_start = std::chrono::steady_clock::now();
    const auto level_end = level_start + min_level_time;
    for (int c = 0; c < connections; ++c) {
      clients.emplace_back([&, c] {
        server::ClientOptions client_options;
        if (tenants > 0) {
          client_options.tenant = StrPrintf("t%d", c % tenants);
        }
        Result<server::PlanningClient> client =
            server::PlanningClient::Connect("127.0.0.1", server.port(),
                                            client_options);
        if (!client.ok()) {
          errors.fetch_add(requests_per_client);
          return;
        }
        std::vector<double> mine;
        mine.reserve(static_cast<size_t>(requests_per_client));
        for (int i = 0; i < requests_per_client ||
                        std::chrono::steady_clock::now() < level_end;
             ++i) {
          server::PlanRequest request;
          request.id = StrPrintf("c%d.%d", c, i);
          request.tables = mix[static_cast<size_t>(c + i) % mix.size()];
          const auto start = std::chrono::steady_clock::now();
          Result<server::PlanResponse> response = client->Call(request);
          const double us =
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - start)
                  .count();
          if (!response.ok()) {
            errors.fetch_add(1);
            continue;
          }
          if (!response->ok()) {
            // A quota rejection is the server working as configured,
            // not a protocol failure.
            if (response->status == server::kWireResourceExhausted) {
              quota_rejected.fetch_add(1);
            } else {
              errors.fetch_add(1);
            }
            continue;
          }
          if (response->stats.response_cache_hit) {
            response_cache_hits.fetch_add(1);
          }
          mine.push_back(us);
        }
        std::lock_guard<std::mutex> lock(latencies_mu);
        latencies_us.insert(latencies_us.end(), mine.begin(), mine.end());
      });
    }
    for (std::thread& t : clients) t.join();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - level_start)
            .count();

    LevelResult level;
    level.connections = connections;
    level.requests = static_cast<int64_t>(latencies_us.size());
    level.errors = errors.load();
    level.quota_rejected = quota_rejected.load();
    level.response_cache_hits = response_cache_hits.load();
    level.reactor_answers =
        server.stats().reactor_answers - reactor_answers_before;
    level.wall_ms = wall_ms;
    level.throughput_rps =
        wall_ms > 0.0 ? 1000.0 * static_cast<double>(level.requests) / wall_ms
                      : 0.0;
    level.latency_us = bench::SummarizeLatencies(latencies_us);
    result.levels.push_back(level);
  }

  result.tenant_stats = server.tenant_stats();
  server.Shutdown();
  server.Wait();
  return result;
}

// ---------------------------------------------------------------------
// --restart-recovery: durability and replica warm-up scenario

struct PassResult {
  int64_t requests = 0;
  int64_t errors = 0;
  double wall_ms = 0.0;
  double hit_rate = 0.0;
  /// Lookups that missed the shared resource-plan cache.
  int64_t misses = 0;
  /// OK responses the service answered from its response cache, which
  /// makes no resource-plan lookups at all.
  int64_t response_cache_hits = 0;
};

/// One closed-loop measurement pass: `connections` clients each fire
/// `requests_per_client` requests. The hit rate and misses are the
/// shared cache's counters after the pass less those before it: this
/// pass's alone.
PassResult RunPass(const server::PlanningServer& server,
                   server::PlanningService& service, int connections,
                   int requests_per_client,
                   const std::vector<std::vector<std::string>>& mix) {
  const core::CacheStats before = service.shared_cache_stats();
  std::atomic<int64_t> ok_requests{0};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> response_cache_hits{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      Result<server::PlanningClient> client =
          server::PlanningClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        errors.fetch_add(requests_per_client);
        return;
      }
      for (int i = 0; i < requests_per_client; ++i) {
        server::PlanRequest request;
        request.id = StrPrintf("r%d.%d", c, i);
        request.tables = mix[static_cast<size_t>(c + i) % mix.size()];
        Result<server::PlanResponse> response = client->Call(request);
        if (!response.ok() || !response->ok()) {
          errors.fetch_add(1);
        } else {
          ok_requests.fetch_add(1);
          if (response->stats.response_cache_hit) {
            response_cache_hits.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  PassResult pass;
  pass.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  pass.requests = ok_requests.load();
  pass.errors = errors.load();
  const core::CacheStats after = service.shared_cache_stats();
  const core::CacheStats cache{after.hits - before.hits,
                               after.misses - before.misses};
  pass.hit_rate = cache.hit_rate();
  pass.misses = cache.misses;
  pass.response_cache_hits = response_cache_hits.load();
  return pass;
}

int RunRestartRecovery(bool smoke, const catalog::Catalog& catalog,
                       const cost::JoinCostModels& models,
                       const server::PlanningServiceOptions& service_options,
                       const std::vector<std::vector<std::string>>& mix) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "raqo_bench_persist")
          .string();
  std::filesystem::remove_all(dir);

  const int connections = smoke ? 4 : 8;
  const int requests_per_client = smoke ? 12 : 32;
  auto make_service = [&] {
    return std::make_unique<server::PlanningService>(
        &catalog, models, resource::ClusterConditions::PaperDefault(),
        resource::PricingModel(), service_options);
  };
  server::ServerOptions durable_options;
  durable_options.port = 0;
  durable_options.persistence.dir = dir;

  // Phase 1: warm a durable node, then measure its steady-state rate.
  bench::Section("Restart recovery: warm phase (journaling to disk)");
  PassResult warm;
  int64_t entries_before = 0;
  int64_t journal_bytes = 0;
  {
    auto service = make_service();
    server::PlanningServer server(service.get(), durable_options);
    if (Status started = server.Start(); !started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    RunPass(server, *service, connections, requests_per_client, mix);
    warm = RunPass(server, *service, connections, requests_per_client, mix);
    entries_before = service->shared_cache()->entry_count();
    journal_bytes = server.persistence()->journal_bytes();
    // "Kill" the node: drain and discard the process-local cache.
    server.Shutdown();
    server.Wait();
  }
  std::printf("steady state: %.1f%% hit rate and %lld misses over %lld "
              "requests (%lld answered by the response cache), %lld cache "
              "entries, %lld journal bytes\n",
              100.0 * warm.hit_rate, (long long)warm.misses,
              (long long)warm.requests, (long long)warm.response_cache_hits,
              (long long)entries_before, (long long)journal_bytes);

  // Phase 2: restart on the same directory. Recovery replay happens
  // inside Start(); the first measurement pass runs against the
  // recovered cache with no further warm-up.
  bench::Section("Restart recovery: restarted node");
  auto restarted_service = make_service();
  server::PlanningServer restarted(restarted_service.get(),
                                   durable_options);
  if (Status started = restarted.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  const persist::RecoveryStats recovery =
      restarted.persistence()->recovery_stats();
  const int64_t entries_after =
      restarted_service->shared_cache()->entry_count();
  const PassResult recovered = RunPass(restarted, *restarted_service,
                                       connections, requests_per_client,
                                       mix);
  std::printf("recovered %lld entries in %lld ms (snapshot %lld + "
              "journal %lld records); first pass hit rate %.1f%% "
              "(pre-restart %.1f%%), %lld misses, %lld response-cache "
              "hits\n",
              (long long)entries_after, (long long)recovery.recovery_ms,
              (long long)recovery.snapshot_entries,
              (long long)recovery.journal_records, 100.0 * recovered.hit_rate,
              100.0 * warm.hit_rate, (long long)recovered.misses,
              (long long)recovered.response_cache_hits);

  // Phase 3: a cold replica (no disk state) warms over the wire from
  // the restarted node, then serves the same mix at the same hit rate.
  bench::Section("Replica warm-up over cache_dump/cache_load");
  auto replica_service = make_service();
  server::ServerOptions replica_options;
  replica_options.port = 0;
  server::PlanningServer replica(replica_service.get(), replica_options);
  if (Status started = replica.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  Stopwatch warmup_timer;
  int64_t copied = 0;
  {
    Result<server::PlanningClient> source =
        server::PlanningClient::Connect("127.0.0.1", restarted.port());
    Result<server::PlanningClient> target =
        server::PlanningClient::Connect("127.0.0.1", replica.port());
    if (!source.ok() || !target.ok()) {
      std::fprintf(stderr, "replica warm-up connect failed\n");
      return 1;
    }
    Result<int64_t> warmed = server::WarmCacheFromPeer(*source, *target);
    if (!warmed.ok()) {
      std::fprintf(stderr, "%s\n", warmed.status().ToString().c_str());
      return 1;
    }
    copied = *warmed;
  }
  const double wire_warmup_ms = warmup_timer.ElapsedMicros() / 1000.0;
  const PassResult replica_pass = RunPass(
      replica, *replica_service, connections, requests_per_client, mix);
  std::printf("copied %lld entries in %.1f ms; replica first-pass hit "
              "rate %.1f%%, %lld misses, %lld response-cache hits\n",
              (long long)copied, wire_warmup_ms,
              100.0 * replica_pass.hit_rate, (long long)replica_pass.misses,
              (long long)replica_pass.response_cache_hits);

  restarted.Shutdown();
  restarted.Wait();
  replica.Shutdown();
  replica.Wait();
  std::filesystem::remove_all(dir);

  const std::string json = StrPrintf(
      "{\"bench\": \"server_load\", \"restart_recovery\": {"
      "\"pre_restart_hit_rate\": %s, \"pre_restart_entries\": %lld, "
      "\"journal_bytes\": %lld, \"recovery_ms\": %lld, "
      "\"snapshot_entries\": %lld, \"journal_records\": %lld, "
      "\"recovered_entries\": %lld, \"recovered_hit_rate\": %s, "
      "\"replica_copied_entries\": %lld, \"replica_warmup_ms\": %s, "
      "\"replica_hit_rate\": %s, \"pre_restart_misses\": %lld, "
      "\"recovered_misses\": %lld, \"replica_misses\": %lld, "
      "\"errors\": %lld}}\n",
      JsonNumber(warm.hit_rate).c_str(), (long long)entries_before,
      (long long)journal_bytes, (long long)recovery.recovery_ms,
      (long long)recovery.snapshot_entries,
      (long long)recovery.journal_records, (long long)entries_after,
      JsonNumber(recovered.hit_rate).c_str(), (long long)copied,
      JsonNumber(wire_warmup_ms).c_str(),
      JsonNumber(replica_pass.hit_rate).c_str(), (long long)warm.misses,
      (long long)recovered.misses, (long long)replica_pass.misses,
      (long long)(warm.errors + recovered.errors + replica_pass.errors));
  if (Status written = WriteTextFile("BENCH_server.json", json);
      !written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_server.json\n");

  const int64_t total_errors =
      warm.errors + recovered.errors + replica_pass.errors;
  if (total_errors != 0) {
    std::fprintf(stderr, "restart-recovery: %lld protocol errors\n",
                 (long long)total_errors);
    return 1;
  }
  // The cache journals only inserts that change it, and planners that
  // miss one key store the same plan for it, so disk holds one record
  // per entry however the requests interleaved.
  if (recovery.snapshot_entries + recovery.journal_records !=
      entries_before) {
    std::fprintf(stderr,
                 "restart-recovery: replayed %lld snapshot entries + %lld "
                 "journal records for %lld entries\n",
                 (long long)recovery.snapshot_entries,
                 (long long)recovery.journal_records,
                 (long long)entries_before);
    return 1;
  }
  if (smoke) {
    // The recovered node and the wire-warmed replica must be as warm as
    // the node that never died: same mix, same exact-mode cache, so no
    // pass misses more often than the live node's warm pass. Misses, not
    // hit rates: that pass is answered from the response cache, makes
    // no resource-plan lookups, and reads a hit rate of 0.
    if (entries_after != entries_before || copied != entries_after) {
      std::fprintf(stderr,
                   "smoke: entry counts diverged (before %lld, "
                   "recovered %lld, replica %lld)\n",
                   (long long)entries_before, (long long)entries_after,
                   (long long)copied);
      return 1;
    }
    if (recovered.misses > warm.misses ||
        replica_pass.misses > warm.misses) {
      std::fprintf(stderr,
                   "smoke: resource-plan cache misses rose after restart "
                   "(pre %lld, recovered %lld, replica %lld)\n",
                   (long long)warm.misses, (long long)recovered.misses,
                   (long long)replica_pass.misses);
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool sweep = false;
  bool restart_recovery = false;
  int tenants = 0;
  int reactors = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      sweep = true;
    } else if (std::strcmp(argv[i], "--restart-recovery") == 0) {
      restart_recovery = true;
    } else if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      tenants = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reactors") == 0 && i + 1 < argc) {
      reactors = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--sweep] [--restart-recovery] "
                   "[--tenants N] [--reactors N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke && !restart_recovery && tenants < 2) tenants = 2;

  catalog::Catalog catalog = catalog::BuildTpchCatalog(100.0);
  const cost::JoinCostModels models =
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive());

  core::RaqoPlannerOptions planner_options;
  planner_options.evaluator.use_cache = true;
  planner_options.evaluator.cache_mode = core::CacheLookupMode::kExact;
  planner_options.clear_cache_between_queries = false;

  server::PlanningServiceOptions service_options;
  service_options.planner = planner_options;
  server::PlanningService service(&catalog, models,
                                  resource::ClusterConditions::PaperDefault(),
                                  resource::PricingModel(), service_options);

  // The request mix: repeated join shapes, so the shared exact-match
  // cache warms up the way a real planning service's would.
  const std::vector<std::vector<std::string>> mix = {
      {"orders", "lineitem"},
      {"orders", "lineitem", "customer"},
      {"part", "partsupp", "supplier"},
      {"orders", "lineitem", "customer", "nation"},
  };

  if (restart_recovery) {
    return RunRestartRecovery(smoke, catalog, models, service_options, mix);
  }

  const int requests_per_client = smoke ? 16 : 24;
  // Each level of a full run lasts at least a second, so its throughput
  // and tail latency are not a few milliseconds of scheduling noise.
  const std::chrono::milliseconds min_level_time(smoke ? 0 : 1000);
  std::vector<int> ramp;
  if (sweep) {
    ramp = smoke ? std::vector<int>{8, 32}
                 : std::vector<int>{1, 4, 16, 32, 64, 128, 256};
  } else {
    ramp = smoke ? std::vector<int>{8} : std::vector<int>{1, 4, 16, 64};
  }

  // The sweep compares the sharded I/O plane against a single-reactor
  // baseline on the same ladder (baseline first, so the shared plan
  // cache is equally warm — actually warmer — for the run it handicaps).
  LadderResult baseline;
  if (sweep) {
    bench::Section("Single-reactor baseline ladder");
    baseline = RunLadder(service, tenants, 1, ramp, requests_per_client,
                         min_level_time, mix);
    PrintLevels(baseline.levels, tenants);
  }

  bench::Section(StrPrintf(
      "Planning server under closed-loop load (%d requests per "
      "connection%s)",
      requests_per_client,
      tenants > 0 ? StrPrintf(", %d tenants", tenants).c_str() : ""));
  LadderResult main_run = RunLadder(service, tenants, reactors, ramp,
                                    requests_per_client, min_level_time, mix);
  std::printf("reactors: %d\n", main_run.num_reactors);
  PrintLevels(main_run.levels, tenants);

  if (tenants > 0) {
    bench::Table tenant_table({"tenant", "admitted", "ok", "rej inflight",
                               "rej budget", "rej queue", "$ spent"});
    for (const auto& [name, stats] : main_run.tenant_stats) {
      tenant_table.AddRow(
          {name.empty() ? "(anonymous)" : name, bench::Int(stats.admitted),
           bench::Int(stats.responses_ok), bench::Int(stats.rejected_inflight),
           bench::Int(stats.rejected_budget),
           bench::Int(stats.rejected_queue_full),
           bench::Num(stats.dollars_spent, "%.4f")});
    }
    tenant_table.Print();
  }

  if (sweep) {
    const double peak = PeakRps(main_run.levels);
    const double baseline_peak = PeakRps(baseline.levels);
    std::printf("\nsweep: peak %.0f req/s with %d reactors vs %.0f req/s "
                "single-reactor (%.2fx)\n",
                peak, main_run.num_reactors, baseline_peak,
                baseline_peak > 0.0 ? peak / baseline_peak : 0.0);
  }

  const core::CacheStats cache = service.shared_cache_stats();
  const double hit_rate =
      cache.hits + cache.misses > 0
          ? static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses)
          : 0.0;
  std::printf("\nshared plan cache: %lld hits / %lld misses (%.1f%% hit "
              "rate)\n",
              (long long)cache.hits, (long long)cache.misses,
              100.0 * hit_rate);

  // Machine-readable mirror of the tables above.
  std::string json = StrPrintf(
      "{\"bench\": \"server_load\", \"num_reactors\": %d, \"levels\": ",
      main_run.num_reactors);
  json += LevelsJson(main_run.levels);
  if (sweep) {
    const double peak = PeakRps(main_run.levels);
    const double baseline_peak = PeakRps(baseline.levels);
    json += StrPrintf(
        ", \"sweep\": {\"baseline_num_reactors\": %d, "
        "\"baseline_levels\": %s, \"peak_rps\": %s, "
        "\"baseline_peak_rps\": %s, \"speedup\": %s}",
        baseline.num_reactors, LevelsJson(baseline.levels).c_str(),
        JsonNumber(peak).c_str(), JsonNumber(baseline_peak).c_str(),
        JsonNumber(baseline_peak > 0.0 ? peak / baseline_peak : 0.0)
            .c_str());
  }
  if (tenants > 0) {
    json += ", \"tenants\": {";
    bool first = true;
    for (const auto& [name, stats] : main_run.tenant_stats) {
      if (!first) json += ", ";
      first = false;
      json += StrPrintf(
          "\"%s\": {\"admitted\": %lld, \"ok\": %lld, \"rejected_inflight\": "
          "%lld, \"rejected_budget\": %lld, \"rejected_queue_full\": %lld, "
          "\"dollars_spent\": %s}",
          JsonEscape(name).c_str(), (long long)stats.admitted,
          (long long)stats.responses_ok, (long long)stats.rejected_inflight,
          (long long)stats.rejected_budget,
          (long long)stats.rejected_queue_full,
          JsonNumber(stats.dollars_spent).c_str());
    }
    json += "}";
  }
  json += StrPrintf(
      ", \"cache\": {\"hits\": %lld, \"misses\": %lld, \"hit_rate\": %s}}",
      (long long)cache.hits, (long long)cache.misses,
      JsonNumber(hit_rate).c_str());
  json += "\n";
  if (Status written = WriteTextFile("BENCH_server.json", json);
      !written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_server.json\n");

  int64_t total_errors = 0;
  int64_t total_quota_rejected = 0;
  for (const LevelResult& level : main_run.levels) {
    total_errors += level.errors;
    total_quota_rejected += level.quota_rejected;
  }
  for (const LevelResult& level : baseline.levels) {
    total_errors += level.errors;
  }
  if (smoke && total_quota_rejected == 0) {
    std::fprintf(stderr,
                 "smoke: expected quota rejections for tenant t0, saw none\n");
    return 1;
  }
  // Tenant t1 has no in-flight cap and repeats four statements, so once
  // they are stored a reactor answers its requests itself.
  for (const LadderResult* ladder : {&baseline, &main_run}) {
    if (!smoke || ladder->levels.empty()) continue;
    int64_t reactor_answers = 0;
    for (const LevelResult& level : ladder->levels) {
      reactor_answers += level.reactor_answers;
    }
    if (reactor_answers == 0) {
      std::fprintf(stderr,
                   "smoke: no request was answered on a reactor with %d "
                   "reactor(s)\n",
                   ladder->num_reactors);
      return 1;
    }
  }
  return total_errors == 0 ? 0 : 1;
}
