// One episode of the planning-server benchmark (README.md). It starts
// the planning service in-process, configured as examples/raqo_serve
// configures it (TPC-H sf100, simulator-trained models, an exact-mode
// shared cache kept across queries, the default search, ServerOptions{}
// defaults), warms it with one request per hot statement, drives it over
// loopback from kConnections closed-loop clients, and prints the
// episode's figures as the last line of stdout, one JSON object.
// run.py repeats episodes in fresh processes and reports medians.
//
//   planbench --workload hot_repeat --seed 1
//   planbench --workload cold_novel --seed 1 --traced trace.json
//
// --traced makes the same server pass with a bench-side span around each
// client call, then replays the same statements in-process on one
// thread, calling each layer's public functions in the order
// PlanningService::Handle calls them, and checks that the replay
// reproduces every response's plan and cost bit-for-bit. An untraced
// replay of the same statements, interleaved with it, prices the spans.
// All spans go to a tracer this file owns, and are written to the named
// file as Chrome-trace JSON; the program's own tracer stays off.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "catalog/tpch.h"
#include "common/arena.h"
#include "common/json.h"
#include "common/stats.h"
#include "common/strings.h"
#include "core/raqo_cost_evaluator.h"
#include "core/raqo_planner.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/selinger.h"
#include "query/sql_parser.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sim/profile_runner.h"
#include "workload.h"

namespace planbench {
namespace {

using namespace raqo;
using Clock = std::chrono::steady_clock;

constexpr double kScaleFactor = 100.0;
/// Replayed requests whose spans are kept for the Chrome trace file.
constexpr int64_t kTracedReplayRequests = 64;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Host-wide CPU time from /proc/stat, in clock ticks: the time the
/// hypervisor ran something else while a vCPU was runnable (steal), and
/// all time. Zeros when /proc is unreadable.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;

  static CpuTicks Read() {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    CpuTicks ticks;
    double v[8] = {};
    if (stat >> cpu && cpu == "cpu") {
      for (double& x : v) stat >> x;
      for (double x : v) ticks.total += x;
      ticks.steal = v[7];
    }
    return ticks;
  }
};

/// Share of host CPU time stolen between two readings.
double StealFraction(const CpuTicks& from, const CpuTicks& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

/// VmHWM of this process in MiB; 0 when /proc is unreadable.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// FNV-1a, to fingerprint responses without keeping them.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Fingerprint of what a caller consumes: plan text, cost, and the
/// per-join resources, all bit-exact.
uint64_t ResponseHash(const server::PlanResponse& response) {
  uint64_t h = Fnv(kFnvOffset, response.plan.data(), response.plan.size());
  h = Fnv(h, &response.cost.seconds, sizeof(double));
  h = Fnv(h, &response.cost.dollars, sizeof(double));
  for (const resource::ResourceConfig& r : response.join_resources) {
    const double dims[2] = {r.container_size_gb(), r.num_containers()};
    h = Fnv(h, dims, sizeof(dims));
  }
  return h;
}

/// The planner configuration of examples/raqo_serve.
core::RaqoPlannerOptions ServePlannerOptions() {
  core::RaqoPlannerOptions options;
  options.evaluator.use_cache = true;
  options.evaluator.cache_mode = core::CacheLookupMode::kExact;
  options.clear_cache_between_queries = false;
  return options;
}

/// Samples strictly above the p-th percentile's rank.
int64_t SamplesBeyond(size_t n, int percentile) {
  const int64_t count = static_cast<int64_t>(n);
  return count - (count * percentile + 99) / 100;
}

/// The p-th percentile, or nullopt (with a message on stderr) when fewer
/// than 10 samples lie beyond it: such a percentile is one host hiccup.
std::optional<double> GuardedPercentile(const std::vector<double>& values,
                                        int percentile, const char* what) {
  const int64_t beyond = SamplesBeyond(values.size(), percentile);
  if (values.empty() || beyond < 10) {
    std::fprintf(stderr,
                 "planbench: refusing p%d of %s: %zu samples leave %lld "
                 "beyond it (need 10)\n",
                 percentile, what, values.size(), (long long)beyond);
    return std::nullopt;
  }
  return Percentile(values, percentile);
}

// ---------------------------------------------------------------------------
// Timed phase
// ---------------------------------------------------------------------------

/// What the traced server pass keeps of one request.
struct TracedCall {
  double queue_wait_us = 0.0;
  double planner_us = 0.0;
  uint64_t response_hash = 0;  ///< 0 for a failed request
};

/// One connection's record of the timed phase. Per-request arrays are
/// sized before the phase starts, so the load generator allocates
/// nothing that grows with run length while it is measured.
struct ConnectionRun {
  std::vector<double> latency_us;  ///< round trip of OK responses
  std::vector<TracedCall> traced;  ///< traced pass only, one per request

  int64_t sent = 0;
  int64_t ok = 0;
  double cost_seconds = 0.0;  ///< sum over OK responses, in stream order
  int64_t plans_considered = 0;
  uint64_t digest = kFnvOffset;
  double cpu_s = 0.0;  ///< this client thread's own CPU
  std::string error;   ///< first failure
};

void DriveConnection(uint16_t port, Workload workload, uint64_t seed,
                     int connection, obs::Tracer* tracer, std::latch& ready,
                     std::latch& go, ConnectionRun* out) {
  const int64_t n = RequestsPerConnection(workload);
  out->latency_us.reserve(static_cast<size_t>(n));
  if (tracer != nullptr) out->traced.reserve(static_cast<size_t>(n));
  Result<server::PlanningClient> client =
      server::PlanningClient::Connect("127.0.0.1", port);
  StatementStream stream(workload, seed, connection);
  server::PlanRequest request;
  request.sql.reserve(512);
  ready.count_down();
  go.wait();
  if (!client.ok()) {
    out->sent = n;
    out->error = "connect: " + client.status().ToString();
    return;
  }

  const double cpu_start = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  for (int64_t i = 0; i < n; ++i) {
    stream.Next(&request.sql);
    ++out->sent;
    obs::Span span;
    if (tracer != nullptr) span = tracer->StartSpan("client.call");
    const Clock::time_point start = Clock::now();
    Result<server::PlanResponse> response = client->Call(request);
    const double us = MicrosSince(start);
    if (!response.ok() || !response->ok()) {
      if (out->error.empty()) {
        out->error = response.ok()
                         ? response->status + ": " + response->error
                         : response.status().ToString();
      }
      if (tracer != nullptr) out->traced.push_back(TracedCall{});
      continue;
    }
    ++out->ok;
    out->latency_us.push_back(us);
    out->cost_seconds += response->cost.seconds;
    out->plans_considered += response->stats.plans_considered;
    const uint64_t hash = ResponseHash(*response);
    out->digest = Fnv(out->digest, &hash, sizeof(hash));
    if (tracer != nullptr) {
      span.SetAttr("queue_wait_us", response->queue_wait_us);
      span.SetAttr("wall_ms", response->stats.wall_ms);
      out->traced.push_back(TracedCall{response->queue_wait_us,
                                       1000.0 * response->stats.wall_ms,
                                       hash});
    }
  }
  out->cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
}

struct TimedPhase {
  std::vector<ConnectionRun> connections;
  double wall_s = 0.0;
  double process_cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

TimedPhase RunTimedPhase(uint16_t port, Workload workload, uint64_t seed,
                         obs::Tracer* tracer) {
  TimedPhase phase;
  phase.connections.resize(kConnections);
  std::latch ready(kConnections);
  std::latch go(1);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back(DriveConnection, port, workload, seed, c, tracer,
                         std::ref(ready), std::ref(go),
                         &phase.connections[static_cast<size_t>(c)]);
  }
  ready.wait();
  const double cpu_start = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  const Clock::time_point start = Clock::now();
  go.count_down();
  for (std::thread& t : threads) t.join();
  phase.wall_s = MicrosSince(start) * 1e-6;
  phase.process_cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu_start;
  phase.peak_rss_mb = PeakRssMiB();
  return phase;
}

// ---------------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------------

/// Forwards every CostJoin to the real evaluator inside a span, so the
/// enumerator's self time is its span minus these children.
class SpannedEvaluator final : public optimizer::PlanCostEvaluator {
 public:
  SpannedEvaluator(optimizer::PlanCostEvaluator* inner, obs::Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

 protected:
  Result<optimizer::OperatorCost> CostJoinImpl(
      const optimizer::JoinContext& context) override {
    obs::Span span = tracer_->StartSpan("core.cost_join");
    const int64_t before = inner_->resource_configs_explored();
    Result<optimizer::OperatorCost> cost = inner_->CostJoin(context);
    AddResourceConfigsExplored(inner_->resource_configs_explored() - before);
    return cost;
  }

 private:
  optimizer::PlanCostEvaluator* inner_;
  obs::Tracer* tracer_;
};

/// Counts the replay adds up over every request it plans.
struct ReplayCounts {
  int64_t requests = 0;
  int64_t plans_considered = 0;
  int64_t cost_calls = 0;
  double cpu_us = 0.0;  ///< this thread's CPU inside Run
};

/// Plans statements the way PlanningService::Handle does, one public
/// layer call at a time, each inside a span of `tracer`. With `tracer`
/// disabled the spans are inert and CostJoin is called directly, so the
/// replay does the program's work and nothing else.
class Replay {
 public:
  Replay(const catalog::Catalog* catalog, const cost::JoinCostModels& models,
         obs::Tracer* tracer)
      : catalog_(catalog),
        models_(models),
        cluster_(resource::ClusterConditions::PaperDefault()),
        options_(ServePlannerOptions()),
        tracer_(tracer) {
    // The shared cache PlanningService builds for these options.
    cache_ = std::make_shared<core::ResourcePlanCache>(
        options_.evaluator.cache_mode, options_.evaluator.cache_threshold_gb,
        options_.evaluator.cache_index,
        server::PlanningServiceOptions().cache_shards);
  }

  /// The response the server would send for `sql`, after the client's
  /// decode.
  Result<server::PlanResponse> Run(const std::string& sql) {
    const double cpu_start = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    Result<server::PlanResponse> response = Plan(sql);
    counts_.cpu_us += 1e6 * (CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu_start);
    return response;
  }

  const core::ResourcePlanCache& cache() const { return *cache_; }
  const ReplayCounts& counts() const { return counts_; }

 private:
  Result<server::PlanResponse> Plan(const std::string& sql) {
    obs::Span root = tracer_->StartSpan("replay.request");
    server::PlanRequest request;
    {
      obs::Span span = tracer_->StartSpan("server.codec");
      server::PlanRequest sent;
      sent.sql = sql;
      Result<server::PlanRequest> decoded =
          server::ParsePlanRequest(server::SerializePlanRequest(sent));
      if (!decoded.ok()) return decoded.status();
      request = std::move(*decoded);
    }
    Result<query::ParsedQuery> parsed = Status::Internal("not parsed");
    {
      obs::Span span = tracer_->StartSpan("query.parse");
      parsed = query::ParseJoinQuery(*catalog_, request.sql);
    }
    if (!parsed.ok()) return parsed.status();
    const catalog::Catalog* catalog = catalog_;
    catalog::Catalog filtered;
    if (!parsed->filters.empty()) {
      obs::Span span = tracer_->StartSpan("query.filter");
      Result<catalog::Catalog> scaled = query::ApplyFilters(*catalog_, *parsed);
      if (!scaled.ok()) return scaled.status();
      filtered = std::move(*scaled);
      catalog = &filtered;
    }
    std::optional<core::RaqoCostEvaluator> evaluator;
    {
      obs::Span span = tracer_->StartSpan("core.evaluator_setup");
      evaluator.emplace(models_, cluster_, pricing_, options_.evaluator);
      evaluator->ShareCache(cache_);
    }
    Result<optimizer::PlannedQuery> planned = Status::Internal("not planned");
    {
      obs::Span span = tracer_->StartSpan("optimizer.selinger");
      evaluator->BeginQuery();
      arena_.Reset();
      optimizer::SelingerOptions selinger = options_.selinger;
      selinger.arena = &arena_;
      SpannedEvaluator spanned(&*evaluator, tracer_);
      optimizer::PlanCostEvaluator& costs =
          tracer_->enabled()
              ? static_cast<optimizer::PlanCostEvaluator&>(spanned)
              : *evaluator;
      planned = optimizer::SelingerPlanner(selinger).Plan(
          *catalog, parsed->tables, costs);
    }
    {
      obs::Span span = tracer_->StartSpan("core.cache_flush");
      evaluator->FlushSharedCacheInserts();
    }
    if (!planned.ok()) return planned.status();
    server::PlanResponse response;
    {
      obs::Span span = tracer_->StartSpan("plan.render");
      response.plan = planned->plan->ToString(catalog);
      planned->plan->VisitJoins([&](const plan::PlanNode& join) {
        response.join_resources.push_back(
            join.resources().value_or(resource::ResourceConfig()));
      });
    }
    response.cost = planned->cost;
    response.stats.wall_ms = planned->stats.wall_ms;
    response.stats.plans_considered = planned->stats.plans_considered;
    response.stats.resource_configs_explored =
        planned->stats.resource_configs_explored;
    ++counts_.requests;
    counts_.plans_considered += planned->stats.plans_considered;
    counts_.cost_calls += planned->stats.operator_cost_calls;

    obs::Span span = tracer_->StartSpan("server.codec");
    return server::ParsePlanResponse(server::SerializePlanResponse(response));
  }

  const catalog::Catalog* catalog_;
  cost::JoinCostModels models_;
  resource::ClusterConditions cluster_;
  resource::PricingModel pricing_;
  core::RaqoPlannerOptions options_;
  obs::Tracer* tracer_;
  std::shared_ptr<core::ResourcePlanCache> cache_;
  Arena arena_;
  ReplayCounts counts_;
};

/// Per span name: summed duration and summed self time (duration minus
/// the part covered by child spans).
struct SpanTotal {
  double total_us = 0.0;
  double self_us = 0.0;
};

void FoldSpans(const std::vector<obs::FinishedSpan>& spans,
               std::map<std::string, SpanTotal>* totals) {
  std::unordered_map<uint64_t, double> child_us;
  for (const obs::FinishedSpan& span : spans) {
    if (span.parent_id != 0) child_us[span.parent_id] += span.dur_us;
  }
  for (const obs::FinishedSpan& span : spans) {
    SpanTotal& t = (*totals)[span.name];
    t.total_us += span.dur_us;
    auto child = child_us.find(span.id);
    t.self_us += span.dur_us - (child == child_us.end() ? 0.0 : child->second);
  }
}

/// Program counters. Summed deltas read around each traced replay
/// request are what the traced replay itself did.
struct ProgramCounters {
  int64_t searches = 0;
  int64_t configs_explored = 0;
  double search_us = 0.0;
  double lookup_us = 0.0;

  static ProgramCounters Read() {
    obs::MetricsRegistry& m = obs::DefaultMetrics();
    ProgramCounters c;
    c.searches = m.GetCounter("planner.resource.searches")->Value();
    c.configs_explored =
        m.GetCounter("planner.resource.configs_explored")->Value();
    c.search_us = m.GetHistogram("planner.resource.wall_us")->Sum();
    c.lookup_us = m.GetHistogram("cache.lookup.wall_us")->Sum();
    return c;
  }

  /// Adds what moved from `from` to `to`.
  void Add(const ProgramCounters& from, const ProgramCounters& to) {
    searches += to.searches - from.searches;
    configs_explored += to.configs_explored - from.configs_explored;
    search_us += to.search_us - from.search_us;
    lookup_us += to.lookup_us - from.lookup_us;
  }
};

// ---------------------------------------------------------------------------
// Episode
// ---------------------------------------------------------------------------

struct Args {
  Workload workload = Workload::kHotRepeat;
  std::string workload_name;
  uint64_t seed = 0;
  bool traced = false;
  std::string trace_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--workload" && value != nullptr) {
      args->workload_name = value;
      have_workload = ParseWorkload(value, &args->workload);
      ++i;
    } else if (flag == "--seed" && value != nullptr) {
      char* end = nullptr;
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
      ++i;
    } else if (flag == "--traced" && value != nullptr) {
      args->traced = true;
      args->trace_path = value;
      ++i;
    } else {
      return false;
    }
  }
  return have_workload && have_seed;
}

/// Appends `"key": value` to a JSON object under construction.
void Field(std::string* json, const char* key, double value) {
  *json += StrPrintf("%s\"%s\": %.17g", json->size() > 1 ? ", " : "", key,
                     value);
}
void Field(std::string* json, const char* key, int64_t value) {
  *json += StrPrintf("%s\"%s\": %lld", json->size() > 1 ? ", " : "", key,
                     (long long)value);
}
void Field(std::string* json, const char* key, const std::string& value) {
  *json += StrPrintf("%s\"%s\": \"%s\"", json->size() > 1 ? ", " : "", key,
                     JsonEscape(value).c_str());
}

int RunEpisode(const Args& args) {
  const CpuTicks ticks_start = CpuTicks::Read();
  const Clock::time_point setup_start = Clock::now();
  catalog::Catalog catalog = catalog::BuildTpchCatalog(kScaleFactor);
  Result<cost::JoinCostModels> models =
      sim::TrainModelsFromSimulator(sim::EngineProfile::Hive());
  if (!models.ok()) {
    std::fprintf(stderr, "planbench: %s\n", models.status().ToString().c_str());
    return 1;
  }
  const double train_ms = MicrosSince(setup_start) * 1e-3;

  const Clock::time_point start_start = Clock::now();
  server::PlanningServiceOptions service_options;
  service_options.planner = ServePlannerOptions();
  server::PlanningService service(&catalog, *models,
                                  resource::ClusterConditions::PaperDefault(),
                                  resource::PricingModel(), service_options);
  server::PlanningServer server(&service, server::ServerOptions{});
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "planbench: %s\n", started.ToString().c_str());
    return 1;
  }
  const double start_ms = MicrosSince(start_start) * 1e-3;

  // Warm pass: one request per hot statement, the same for both
  // workloads. It is part of set-up, so set-up time is dominated by
  // planning (an eight-table cold plan), not by process start-up noise.
  const Clock::time_point warm_start = Clock::now();
  const std::vector<std::string> hot = HotStatements();
  std::vector<uint64_t> warm_hash;
  std::vector<std::string> errors;
  {
    Result<server::PlanningClient> client =
        server::PlanningClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      std::fprintf(stderr, "planbench: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    server::PlanRequest request;
    for (const std::string& sql : hot) {
      request.sql = sql;
      Result<server::PlanResponse> response = client->Call(request);
      if (!response.ok() || !response->ok()) {
        std::fprintf(stderr, "planbench: warm request failed: %s\n",
                     response.ok() ? response->error.c_str()
                                   : response.status().ToString().c_str());
        return 1;
      }
      warm_hash.push_back(ResponseHash(*response));
    }
  }
  const double warm_ms = MicrosSince(warm_start) * 1e-3;
  const double setup_s = MicrosSince(setup_start) * 1e-6;

  obs::Tracer tracer(obs::TracerOptions{1 << 16});
  tracer.set_enabled(args.traced);
  const TimedPhase phase = RunTimedPhase(
      server.port(), args.workload, args.seed, args.traced ? &tracer : nullptr);
  const double steal_frac = StealFraction(ticks_start, CpuTicks::Read());
  const int64_t cache_entries = service.shared_cache()->entry_count();
  server.Shutdown();
  server.Wait();

  int64_t sent = 0;
  int64_t ok = 0;
  double cost_seconds = 0.0;
  int64_t plans_considered = 0;
  double client_cpu_s = 0.0;
  uint64_t digest = kFnvOffset;
  for (const uint64_t h : warm_hash) digest = Fnv(digest, &h, sizeof(h));
  std::vector<double> latency_us;
  for (const ConnectionRun& run : phase.connections) {
    sent += run.sent;
    ok += run.ok;
    cost_seconds += run.cost_seconds;
    plans_considered += run.plans_considered;
    client_cpu_s += run.cpu_s;
    digest = Fnv(digest, &run.digest, sizeof(run.digest));
    latency_us.insert(latency_us.end(), run.latency_us.begin(),
                      run.latency_us.end());
    if (!run.error.empty()) errors.push_back(run.error);
  }
  if (ok == 0) {
    std::fprintf(stderr, "planbench: no request succeeded: %s\n",
                 errors.empty() ? "" : errors.front().c_str());
    return 1;
  }
  const std::optional<double> p50 =
      GuardedPercentile(latency_us, 50, "round-trip latency");
  const std::optional<double> p99 =
      GuardedPercentile(latency_us, 99, "round-trip latency");
  if (!p50 || !p99) return 3;

  std::printf(
      "%s seed %llu%s: %zu samples, p50 %.1f us, p99 %.1f us (%lld beyond "
      "p99), %.0f req/s, set-up %.1f ms, host steal %.1f%%\n",
      args.workload_name.c_str(), (unsigned long long)args.seed,
      args.traced ? " traced" : "", latency_us.size(), *p50, *p99,
      (long long)SamplesBeyond(latency_us.size(), 99),
      static_cast<double>(ok) / phase.wall_s, setup_s * 1e3,
      100.0 * steal_frac);

  std::string json = "{";
  Field(&json, "sent", sent);
  Field(&json, "ok", ok);
  Field(&json, "setup_s", setup_s);
  Field(&json, "setup.train_ms", train_ms);
  Field(&json, "setup.start_ms", start_ms);
  Field(&json, "setup.warm_ms", warm_ms);
  Field(&json, "latency_p50_us", *p50);
  Field(&json, "latency_p99_us", *p99);
  Field(&json, "throughput_rps", static_cast<double>(ok) / phase.wall_s);
  Field(&json, "cpu_us_per_req",
        1e6 * (phase.process_cpu_s - client_cpu_s) / static_cast<double>(ok));
  Field(&json, "peak_rss_mb", phase.peak_rss_mb);
  Field(&json, "plan_runtime_s", cost_seconds / static_cast<double>(ok));
  Field(&json, "success_frac",
        static_cast<double>(ok) / static_cast<double>(sent));
  Field(&json, "steal_frac", steal_frac);
  Field(&json, "digest", StrPrintf("%016" PRIx64, digest));
  Field(&json, "cache_entries", cache_entries);
  Field(&json, "plans_considered", plans_considered);

  if (args.traced) {
    // Server pass: what the client sees beyond queueing and planning.
    std::vector<double> overhead_us;
    std::vector<double> queue_wait_us;
    for (const ConnectionRun& run : phase.connections) {
      size_t ok_index = 0;
      for (const TracedCall& call : run.traced) {
        if (call.response_hash == 0) continue;
        overhead_us.push_back(run.latency_us[ok_index++] -
                              call.queue_wait_us - call.planner_us);
        queue_wait_us.push_back(call.queue_wait_us);
      }
    }
    const std::optional<double> overhead_p50 =
        GuardedPercentile(overhead_us, 50, "server overhead");
    const std::optional<double> queue_wait_p99 =
        GuardedPercentile(queue_wait_us, 99, "queue wait");
    if (!overhead_p50 || !queue_wait_p99) return 3;
    std::vector<obs::FinishedSpan> kept = tracer.Snapshot();
    tracer.Clear();

    // Replay: warm statements, then each connection's stream in turn.
    // Exact-mode caching makes every answer independent of order, so the
    // single-threaded replay must match the concurrent server bit-for-bit.
    // An untraced replay (a disabled tracer, so inert spans and direct
    // CostJoin calls, and a cache of its own) plans every statement too,
    // first on every other one, so host drift and warm caches fall on both
    // alike. Its thread CPU prices all the spans the traced replay records.
    Replay replay(&catalog, *models, &tracer);
    obs::Tracer off;
    Replay untraced(&catalog, *models, &off);
    std::map<std::string, SpanTotal> spans;
    ProgramCounters moved;
    bool untraced_first = true;
    int64_t mismatches = 0;
    std::string first_mismatch;
    auto replay_one = [&](const std::string& sql, uint64_t expected) {
      if (untraced_first) (void)untraced.Run(sql);
      const ProgramCounters before = ProgramCounters::Read();
      Result<server::PlanResponse> response = replay.Run(sql);
      moved.Add(before, ProgramCounters::Read());
      if (!untraced_first) (void)untraced.Run(sql);
      untraced_first = !untraced_first;
      const uint64_t got = response.ok() ? ResponseHash(*response) : 0;
      if (got != expected && expected != 0) {
        if (mismatches++ == 0) first_mismatch = sql;
      }
      std::vector<obs::FinishedSpan> request_spans = tracer.Snapshot();
      tracer.Clear();
      FoldSpans(request_spans, &spans);
      if (replay.counts().requests <= kTracedReplayRequests) {
        kept.insert(kept.end(), request_spans.begin(), request_spans.end());
      }
    };
    for (size_t i = 0; i < hot.size(); ++i) replay_one(hot[i], warm_hash[i]);
    std::string sql;
    for (int c = 0; c < kConnections; ++c) {
      StatementStream stream(args.workload, args.seed, c);
      const ConnectionRun& run = phase.connections[static_cast<size_t>(c)];
      for (const TracedCall& call : run.traced) {
        stream.Next(&sql);
        replay_one(sql, call.response_hash);
      }
    }
    if (mismatches > 0) {
      errors.push_back(StrPrintf(
          "replay differs from the server on %lld requests, first: %s",
          (long long)mismatches, first_mismatch.c_str()));
    }
    if (replay.cache().entry_count() != cache_entries) {
      errors.push_back(StrPrintf(
          "the replay's cache holds %lld entries, the server's %lld",
          (long long)replay.cache().entry_count(), (long long)cache_entries));
    }

    const ReplayCounts& counts = replay.counts();
    const int64_t searches = moved.searches;
    const int64_t configs = moved.configs_explored;
    const double requests = static_cast<double>(std::max<int64_t>(
        1, counts.requests));
    const core::CacheStats cache = replay.cache().stats();
    auto per_request = [&](const char* span) {
      auto it = spans.find(span);
      return it == spans.end() ? 0.0 : it->second.total_us / requests;
    };

    Field(&json, "server.overhead_us", *overhead_p50);
    Field(&json, "server.queue_wait_us", *queue_wait_p99);
    Field(&json, "server.codec_us", per_request("server.codec"));
    Field(&json, "query.parse_us", per_request("query.parse"));
    Field(&json, "query.filter_us", per_request("query.filter"));
    Field(&json, "core.evaluator_setup_us",
          per_request("core.evaluator_setup"));
    Field(&json, "optimizer.enumerate_us",
          spans["optimizer.selinger"].self_us / requests);
    Field(&json, "optimizer.plans_considered",
          static_cast<double>(counts.plans_considered) / requests);
    Field(&json, "optimizer.cost_calls",
          static_cast<double>(counts.cost_calls) / requests);
    Field(&json, "core.cost_join_us", per_request("core.cost_join"));
    Field(&json, "core.cache_hit_ratio", cache.hit_rate());
    Field(&json, "core.cache_lookups",
          static_cast<double>(cache.lookups()) / requests);
    Field(&json, "core.cache_lookup_us",
          moved.lookup_us / requests);
    Field(&json, "core.cache_flush_us", per_request("core.cache_flush"));
    Field(&json, "core.cache_entries", replay.cache().entry_count());
    Field(&json, "core.resource_searches",
          static_cast<double>(searches) / requests);
    Field(&json, "core.configs_explored",
          static_cast<double>(configs) / requests);
    Field(&json, "core.cells_per_search",
          static_cast<double>(configs) /
              static_cast<double>(std::max<int64_t>(1, searches)));
    Field(&json, "core.resource_search_us",
          moved.search_us / requests);
    Field(&json, "plan.render_us", per_request("plan.render"));
    Field(&json, "workload.repeat_frac",
          RepeatFraction(args.workload, args.seed));
    Field(&json, "trace.overhead_frac",
          counts.cpu_us / untraced.counts().cpu_us - 1.0);

    Status written =
        WriteTextFile(args.trace_path, obs::SpansToChromeTraceJson(kept));
    if (!written.ok()) errors.push_back(written.ToString());
  }

  std::string joined;
  for (const std::string& e : errors) joined += (joined.empty() ? "" : "; ") + e;
  Field(&json, "errors", joined);
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace planbench

int main(int argc, char** argv) {
  planbench::Args args;
  if (!planbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: planbench --workload hot_repeat|cold_novel --seed N "
                 "[--traced TRACE_JSON]\n");
    return 2;
  }
  return planbench::RunEpisode(args);
}
