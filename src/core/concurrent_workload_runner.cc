#include "core/concurrent_workload_runner.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace raqo::core {

ConcurrentWorkloadRunner::ConcurrentWorkloadRunner(
    const catalog::Catalog* catalog, cost::JoinCostModels models,
    resource::ClusterConditions cluster, resource::PricingModel pricing,
    RaqoPlannerOptions planner_options,
    ConcurrentRunnerOptions runner_options)
    : catalog_(catalog),
      models_(std::move(models)),
      cluster_(cluster),
      pricing_(pricing),
      planner_options_(planner_options),
      options_(runner_options) {
  RAQO_CHECK(catalog != nullptr);
  if (options_.num_threads < 1) options_.num_threads = 1;
  if (planner_options_.evaluator.use_cache) {
    shared_cache_ = std::make_shared<ResourcePlanCache>(
        planner_options_.evaluator.cache_mode,
        planner_options_.evaluator.cache_threshold_gb,
        planner_options_.evaluator.cache_index, kDefaultCacheStripes);
  }
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads - 1);
  }
  planners_.reserve(static_cast<size_t>(options_.num_threads));
  for (int w = 0; w < options_.num_threads; ++w) {
    planners_.push_back(std::make_unique<RaqoPlanner>(
        catalog_, models_, cluster_, pricing_, planner_options_));
    if (shared_cache_ != nullptr) {
      planners_.back()->evaluator().ShareCache(shared_cache_);
    }
  }
}

Result<WorkloadReport> ConcurrentWorkloadRunner::Run(
    const std::vector<WorkloadQuery>& workload) {
  if (workload.empty()) {
    return Status::InvalidArgument("workload is empty");
  }
  Stopwatch watch;
  const CacheStats shared_before =
      shared_cache_ != nullptr ? shared_cache_->stats() : CacheStats{};

  // The persistent per-worker planners (shared cache already attached)
  // fan out over the persistent pool; small workloads use a prefix of
  // the workers rather than waking idle ones.
  const int num_workers =
      static_cast<int>(std::min<size_t>(
          static_cast<size_t>(options_.num_threads), workload.size()));

  // Dynamic work stealing over the query list: a single atomic cursor
  // hands out submission indices, and every result lands in its query's
  // slot, so the merged report order is the submission order no matter
  // which worker planned what.
  std::vector<std::optional<QueryRunReport>> slots(workload.size());
  std::vector<Status> errors(workload.size());
  std::atomic<size_t> cursor{0};
  auto worker_loop = [&](RaqoPlanner* planner, int worker_index) {
    while (true) {
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= workload.size()) return;
      const WorkloadQuery& query = workload[i];
      // Queue wait: how long the query sat in the submission list before
      // a worker claimed it. Span ids come from one process-wide atomic
      // counter, so they are stable identifiers even though the claiming
      // worker and the interleaving vary run to run.
      const double queue_wait_us =
          obs::MetricsOn() || obs::TracingOn() ? watch.ElapsedMicros() : 0.0;
      obs::Span span;
      if (obs::TracingOn()) {
        span = obs::DefaultTracer().StartSpan("runner.query");
        span.SetAttr("query", query.label);
        span.SetAttr("index", static_cast<int64_t>(i));
        span.SetAttr("worker", static_cast<int64_t>(worker_index));
        span.SetAttr("queue_wait_us", queue_wait_us);
      }
      if (obs::MetricsOn()) {
        static obs::Histogram* queue_wait = obs::DefaultMetrics().GetHistogram(
            "runner.queue_wait_us");
        queue_wait->Record(queue_wait_us);
      }
      Result<JointPlan> plan = planner->Plan(query.tables);
      if (obs::MetricsOn()) {
        static obs::Counter* planned =
            obs::DefaultMetrics().GetCounter("runner.queries");
        static obs::Counter* failed =
            obs::DefaultMetrics().GetCounter("runner.errors");
        planned->Add(1);
        if (!plan.ok()) failed->Add(1);
      }
      if (!plan.ok()) {
        if (span.recording()) span.SetAttr("error", plan.status().message());
        errors[i] = plan.status();
        continue;
      }
      if (span.recording()) span.SetAttr("cost_seconds", plan->cost.seconds);
      span.End();
      QueryRunReport entry;
      entry.label = query.label;
      entry.cost = plan->cost;
      DescribePlanInReport(*plan, &entry);
      entry.wall_ms = plan->stats.wall_ms;
      entry.resource_configs_explored =
          plan->stats.resource_configs_explored;
      entry.cache_hits = plan->stats.cache_hits;
      entry.cache_misses = plan->stats.cache_misses;
      slots[i] = std::move(entry);
    }
  };

  if (num_workers == 1) {
    worker_loop(planners_[0].get(), 0);
  } else {
    // Workers 1..N-1 run on the persistent pool; worker 0 runs here so
    // the calling thread contributes instead of idling.
    std::vector<std::future<void>> futures;
    futures.reserve(static_cast<size_t>(num_workers) - 1);
    for (int w = 1; w < num_workers; ++w) {
      RaqoPlanner* planner = planners_[static_cast<size_t>(w)].get();
      futures.push_back(
          pool_->Submit([&, planner, w] { worker_loop(planner, w); }));
    }
    worker_loop(planners_[0].get(), 0);
    for (std::future<void>& f : futures) f.get();
  }

  // Deterministic error reporting: the failure at the lowest submission
  // index wins, independent of scheduling.
  for (size_t i = 0; i < workload.size(); ++i) {
    if (!errors[i].ok()) return errors[i];
  }

  WorkloadReport report;
  report.queries.reserve(workload.size());
  for (std::optional<QueryRunReport>& slot : slots) {
    RAQO_CHECK(slot.has_value());
    report.queries.push_back(std::move(*slot));
  }
  AccumulateReportTotals(&report);
  if (shared_cache_ != nullptr) {
    const CacheStats after = shared_cache_->stats();
    report.shared_cache.hits = after.hits - shared_before.hits;
    report.shared_cache.misses = after.misses - shared_before.misses;
  }
  report.wall_clock_ms = watch.ElapsedMillis();
  return report;
}

CacheStats ConcurrentWorkloadRunner::shared_cache_stats() const {
  return shared_cache_ != nullptr ? shared_cache_->stats() : CacheStats{};
}

size_t ConcurrentWorkloadRunner::shared_cache_size() const {
  return shared_cache_ != nullptr
             ? static_cast<size_t>(shared_cache_->entry_count())
             : 0;
}

std::vector<ShardStats> ConcurrentWorkloadRunner::shared_cache_shard_stats()
    const {
  return shared_cache_ != nullptr ? shared_cache_->shard_stats()
                                  : std::vector<ShardStats>{};
}

}  // namespace raqo::core
