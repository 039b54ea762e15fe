// Concurrency invariants of the planning service layer: the thread
// pool, the lock-striped resource-plan cache, and the concurrent
// workload runner.
// Every property here must hold under any thread interleaving; run the
// suite under -DRAQO_SANITIZE=thread to let TSan check the data-race
// side of that claim (see docs/CONCURRENCY.md).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <filesystem>
#endif

#include "catalog/random_schema.h"
#include "catalog/tpch.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/concurrent_workload_runner.h"
#include "core/plan_cache.h"
#include "core/workload_runner.h"
#include "sim/profile_runner.h"

namespace raqo {
namespace {

using catalog::TableId;
using catalog::TpchQuery;

const cost::JoinCostModels& Models() {
  static const cost::JoinCostModels* models = new cost::JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  return *models;
}

// ---------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&counter] {
      counter.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, DrainsPendingTasksOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins after draining the queue
  EXPECT_EQ(counter.load(), 64);
}

// ---------------------------------------------------------------------
// Lock-striped resource-plan cache: 8 stripes answer every lookup mode
// exactly like 1 stripe, and concurrent writers and readers never lose
// an inserted key. The lookup mode picks the layout, so CacheIndexKind
// has one value; the suite stays parameterized on it until ROADMAP.md's
// benchmark re-freeze deletes the enum.

class ShardedIndexTest
    : public ::testing::TestWithParam<core::CacheIndexKind> {};

INSTANTIATE_TEST_SUITE_P(Layouts, ShardedIndexTest,
                         ::testing::Values(core::CacheIndexKind::kSortedArray));

void ExpectSameLookup(const std::optional<core::CachedResourcePlan>& a,
                      const std::optional<core::CachedResourcePlan>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a) return;
  EXPECT_EQ(a->key_gb, b->key_gb);
  EXPECT_EQ(a->cost, b->cost);
  EXPECT_EQ(a->config.container_size_gb(), b->config.container_size_gb());
  EXPECT_EQ(a->config.num_containers(), b->config.num_containers());
  EXPECT_EQ(a->larger_gb, b->larger_gb);
}

TEST_P(ShardedIndexTest, MatchesUnshardedSequentially) {
  for (const core::CacheLookupMode mode :
       {core::CacheLookupMode::kExact, core::CacheLookupMode::kNearestNeighbor,
        core::CacheLookupMode::kWeightedAverage}) {
    SCOPED_TRACE(core::CacheLookupModeName(mode));
    core::ResourcePlanCache striped(mode, 2.0, GetParam(), /*shards=*/8);
    core::ResourcePlanCache single(mode, 2.0, GetParam(), /*shards=*/1);
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
      core::CachedResourcePlan plan;
      plan.key_gb = std::round(rng.Uniform(0.0, 50.0) * 8.0) / 8.0;
      // Half the entries carry a larger input, which exact mode keys
      // the entry by.
      plan.larger_gb =
          rng.Bernoulli(0.5) ? std::round(rng.Uniform(50.0, 60.0)) : 0.0;
      plan.cost = rng.Uniform(1.0, 100.0);
      plan.config = resource::ResourceConfig(rng.Uniform(1, 10),
                                             rng.Uniform(1, 100));
      const char* model = rng.Bernoulli(0.5) ? "smj" : "bhj";
      striped.Insert(model, plan);
      single.Insert(model, plan);
    }
    EXPECT_EQ(striped.entry_count(), single.entry_count());
    const std::vector<core::CacheEntryRecord> dump = single.DumpEntries();
    const std::vector<core::CacheEntryRecord> striped_dump =
        striped.DumpEntries();
    ASSERT_EQ(striped_dump.size(), dump.size());
    ASSERT_EQ(dump.size(), static_cast<size_t>(single.entry_count()));
    for (size_t i = 0; i < dump.size(); ++i) {
      EXPECT_EQ(striped_dump[i].model, dump[i].model);
      ExpectSameLookup(striped_dump[i].plan, dump[i].plan);
    }
    for (const char* model : {"smj", "bhj", "none"}) {
      for (double key = 0.0; key <= 50.0; key += 0.37) {
        ExpectSameLookup(striped.Lookup(model, key),
                         single.Lookup(model, key));
      }
    }
    // Every stored pair, with and without the exact-mode guard.
    for (const core::CacheEntryRecord& record : dump) {
      ExpectSameLookup(striped.Lookup(record.model, record.plan.key_gb),
                       single.Lookup(record.model, record.plan.key_gb));
      ExpectSameLookup(
          striped.Lookup(record.model, record.plan.key_gb,
                         record.plan.larger_gb),
          single.Lookup(record.model, record.plan.key_gb,
                        record.plan.larger_gb));
    }
    EXPECT_EQ(striped.stats().hits, single.stats().hits);
    EXPECT_EQ(striped.stats().misses, single.stats().misses);
  }
}

TEST_P(ShardedIndexTest, ConcurrentWritersAndReadersLoseNothing) {
  core::ResourcePlanCache cache(core::CacheLookupMode::kNearestNeighbor,
                                50.0, GetParam(), /*shards=*/8);
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kKeysPerWriter = 400;
  // Disjoint per-writer key spaces so the expected final contents are
  // exact regardless of interleaving.
  auto key_of = [](int writer, int i) {
    return static_cast<double>(writer) * 1000.0 + static_cast<double>(i);
  };
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kKeysPerWriter; ++i) {
        core::CachedResourcePlan plan;
        plan.key_gb = key_of(w, i);
        plan.cost = static_cast<double>(i);
        cache.Insert("smj", plan);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(r) + 99);
      while (!stop.load(std::memory_order_acquire)) {
        const double center = rng.Uniform(0.0, 4000.0);
        const std::optional<core::CachedResourcePlan> nearest =
            cache.Lookup("smj", center);
        if (!nearest) continue;
        // A hit is always inside the window, and a key once observed
        // stays observable (no lost inserts).
        EXPECT_LE(std::fabs(nearest->key_gb - center), 50.0);
        const std::optional<core::CachedResourcePlan> again =
            cache.Lookup("smj", nearest->key_gb);
        ASSERT_TRUE(again.has_value());
        EXPECT_EQ(again->key_gb, nearest->key_gb);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Every inserted key is present afterwards.
  EXPECT_EQ(cache.entry_count(), kWriters * kKeysPerWriter);
  EXPECT_EQ(cache.DumpEntries().size(),
            static_cast<size_t>(kWriters * kKeysPerWriter));
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      const std::optional<core::CachedResourcePlan> found =
          cache.Lookup("smj", key_of(w, i));
      ASSERT_TRUE(found.has_value())
          << "lost key from writer " << w << " #" << i;
      EXPECT_EQ(found->key_gb, key_of(w, i));
    }
  }
}

// ---------------------------------------------------------------------
// Thread-safe cache: atomic hit/miss counters account for every lookup.

TEST(ConcurrentCacheTest, StatsAccountForEveryLookup) {
  core::ResourcePlanCache cache(core::CacheLookupMode::kExact, 0.0,
                                core::CacheIndexKind::kSortedArray,
                                /*shards=*/8);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const double key = std::floor(rng.Uniform(0.0, 100.0));
        if (rng.Bernoulli(0.5)) {
          core::CachedResourcePlan plan;
          plan.key_gb = key;
          cache.Insert("smj", plan);
        } else {
          (void)cache.Lookup("smj", key);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const core::CacheStats stats = cache.stats();
  // Every lookup was either a hit or a miss; none lost to racing updates.
  int64_t lookups = 0;
  {
    // Re-derive the exact per-thread op split (same seeds, same rng use).
    for (int t = 0; t < kThreads; ++t) {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        (void)std::floor(rng.Uniform(0.0, 100.0));
        if (!rng.Bernoulli(0.5)) ++lookups;
      }
    }
  }
  EXPECT_EQ(stats.hits + stats.misses, lookups);
  EXPECT_GT(stats.hits, 0);
  EXPECT_LE(cache.entry_count(), 100);
}

TEST(ConcurrentCacheTest, DefaultCacheIsSafeToShare) {
  // A cache built with the default arguments (shards = 0, one lock
  // stripe) shared by writers and readers: no insert may be lost, and
  // the entry count must match what is actually stored.
  core::ResourcePlanCache cache(core::CacheLookupMode::kExact, 0.0);
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kKeysPerWriter = 2000;
  auto key_of = [](int writer, int i) {
    return static_cast<double>(writer) * 10000.0 + static_cast<double>(i);
  };
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kKeysPerWriter; ++i) {
        core::CachedResourcePlan plan;
        plan.key_gb = key_of(w, i);
        plan.larger_gb = plan.key_gb + 1.0;
        plan.cost = plan.key_gb;
        cache.Insert("smj", plan);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(r) + 5);
      while (!stop.load(std::memory_order_acquire)) {
        const double key =
            key_of(static_cast<int>(rng.UniformInt(0, kWriters - 1)),
                   static_cast<int>(rng.UniformInt(0, kKeysPerWriter - 1)));
        const std::optional<core::CachedResourcePlan> hit =
            cache.Lookup("smj", key, key + 1.0);
        if (hit) {
          EXPECT_EQ(hit->cost, key);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  int64_t missing = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      const double key = key_of(w, i);
      if (!cache.Lookup("smj", key, key + 1.0)) ++missing;
    }
  }
  EXPECT_EQ(missing, 0);
  EXPECT_EQ(cache.entry_count(), kWriters * kKeysPerWriter);
  EXPECT_EQ(cache.DumpEntries().size(),
            static_cast<size_t>(kWriters * kKeysPerWriter));
}

TEST(ConcurrentCacheTest, ExactModeGuardsTheFullDataCharacteristic) {
  // The resource optimum depends on both join inputs; an exact-mode hit
  // for the right smaller size but the wrong larger size would let cache
  // population order leak into planning decisions. Entries for the same
  // smaller size but different larger sizes coexist instead of
  // overwriting each other.
  core::ResourcePlanCache cache(core::CacheLookupMode::kExact, 0.0);
  core::CachedResourcePlan plan;
  plan.key_gb = 2.0;
  plan.larger_gb = 10.0;
  plan.cost = 1.0;
  cache.Insert("smj", plan);
  plan.larger_gb = 20.0;
  plan.cost = 2.0;
  cache.Insert("smj", plan);
  EXPECT_EQ(cache.entry_count(), 2);  // distinct pairs did not overwrite

  const auto first = cache.Lookup("smj", 2.0, 10.0);
  const auto second = cache.Lookup("smj", 2.0, 20.0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->cost, 1.0);
  EXPECT_EQ(second->cost, 2.0);
  EXPECT_EQ(first->key_gb, 2.0);
  EXPECT_FALSE(cache.Lookup("smj", 2.0, 11.0).has_value());

  // Guard-less exact usage (no larger size on either side) keeps the
  // paper's original layout.
  core::CachedResourcePlan bare;
  bare.key_gb = 5.0;
  cache.Insert("smj", bare);
  EXPECT_TRUE(cache.Lookup("smj", 5.0).has_value());

  const core::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 1);
}

// ---------------------------------------------------------------------
// Concurrent workload runner (satellite property (a)): report equals
// the sequential runner's, merged in submission order.

std::vector<core::WorkloadQuery> RandomWorkload(const catalog::Catalog& cat,
                                                int num_queries,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<core::WorkloadQuery> workload;
  for (int i = 0; i < num_queries; ++i) {
    const int n = static_cast<int>(rng.UniformInt(2, 6));
    core::WorkloadQuery query;
    query.label = "q" + std::to_string(i);
    query.tables = *catalog::RandomQueryTables(
        cat, n, seed * 977 + static_cast<uint64_t>(i));
    workload.push_back(std::move(query));
  }
  return workload;
}

core::RaqoPlannerOptions ServiceOptions(bool cache) {
  core::RaqoPlannerOptions options;
  options.algorithm = core::PlannerAlgorithm::kSelinger;
  options.evaluator.use_cache = cache;
  // Exact-match lookups keep concurrent cache hits bit-identical to
  // fresh planning, so the service stays deterministic (see the runner's
  // class comment); similarity modes trade that for more reuse.
  options.evaluator.cache_mode = core::CacheLookupMode::kExact;
  options.clear_cache_between_queries = !cache;
  return options;
}

TEST(ConcurrentWorkloadRunnerTest, MatchesSequentialRunnerWithoutCache) {
  catalog::RandomSchemaOptions schema;
  schema.num_tables = 14;
  schema.seed = 3;
  catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
  const std::vector<core::WorkloadQuery> workload =
      RandomWorkload(cat, 24, 5);

  core::RaqoPlanner planner(&cat, Models(),
                            resource::ClusterConditions::PaperDefault(),
                            resource::PricingModel(), ServiceOptions(false));
  core::WorkloadRunner sequential(&planner);
  const Result<core::WorkloadReport> seq = sequential.Run(workload);
  ASSERT_TRUE(seq.ok());

  for (int threads : {1, 2, 4, 8}) {
    core::ConcurrentRunnerOptions concurrency;
    concurrency.num_threads = threads;
    core::ConcurrentWorkloadRunner service(
        &cat, Models(), resource::ClusterConditions::PaperDefault(),
        resource::PricingModel(), ServiceOptions(false), concurrency);
    const Result<core::WorkloadReport> par = service.Run(workload);
    ASSERT_TRUE(par.ok()) << threads;
    ASSERT_EQ(par->queries.size(), seq->queries.size());
    for (size_t i = 0; i < workload.size(); ++i) {
      EXPECT_EQ(par->queries[i].label, seq->queries[i].label);
      EXPECT_EQ(par->queries[i].cost.seconds, seq->queries[i].cost.seconds);
      EXPECT_EQ(par->queries[i].cost.dollars, seq->queries[i].cost.dollars);
      EXPECT_EQ(par->queries[i].plan, seq->queries[i].plan);
      ASSERT_EQ(par->queries[i].join_resources.size(),
                seq->queries[i].join_resources.size());
      for (size_t j = 0; j < par->queries[i].join_resources.size(); ++j) {
        EXPECT_EQ(par->queries[i].join_resources[j],
                  seq->queries[i].join_resources[j]);
      }
    }
  }
}

TEST(ConcurrentWorkloadRunnerTest, SharedExactCacheKeepsPlansIdentical) {
  catalog::RandomSchemaOptions schema;
  schema.num_tables = 12;
  schema.seed = 11;
  catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
  // Heavy repetition so the shared cache actually gets hit across
  // workers: the run must last long enough for the pool's workers to
  // join even on a loaded host, or the calling thread (worker 0) can
  // plan every query itself and only ever hit its own entries.
  std::vector<core::WorkloadQuery> workload = RandomWorkload(cat, 8, 21);
  const size_t unique = workload.size();
  for (int rep = 0; rep < 12; ++rep) {
    for (size_t i = 0; i < unique; ++i) {
      core::WorkloadQuery copy = workload[i];
      copy.label += "-rep" + std::to_string(rep);
      workload.push_back(std::move(copy));
    }
  }

  core::RaqoPlanner planner(&cat, Models(),
                            resource::ClusterConditions::PaperDefault(),
                            resource::PricingModel(), ServiceOptions(false));
  core::WorkloadRunner sequential(&planner);
  const Result<core::WorkloadReport> seq = sequential.Run(workload);
  ASSERT_TRUE(seq.ok());

  core::ConcurrentRunnerOptions concurrency;
  concurrency.num_threads = 4;
  core::ConcurrentWorkloadRunner service(
      &cat, Models(), resource::ClusterConditions::PaperDefault(),
      resource::PricingModel(), ServiceOptions(true), concurrency);
  ASSERT_TRUE(service.has_shared_cache());
  const Result<core::WorkloadReport> par = service.Run(workload);
  ASSERT_TRUE(par.ok());

  ASSERT_EQ(par->queries.size(), seq->queries.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(par->queries[i].cost.seconds, seq->queries[i].cost.seconds)
        << workload[i].label;
    EXPECT_EQ(par->queries[i].plan, seq->queries[i].plan);
    ASSERT_EQ(par->queries[i].join_resources.size(),
              seq->queries[i].join_resources.size());
    for (size_t j = 0; j < par->queries[i].join_resources.size(); ++j) {
      EXPECT_EQ(par->queries[i].join_resources[j],
                seq->queries[i].join_resources[j]);
    }
  }
  // The repeated queries produced real contention-time cache traffic.
  EXPECT_GT(par->shared_cache.hits, 0);
  EXPECT_GT(service.shared_cache_size(), 0u);
  // Fewer resource iterations than the cache-less sequential baseline:
  // across-query reuse worked.
  EXPECT_LT(par->total_resource_configs_explored,
            seq->total_resource_configs_explored);
}

TEST(ConcurrentWorkloadRunnerTest, TotalsEqualSumOfPerQueryReports) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  std::vector<core::WorkloadQuery> workload = {
      {"Q3", *catalog::TpchQueryTables(cat, TpchQuery::kQ3)},
      {"Q2", *catalog::TpchQueryTables(cat, TpchQuery::kQ2)},
      {"Q3-again", *catalog::TpchQueryTables(cat, TpchQuery::kQ3)},
      {"Q12", *catalog::TpchQueryTables(cat, TpchQuery::kQ12)},
  };
  // Both runners, cache on and off, must satisfy the sum invariant.
  for (const bool cache : {false, true}) {
    core::RaqoPlanner planner(&cat, Models(),
                              resource::ClusterConditions::PaperDefault(),
                              resource::PricingModel(),
                              ServiceOptions(cache));
    core::WorkloadRunner sequential(&planner);
    core::ConcurrentRunnerOptions concurrency;
    concurrency.num_threads = 3;
    core::ConcurrentWorkloadRunner service(
        &cat, Models(), resource::ClusterConditions::PaperDefault(),
        resource::PricingModel(), ServiceOptions(cache), concurrency);
    for (const Result<core::WorkloadReport>& report :
         {sequential.Run(workload), service.Run(workload)}) {
      ASSERT_TRUE(report.ok());
      double wall = 0.0;
      int64_t iters = 0;
      int64_t hits = 0;
      int64_t misses = 0;
      for (const core::QueryRunReport& q : report->queries) {
        wall += q.wall_ms;
        iters += q.resource_configs_explored;
        hits += q.cache_hits;
        misses += q.cache_misses;
      }
      EXPECT_DOUBLE_EQ(report->total_wall_ms, wall);
      EXPECT_EQ(report->total_resource_configs_explored, iters);
      EXPECT_EQ(report->total_cache_hits, hits);
      EXPECT_EQ(report->total_cache_misses, misses);
      EXPECT_GT(report->wall_clock_ms, 0.0);
    }
  }
}

TEST(ConcurrentWorkloadRunnerTest, ReportsLowestIndexErrorDeterministically) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(1.0);
  std::vector<core::WorkloadQuery> workload = {
      {"ok", *catalog::TpchQueryTables(cat, TpchQuery::kQ3)},
      {"bad-dup", {0, 0}},
      {"ok-2", *catalog::TpchQueryTables(cat, TpchQuery::kQ2)},
      {"bad-dup-2", {1, 1}},
  };
  core::ConcurrentRunnerOptions concurrency;
  concurrency.num_threads = 4;
  core::ConcurrentWorkloadRunner service(
      &cat, Models(), resource::ClusterConditions::PaperDefault(),
      resource::PricingModel(), ServiceOptions(false), concurrency);
  for (int attempt = 0; attempt < 5; ++attempt) {
    const Result<core::WorkloadReport> report = service.Run(workload);
    ASSERT_FALSE(report.ok());
    // Always the index-1 failure, regardless of scheduling.
    EXPECT_TRUE(report.status().IsInvalidArgument())
        << report.status().ToString();
  }
  EXPECT_FALSE(service.Run({}).ok());
}

// ---------------------------------------------------------------------
// Write-through shared cache: a plan one planner computes is visible to
// the next planner as soon as it is inserted, with no flush step.

TEST(WriteBehindCacheTest, BatchedAndWriteThroughPlansAndCachesMatch) {
  // A second planner sharing the cache re-plans the query entirely
  // from the first planner's entries and gets the identical plan.
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  const std::vector<TableId> tables =
      *catalog::TpchQueryTables(cat, TpchQuery::kQ3);
  core::RaqoPlannerOptions options;
  options.evaluator.use_cache = true;
  options.evaluator.cache_mode = core::CacheLookupMode::kExact;
  options.clear_cache_between_queries = false;
  auto cache = std::make_shared<core::ResourcePlanCache>(
      core::CacheLookupMode::kExact, 0.0, core::CacheIndexKind::kSortedArray,
      /*shards=*/8);

  core::RaqoPlanner first(&cat, Models(),
                          resource::ClusterConditions::PaperDefault(),
                          resource::PricingModel(), options);
  first.evaluator().ShareCache(cache);
  const Result<core::JointPlan> computed = first.Plan(tables);
  ASSERT_TRUE(computed.ok()) << computed.status().ToString();
  EXPECT_GT(computed->stats.resource_configs_explored, 0);
  const std::vector<core::CacheEntryRecord> after_first =
      cache->DumpEntries();
  ASSERT_FALSE(after_first.empty());

  core::RaqoPlanner second(&cat, Models(),
                           resource::ClusterConditions::PaperDefault(),
                           resource::PricingModel(), options);
  second.evaluator().ShareCache(cache);
  const Result<core::JointPlan> reused = second.Plan(tables);
  ASSERT_TRUE(reused.ok()) << reused.status().ToString();
  EXPECT_EQ(reused->stats.resource_configs_explored, 0);
  EXPECT_EQ(reused->cost.seconds, computed->cost.seconds);
  EXPECT_EQ(reused->cost.dollars, computed->cost.dollars);
  EXPECT_TRUE(reused->plan->StructurallyEquals(*computed->plan));
  // Pure hits write nothing back.
  EXPECT_EQ(cache->DumpEntries().size(), after_first.size());
}

// ---------------------------------------------------------------------
// Thread accounting: the runner's worker pool is its only source of
// threads, and repeated Run calls must not spawn anything.

#ifdef __linux__
int CountProcessThreads() {
  int count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(ThreadAccountingTest, RunnerCreatesOnlyItsWorkerPool) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  std::vector<core::WorkloadQuery> workload = {
      {"Q3", *catalog::TpchQueryTables(cat, TpchQuery::kQ3)},
      {"Q2", *catalog::TpchQueryTables(cat, TpchQuery::kQ2)},
      {"Q12", *catalog::TpchQueryTables(cat, TpchQuery::kQ12)},
      {"Q3-again", *catalog::TpchQueryTables(cat, TpchQuery::kQ3)},
  };
  core::RaqoPlannerOptions planner_options = ServiceOptions(true);
  core::ConcurrentRunnerOptions concurrency;
  concurrency.num_threads = 4;

  const int before = CountProcessThreads();
  core::ConcurrentWorkloadRunner service(
      &cat, Models(), resource::ClusterConditions::PaperDefault(),
      resource::PricingModel(), planner_options, concurrency);
  const int after_ctor = CountProcessThreads();
  // Exactly one worker pool (num_threads - 1: the caller is worker 0);
  // resource searches run on the workers, so there is no search pool.
  EXPECT_EQ(after_ctor - before, 4 - 1);

  const Result<core::WorkloadReport> first = service.Run(workload);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(CountProcessThreads(), after_ctor) << "Run spawned threads";

  // Reuse: a second Run on the same planners and pool returns the same
  // plans (the shared exact cache may serve more hits, which must not
  // change any plan).
  const Result<core::WorkloadReport> second = service.Run(workload);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(CountProcessThreads(), after_ctor);
  ASSERT_EQ(second->queries.size(), first->queries.size());
  for (size_t i = 0; i < first->queries.size(); ++i) {
    EXPECT_EQ(second->queries[i].plan, first->queries[i].plan);
    EXPECT_EQ(second->queries[i].cost.seconds,
              first->queries[i].cost.seconds);
    EXPECT_EQ(second->queries[i].cost.dollars,
              first->queries[i].cost.dollars);
    ASSERT_EQ(second->queries[i].join_resources.size(),
              first->queries[i].join_resources.size());
    for (size_t j = 0; j < first->queries[i].join_resources.size(); ++j) {
      EXPECT_EQ(second->queries[i].join_resources[j],
                first->queries[i].join_resources[j]);
    }
  }
}
#endif  // __linux__

// ---------------------------------------------------------------------
// Saturation guards on the exploration counters.

TEST(CounterSaturationTest, AbsurdGridsClampInsteadOfOverflowing) {
  const resource::ClusterConditions huge =
      *resource::ClusterConditions::Create(
          resource::ResourceConfig(1e-300, 1.0),
          resource::ResourceConfig(1e+300, 9e18),
          resource::ResourceConfig(1e-300, 1e-9));
  EXPECT_GT(huge.GridPoints(resource::kContainerSizeGb), 0);
  EXPECT_GT(huge.GridPoints(resource::kNumContainers), 0);
  EXPECT_EQ(huge.TotalGridSize(), std::numeric_limits<int64_t>::max());
}

}  // namespace
}  // namespace raqo
