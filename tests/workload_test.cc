#include <gtest/gtest.h>

#include "catalog/tpch.h"
#include "core/workload_runner.h"
#include "sim/profile_runner.h"
#include "trace/queue_sim.h"

namespace raqo {
namespace {

using catalog::TpchQuery;

// ---------------------------------------------------------------------
// Backfill queue policy

TEST(BackfillQueueTest, MatchesFifoWhenUncontended) {
  std::vector<trace::JobSpec> jobs = {
      {0.0, 10.0, 2},
      {1.0, 5.0, 3},
  };
  auto fifo = *trace::SimulateQueue(jobs, 10, trace::QueuePolicy::kFifo);
  auto backfill =
      *trace::SimulateQueue(jobs, 10, trace::QueuePolicy::kBackfill);
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(fifo[i].start_s, backfill[i].start_s);
    EXPECT_DOUBLE_EQ(backfill[i].queue_time_s(), 0.0);
  }
}

TEST(BackfillQueueTest, SmallJobJumpsBlockedQueue) {
  // Job 1 cannot fit next to job 0; job 2 can. FIFO holds job 2 behind
  // job 1; backfill lets it through.
  std::vector<trace::JobSpec> jobs = {
      {0.0, 100.0, 8},
      {1.0, 1.0, 8},
      {2.0, 1.0, 2},
  };
  auto fifo = *trace::SimulateQueue(jobs, 10, trace::QueuePolicy::kFifo);
  auto backfill =
      *trace::SimulateQueue(jobs, 10, trace::QueuePolicy::kBackfill);
  EXPECT_DOUBLE_EQ(fifo[2].start_s, 100.0);
  EXPECT_DOUBLE_EQ(backfill[2].start_s, 2.0);
  // The blocked big job still starts when capacity frees.
  EXPECT_DOUBLE_EQ(backfill[1].start_s, 100.0);
}

TEST(BackfillQueueTest, OutcomesKeepInputOrder) {
  std::vector<trace::JobSpec> jobs = {
      {0.0, 50.0, 6},
      {1.0, 2.0, 6},
      {2.0, 2.0, 4},
      {3.0, 2.0, 4},
  };
  auto out = *trace::SimulateQueue(jobs, 10, trace::QueuePolicy::kBackfill);
  ASSERT_EQ(out.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i].arrival_s, jobs[i].arrival_s);
    EXPECT_DOUBLE_EQ(out[i].runtime_s, jobs[i].runtime_s);
    EXPECT_GE(out[i].start_s, out[i].arrival_s);
  }
}

TEST(BackfillQueueTest, ReducesAggregateQueueingOnRealWorkload) {
  trace::WorkloadOptions options;
  options.num_jobs = 5'000;
  auto jobs = *trace::GenerateWorkload(options);
  auto fifo = *trace::SimulateQueue(jobs, options.cluster_capacity,
                                    trace::QueuePolicy::kFifo);
  auto backfill = *trace::SimulateQueue(jobs, options.cluster_capacity,
                                        trace::QueuePolicy::kBackfill);
  double fifo_wait = 0.0;
  double backfill_wait = 0.0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    fifo_wait += fifo[i].queue_time_s();
    backfill_wait += backfill[i].queue_time_s();
  }
  EXPECT_LT(backfill_wait, fifo_wait);
}

TEST(BackfillQueueTest, ValidatesInput) {
  EXPECT_FALSE(trace::SimulateQueue({{0, 1, 1}}, 0,
                                    trace::QueuePolicy::kBackfill)
                   .ok());
  EXPECT_FALSE(trace::SimulateQueue({{0, -1, 1}}, 10,
                                    trace::QueuePolicy::kBackfill)
                   .ok());
  EXPECT_FALSE(trace::SimulateQueue({{5, 1, 1}, {0, 1, 1}}, 10,
                                    trace::QueuePolicy::kBackfill)
                   .ok());
  EXPECT_FALSE(trace::SimulateQueue({{0, 1, 11}}, 10,
                                    trace::QueuePolicy::kBackfill)
                   .ok());
}

// ---------------------------------------------------------------------
// Workload runner

class WorkloadRunnerTest : public ::testing::Test {
 protected:
  WorkloadRunnerTest() : cat_(catalog::BuildTpchCatalog(100.0)) {}

  core::RaqoPlanner MakePlanner(bool across_query_cache,
                                bool use_cache = true) {
    static const cost::JoinCostModels* models = new cost::JoinCostModels(
        *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
    core::RaqoPlannerOptions options;
    options.evaluator.use_cache = use_cache;
    options.evaluator.cache_mode = core::CacheLookupMode::kNearestNeighbor;
    options.evaluator.cache_threshold_gb = 0.05;
    options.clear_cache_between_queries = !across_query_cache;
    return core::RaqoPlanner(&cat_, *models,
                             resource::ClusterConditions::PaperDefault(),
                             resource::PricingModel(), options);
  }

  std::vector<core::WorkloadQuery> Workload() {
    return {
        {"Q3", *catalog::TpchQueryTables(cat_, TpchQuery::kQ3)},
        {"Q3-again", *catalog::TpchQueryTables(cat_, TpchQuery::kQ3)},
        {"Q2", *catalog::TpchQueryTables(cat_, TpchQuery::kQ2)},
    };
  }

  catalog::Catalog cat_;
};

TEST_F(WorkloadRunnerTest, ReportsPerQueryAndTotals) {
  // The totals are exactly the sums of the per-query reports, with the
  // cache off and with a cache kept warm across queries.
  for (const bool cache : {false, true}) {
    SCOPED_TRACE(cache ? "cache on" : "cache off");
    core::RaqoPlanner planner = MakePlanner(cache, cache);
    core::WorkloadRunner runner(&planner);
    Result<core::WorkloadReport> report = runner.Run(Workload());
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->queries.size(), 3u);
    EXPECT_EQ(report->queries[0].label, "Q3");
    double wall = 0.0;
    int64_t iters = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    for (const auto& q : report->queries) {
      EXPECT_GT(q.cost.seconds, 0.0);
      wall += q.wall_ms;
      iters += q.resource_configs_explored;
      hits += q.cache_hits;
      misses += q.cache_misses;
    }
    EXPECT_DOUBLE_EQ(report->total_wall_ms, wall);
    EXPECT_EQ(report->total_resource_configs_explored, iters);
    EXPECT_EQ(report->total_cache_hits, hits);
    EXPECT_EQ(report->total_cache_misses, misses);
    EXPECT_EQ(hits > 0, cache);
    EXPECT_GT(report->wall_clock_ms, 0.0);
  }
}

TEST_F(WorkloadRunnerTest, AcrossQueryCachingSavesWork) {
  core::RaqoPlanner cleared = MakePlanner(false);
  core::RaqoPlanner warm = MakePlanner(true);
  core::WorkloadRunner runner_cleared(&cleared);
  core::WorkloadRunner runner_warm(&warm);
  Result<core::WorkloadReport> a = runner_cleared.Run(Workload());
  Result<core::WorkloadReport> b = runner_warm.Run(Workload());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The repeated Q3 should be (nearly) free with the warm cache.
  EXPECT_LT(b->queries[1].resource_configs_explored,
            a->queries[1].resource_configs_explored);
  EXPECT_LT(b->total_resource_configs_explored,
            a->total_resource_configs_explored);
  // Same plans either way.
  for (size_t i = 0; i < a->queries.size(); ++i) {
    EXPECT_NEAR(a->queries[i].cost.seconds, b->queries[i].cost.seconds,
                a->queries[i].cost.seconds * 0.05);
  }
}

TEST_F(WorkloadRunnerTest, RejectsEmptyWorkloadAndPropagatesErrors) {
  core::RaqoPlanner planner = MakePlanner(false);
  core::WorkloadRunner runner(&planner);
  EXPECT_FALSE(runner.Run({}).ok());
  // An invalid query fails the run.
  std::vector<core::WorkloadQuery> bad = {{"dup", {0, 0}}};
  EXPECT_FALSE(runner.Run(bad).ok());
}

}  // namespace
}  // namespace raqo
