#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "catalog/table.h"
#include "catalog/tpch.h"
#include "common/regression.h"
#include "plan/plan_builder.h"
#include "sim/engine_profile.h"
#include "sim/exec_model.h"
#include "sim/profile_runner.h"
#include "sim/simulator.h"

namespace raqo::sim {
namespace {

using catalog::GbToBytes;
using plan::JoinImpl;

ExecParams Params(double cs, int nc, int nr = 0) {
  ExecParams p;
  p.container_size_gb = cs;
  p.num_containers = nc;
  p.num_reducers = nr;
  return p;
}

TEST(ExecModelTest, RejectsBadParams) {
  const EngineProfile hive = EngineProfile::Hive();
  EXPECT_FALSE(SimulateJoin(hive, JoinImpl::kSortMergeJoin, 1, 1,
                            Params(0, 10))
                   .ok());
  EXPECT_FALSE(SimulateJoin(hive, JoinImpl::kSortMergeJoin, 1, 1,
                            Params(4, 0))
                   .ok());
  EXPECT_FALSE(SimulateJoin(hive, JoinImpl::kSortMergeJoin, -1, 1,
                            Params(4, 10))
                   .ok());
  ExecParams p = Params(4, 10);
  p.num_reducers = -1;
  EXPECT_FALSE(SimulateJoin(hive, JoinImpl::kSortMergeJoin, 1, 1, p).ok());
}

TEST(ExecModelTest, AutoReducerRule) {
  const EngineProfile hive = EngineProfile::Hive();
  EXPECT_EQ(AutoReducerCount(hive, 100.0), 1);
  EXPECT_EQ(AutoReducerCount(hive, 256.0), 1);
  EXPECT_EQ(AutoReducerCount(hive, 257.0), 2);
  EXPECT_EQ(AutoReducerCount(hive, 1e9), hive.max_auto_reducers);
}

TEST(ExecModelTest, BhjOutOfMemoryBelowCapacity) {
  const EngineProfile hive = EngineProfile::Hive();
  // 5.1 GB build side: paper reports OOM below 5 GB containers with
  // default Hive settings.
  const double small = GbToBytes(5.1);
  const double large = GbToBytes(77.0);
  Result<JoinRunResult> at4 =
      SimulateJoin(hive, JoinImpl::kBroadcastHashJoin, small, large,
                   Params(4, 10));
  ASSERT_FALSE(at4.ok());
  EXPECT_TRUE(at4.status().IsResourceExhausted());
  EXPECT_TRUE(SimulateJoin(hive, JoinImpl::kBroadcastHashJoin, small, large,
                           Params(5, 10))
                  .ok());
}

TEST(ExecModelTest, SmjAlwaysFeasible) {
  const EngineProfile hive = EngineProfile::Hive();
  for (double cs : {1.0, 2.0, 4.0, 10.0}) {
    EXPECT_TRUE(SimulateJoin(hive, JoinImpl::kSortMergeJoin,
                             GbToBytes(20), GbToBytes(77), Params(cs, 10))
                    .ok());
  }
}

TEST(ExecModelTest, InputOrderIrrelevant) {
  const EngineProfile hive = EngineProfile::Hive();
  const auto a = SimulateJoin(hive, JoinImpl::kBroadcastHashJoin,
                              GbToBytes(2), GbToBytes(40), Params(4, 10));
  const auto b = SimulateJoin(hive, JoinImpl::kBroadcastHashJoin,
                              GbToBytes(40), GbToBytes(2), Params(4, 10));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->seconds, b->seconds);
}

TEST(ExecModelTest, SmjScalesWithParallelism) {
  const EngineProfile hive = EngineProfile::Hive();
  double prev = 1e18;
  for (int nc : {5, 10, 20, 40}) {
    const auto run = SimulateJoin(hive, JoinImpl::kSortMergeJoin,
                                  GbToBytes(5), GbToBytes(77),
                                  Params(3, nc));
    ASSERT_TRUE(run.ok());
    EXPECT_LT(run->seconds, prev) << nc;
    prev = run->seconds;
  }
}

TEST(ExecModelTest, SmjNearlyFlatInContainerSize) {
  // Figure 3(a): SMJ performance remains relatively stable across
  // container sizes.
  const EngineProfile hive = EngineProfile::Hive();
  const auto at4 = SimulateJoin(hive, JoinImpl::kSortMergeJoin,
                                GbToBytes(5.1), GbToBytes(77),
                                Params(4, 10));
  const auto at10 = SimulateJoin(hive, JoinImpl::kSortMergeJoin,
                                 GbToBytes(5.1), GbToBytes(77),
                                 Params(10, 10));
  ASSERT_TRUE(at4.ok());
  ASSERT_TRUE(at10.ok());
  EXPECT_LT(std::abs(at4->seconds - at10->seconds) / at4->seconds, 0.25);
}

TEST(ExecModelTest, BhjImprovesWithContainerSize) {
  // Figure 3(a): BHJ benefits from larger memory.
  const EngineProfile hive = EngineProfile::Hive();
  const auto at5 = SimulateJoin(hive, JoinImpl::kBroadcastHashJoin,
                                GbToBytes(5.1), GbToBytes(77),
                                Params(5, 10));
  const auto at10 = SimulateJoin(hive, JoinImpl::kBroadcastHashJoin,
                                 GbToBytes(5.1), GbToBytes(77),
                                 Params(10, 10));
  ASSERT_TRUE(at5.ok());
  ASSERT_TRUE(at10.ok());
  EXPECT_GT(at5->seconds, at10->seconds * 1.5);
}

TEST(ExecModelTest, ContainerSizeCrossoverExists) {
  // Figure 3(a): SMJ wins for small containers, BHJ for big ones, with a
  // switch point in between.
  const EngineProfile hive = EngineProfile::Hive();
  const double small = GbToBytes(5.1);
  const double large = GbToBytes(77.0);
  const auto smj5 = SimulateJoin(hive, JoinImpl::kSortMergeJoin, small,
                                 large, Params(5, 10));
  const auto bhj5 = SimulateJoin(hive, JoinImpl::kBroadcastHashJoin, small,
                                 large, Params(5, 10));
  const auto smj10 = SimulateJoin(hive, JoinImpl::kSortMergeJoin, small,
                                  large, Params(10, 10));
  const auto bhj10 = SimulateJoin(hive, JoinImpl::kBroadcastHashJoin, small,
                                  large, Params(10, 10));
  ASSERT_TRUE(smj5.ok() && bhj5.ok() && smj10.ok() && bhj10.ok());
  EXPECT_LT(smj5->seconds, bhj5->seconds);    // SMJ wins at 5 GB
  EXPECT_GT(smj10->seconds, bhj10->seconds);  // BHJ wins at 10 GB
}

TEST(ExecModelTest, ParallelismCrossoverExists) {
  // Figure 3(b): BHJ wins at low container counts, SMJ at high ones.
  const EngineProfile hive = EngineProfile::Hive();
  const double small = GbToBytes(3.4);
  const double large = GbToBytes(77.0);
  const auto smj_few = SimulateJoin(hive, JoinImpl::kSortMergeJoin, small,
                                    large, Params(3, 5));
  const auto bhj_few = SimulateJoin(hive, JoinImpl::kBroadcastHashJoin,
                                    small, large, Params(3, 5));
  const auto smj_many = SimulateJoin(hive, JoinImpl::kSortMergeJoin, small,
                                     large, Params(3, 40));
  const auto bhj_many = SimulateJoin(hive, JoinImpl::kBroadcastHashJoin,
                                     small, large, Params(3, 40));
  ASSERT_TRUE(smj_few.ok() && bhj_few.ok() && smj_many.ok() &&
              bhj_many.ok());
  EXPECT_GT(smj_few->seconds, bhj_few->seconds);
  EXPECT_LT(smj_many->seconds, bhj_many->seconds);
}

TEST(ExecModelTest, PressureFactorRisesNearCapacity) {
  const EngineProfile hive = EngineProfile::Hive();
  const auto relaxed = SimulateJoin(hive, JoinImpl::kBroadcastHashJoin,
                                    GbToBytes(1), GbToBytes(77),
                                    Params(9, 10));
  const auto pressured = SimulateJoin(hive, JoinImpl::kBroadcastHashJoin,
                                      GbToBytes(9), GbToBytes(77),
                                      Params(9, 10));
  ASSERT_TRUE(relaxed.ok());
  ASSERT_TRUE(pressured.ok());
  EXPECT_LT(relaxed->pressure_factor, 1.1);
  EXPECT_GT(pressured->pressure_factor, 1.5);
  EXPECT_LE(pressured->pressure_factor, 1.0 + hive.pressure_amplitude);
}

TEST(ExecModelTest, FewReducersLimitReduceParallelism) {
  const EngineProfile hive = EngineProfile::Hive();
  const auto few = SimulateJoin(hive, JoinImpl::kSortMergeJoin,
                                GbToBytes(5), GbToBytes(20),
                                Params(3, 40, 2));
  const auto many = SimulateJoin(hive, JoinImpl::kSortMergeJoin,
                                 GbToBytes(5), GbToBytes(20),
                                 Params(3, 40, 80));
  ASSERT_TRUE(few.ok());
  ASSERT_TRUE(many.ok());
  EXPECT_GT(few->seconds, many->seconds);
  EXPECT_EQ(few->reducers, 2);
  EXPECT_EQ(many->reducers, 80);
}

TEST(ExecModelTest, SpillPenaltyShrinksWithMemory) {
  // One fat reducer partition: small containers must spill, large ones
  // sort in memory.
  const EngineProfile hive = EngineProfile::Hive();
  const auto small_mem = SimulateJoin(hive, JoinImpl::kSortMergeJoin,
                                      GbToBytes(10), GbToBytes(10),
                                      Params(1, 10, 4));
  const auto big_mem = SimulateJoin(hive, JoinImpl::kSortMergeJoin,
                                    GbToBytes(10), GbToBytes(10),
                                    Params(10, 10, 4));
  ASSERT_TRUE(small_mem.ok());
  ASSERT_TRUE(big_mem.ok());
  EXPECT_GT(small_mem->breakdown.spill_s, 0.0);
  EXPECT_GT(small_mem->seconds, big_mem->seconds);
}

TEST(ExecModelTest, TorrentBroadcastScalesBetter) {
  const EngineProfile hive = EngineProfile::Hive();
  const EngineProfile spark = EngineProfile::Spark();
  auto bcast_growth = [](const EngineProfile& p) {
    ExecParams few = Params(10, 5);
    ExecParams many = Params(10, 50);
    const auto a = SimulateJoin(p, JoinImpl::kBroadcastHashJoin,
                                GbToBytes(0.05), GbToBytes(20), few);
    const auto b = SimulateJoin(p, JoinImpl::kBroadcastHashJoin,
                                GbToBytes(0.05), GbToBytes(20), many);
    return b->breakdown.broadcast_s / a->breakdown.broadcast_s;
  };
  // Hive broadcast grows ~linearly in nc, Spark's torrent ~log.
  EXPECT_GT(bcast_growth(hive), 5.0);
  EXPECT_LT(bcast_growth(spark), 3.0);
}

TEST(ExecModelTest, SparkSwitchPointsAreMbScale) {
  // Figure 9(b): Spark's BHJ capacity is per-task, so OOM hits at
  // hundreds of MB, not GB.
  const EngineProfile spark = EngineProfile::Spark();
  EXPECT_FALSE(SimulateJoin(spark, JoinImpl::kBroadcastHashJoin,
                            GbToBytes(1.0), GbToBytes(10), Params(3, 10))
                   .ok());
  EXPECT_TRUE(SimulateJoin(spark, JoinImpl::kBroadcastHashJoin,
                           GbToBytes(0.3), GbToBytes(10), Params(3, 10))
                  .ok());
}

// Property sweep: for every resource configuration, simulated times are
// finite and positive, and more containers never hurt SMJ.
struct GridPoint {
  double cs;
  int nc;
};

// Prints a point by value (cs1_nc5), which also names the test ids.
// gtest's fallback prints the struct's raw bytes, and its padding bytes
// differ from build to build.
void PrintTo(const GridPoint& p, std::ostream* os) {
  *os << "cs" << p.cs << "_nc" << p.nc;
}

class ExecModelGridTest : public ::testing::TestWithParam<GridPoint> {};

TEST_P(ExecModelGridTest, TimesPositiveAndFinite) {
  const EngineProfile hive = EngineProfile::Hive();
  const GridPoint p = GetParam();
  for (JoinImpl impl :
       {JoinImpl::kSortMergeJoin, JoinImpl::kBroadcastHashJoin}) {
    Result<JoinRunResult> run =
        SimulateJoin(hive, impl, GbToBytes(1.0), GbToBytes(30.0),
                     Params(p.cs, p.nc));
    if (!run.ok()) {
      EXPECT_TRUE(run.status().IsResourceExhausted());
      continue;
    }
    EXPECT_GT(run->seconds, 0.0);
    EXPECT_TRUE(std::isfinite(run->seconds));
    EXPECT_NEAR(run->seconds, run->breakdown.Total(), 1e-9);
  }
}

TEST_P(ExecModelGridTest, SmjMonotoneInContainers) {
  // More containers never hurt SMJ in the moderate-parallelism regime.
  // (Beyond ~100 containers, per-container launch costs legitimately
  // dominate a 32 GB join, so the sweep stops there.)
  const EngineProfile hive = EngineProfile::Hive();
  const GridPoint p = GetParam();
  if (p.nc * 2 > 100) return;
  const auto base = SimulateJoin(hive, JoinImpl::kSortMergeJoin,
                                 GbToBytes(2.0), GbToBytes(30.0),
                                 Params(p.cs, p.nc));
  const auto more = SimulateJoin(hive, JoinImpl::kSortMergeJoin,
                                 GbToBytes(2.0), GbToBytes(30.0),
                                 Params(p.cs, p.nc * 2));
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(more.ok());
  EXPECT_LE(more->seconds, base->seconds * 1.05);
}

INSTANTIATE_TEST_SUITE_P(
    ResourceGrid, ExecModelGridTest,
    ::testing::Values(GridPoint{1, 5}, GridPoint{2, 10}, GridPoint{3, 20},
                      GridPoint{5, 10}, GridPoint{7, 40}, GridPoint{10, 5},
                      GridPoint{10, 50}, GridPoint{4, 100}));

TEST(SimulatorTest, RunPlanSumsJoins) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(10.0);
  ExecutionSimulator sim(EngineProfile::Hive(), &cat);
  std::vector<catalog::TableId> q3 =
      *catalog::TpchQueryTables(cat, catalog::TpchQuery::kQ3);
  auto plan = *plan::BuildLeftDeep(q3, JoinImpl::kSortMergeJoin);
  Result<SimPlanResult> run = sim.RunPlan(*plan, Params(4, 10));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->joins.size(), 2u);
  double sum = 0;
  for (const auto& j : run->joins) sum += j.run.seconds;
  EXPECT_NEAR(run->seconds, sum, 1e-9);
  EXPECT_GT(run->tb_seconds, 0.0);
  EXPECT_GT(run->dollars, 0.0);
}

TEST(SimulatorTest, PerNodeResourcesRespected) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(10.0);
  ExecutionSimulator sim(EngineProfile::Hive(), &cat);
  std::vector<catalog::TableId> q12 =
      *catalog::TpchQueryTables(cat, catalog::TpchQuery::kQ12);
  auto plan = *plan::BuildLeftDeep(q12, JoinImpl::kSortMergeJoin);
  plan->set_resources(resource::ResourceConfig(8, 40));
  Result<SimPlanResult> run = sim.RunPlan(*plan, Params(1, 1));
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->joins.size(), 1u);
  EXPECT_DOUBLE_EQ(run->joins[0].params.container_size_gb, 8.0);
  EXPECT_EQ(run->joins[0].params.num_containers, 40);
}

TEST(SimulatorTest, OomPropagates) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  ExecutionSimulator sim(EngineProfile::Hive(), &cat);
  std::vector<catalog::TableId> q12 =
      *catalog::TpchQueryTables(cat, catalog::TpchQuery::kQ12);
  // orders at SF100 (~15 GB) cannot be broadcast into 2 GB containers.
  auto plan = *plan::BuildLeftDeep(q12, JoinImpl::kBroadcastHashJoin);
  Result<SimPlanResult> run = sim.RunPlan(*plan, Params(2, 10));
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsResourceExhausted());
}

TEST(ProfileRunnerTest, CollectsAndSkipsInfeasible) {
  const EngineProfile hive = EngineProfile::Hive();
  ProfileGrid grid;
  grid.smaller_gb = {1.0, 8.0};
  grid.larger_gb = {77.0};
  grid.container_gb = {2.0, 10.0};
  grid.containers = {10};
  const auto smj =
      CollectProfileSamples(hive, JoinImpl::kSortMergeJoin, grid);
  const auto bhj =
      CollectProfileSamples(hive, JoinImpl::kBroadcastHashJoin, grid);
  EXPECT_EQ(smj.size(), 4u);       // SMJ always feasible
  EXPECT_LT(bhj.size(), 4u);       // 8 GB build does not fit 2 GB containers
  EXPECT_GE(bhj.size(), 2u);
}

TEST(ProfileRunnerTest, TrainedModelsTrackSimulator) {
  const EngineProfile hive = EngineProfile::Hive();
  Result<cost::JoinCostModels> models = TrainModelsFromSimulator(hive);
  ASSERT_TRUE(models.ok());
  // The fitted model should reproduce a held-in grid point reasonably.
  const auto truth = SimulateJoin(hive, JoinImpl::kSortMergeJoin,
                                  GbToBytes(3.0), GbToBytes(77.0),
                                  Params(4, 20));
  ASSERT_TRUE(truth.ok());
  cost::JoinFeatures f{3.0, 77.0, 4.0, 20.0};
  const double pred = models->smj.PredictSeconds(f);
  EXPECT_NEAR(pred, truth->seconds, truth->seconds * 0.5);
  // And preserve the BHJ-prefers-memory property.
  cost::JoinFeatures small_mem{4.0, 77.0, 5.0, 10.0};
  cost::JoinFeatures big_mem{4.0, 77.0, 10.0, 10.0};
  EXPECT_GT(models->bhj.PredictSeconds(small_mem),
            models->bhj.PredictSeconds(big_mem));
}

}  // namespace
}  // namespace raqo::sim
