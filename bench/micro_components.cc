// Component microbenchmarks (google-benchmark): the building blocks whose
// costs drive the planner-overhead figures, plus the ablation the paper
// suggests between the two resource-plan cache index layouts (sorted
// array vs CSB+-tree), on lookups and on inserts, directly and through
// the lock-striped cache.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <type_traits>
#include <vector>

#include "catalog/tpch.h"
#include "common/rng.h"
#include "core/csb_tree.h"
#include "core/plan_cache.h"
#include "core/raqo_cost_evaluator.h"
#include "core/resource_planner.h"
#include "optimizer/fixed_resource_evaluator.h"
#include "optimizer/selinger.h"
#include "sim/exec_model.h"
#include "sim/profile_runner.h"

namespace {

using namespace raqo;

const cost::JoinCostModels& Models() {
  static const cost::JoinCostModels* models = new cost::JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  return *models;
}

void BM_CostModelPredict(benchmark::State& state) {
  const cost::JoinCostModels& models = Models();
  cost::JoinFeatures f;
  f.smaller_gb = 3.0;
  f.larger_gb = 77.0;
  f.container_size_gb = 4.0;
  f.num_containers = 10.0;
  for (auto _ : state) {
    f.num_containers = (f.num_containers < 100.0) ? f.num_containers + 1 : 1;
    benchmark::DoNotOptimize(models.smj.PredictSeconds(f));
  }
}
BENCHMARK(BM_CostModelPredict);

void BM_SimulateJoin(benchmark::State& state) {
  const sim::EngineProfile hive = sim::EngineProfile::Hive();
  sim::ExecParams params;
  params.container_size_gb = 4.0;
  params.num_containers = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::SimulateJoin(hive, plan::JoinImpl::kSortMergeJoin,
                          catalog::GbToBytes(3), catalog::GbToBytes(77),
                          params));
  }
}
BENCHMARK(BM_SimulateJoin);

void BM_HillClimbResourcePlanning(benchmark::State& state) {
  const resource::ClusterConditions cluster =
      resource::ClusterConditions::WithMax(10, state.range(0));
  const cost::JoinCostModels& models = Models();
  core::HillClimbResourcePlanner planner;
  cost::JoinFeatures f;
  f.smaller_gb = 3.0;
  f.larger_gb = 77.0;
  int64_t iters = 0;
  for (auto _ : state) {
    auto r = planner.PlanResources(
        [&](const resource::ResourceConfig& c) {
          f.container_size_gb = c.container_size_gb();
          f.num_containers = c.num_containers();
          return models.smj.PredictSeconds(f);
        },
        cluster);
    benchmark::DoNotOptimize(r);
    iters += r.ok() ? r->configs_explored : 0;
  }
  state.counters["resource_iters/op"] =
      static_cast<double>(iters) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_HillClimbResourcePlanning)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BruteForceResourcePlanning(benchmark::State& state) {
  const resource::ClusterConditions cluster =
      resource::ClusterConditions::WithMax(10, state.range(0));
  const cost::JoinCostModels& models = Models();
  core::BruteForceResourcePlanner planner;
  cost::JoinFeatures f;
  f.smaller_gb = 3.0;
  f.larger_gb = 77.0;
  for (auto _ : state) {
    auto r = planner.PlanResources(
        [&](const resource::ResourceConfig& c) {
          f.container_size_gb = c.container_size_gb();
          f.num_containers = c.num_containers();
          return models.smj.PredictSeconds(f);
        },
        cluster);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BruteForceResourcePlanning)->Arg(100)->Arg(1000);

template <typename IndexT>
void BM_PlanIndexLookup(benchmark::State& state) {
  IndexT index;
  Rng rng(7);
  for (int i = 0; i < state.range(0); ++i) {
    core::CachedResourcePlan p;
    p.key_gb = rng.Uniform(0, 100);
    p.config = resource::ResourceConfig(4, 10);
    p.cost = 1.0;
    index.Insert(p);
  }
  double probe = 0.0;
  for (auto _ : state) {
    probe += 0.37;
    if (probe > 100) probe = 0;
    benchmark::DoNotOptimize(index.FindNeighbors(probe, 0.5));
  }
}
BENCHMARK(BM_PlanIndexLookup<core::SortedArrayIndex>)
    ->Arg(100)
    ->Arg(10000);
BENCHMARK(BM_PlanIndexLookup<core::CsbTreeIndex>)->Arg(100)->Arg(10000);

// One insert of a fresh random key into an index already holding
// state.range(0) random keys: the sorted array shifts every entry above
// the key (O(n)), the CSB+-tree rewrites at most a few node groups. The
// run is capped at 100 inserts so the index never grows by more than a
// tenth of its size.
template <typename IndexT>
void BM_PlanIndexInsert(benchmark::State& state) {
  Rng rng(13);
  std::vector<double> keys(static_cast<size_t>(state.range(0)));
  for (double& key : keys) key = rng.Uniform(0, 100);
  if constexpr (std::is_same_v<IndexT, core::SortedArrayIndex>) {
    // The array's layout does not depend on insertion order; filling it
    // in key order appends instead of costing O(n^2) moves.
    std::sort(keys.begin(), keys.end());
  }
  IndexT index;
  core::CachedResourcePlan p;
  p.config = resource::ResourceConfig(4, 10);
  p.cost = 1.0;
  for (double key : keys) {
    p.key_gb = key;
    index.Insert(p);
  }
  for (auto _ : state) {
    p.key_gb = rng.Uniform(0, 100);
    benchmark::DoNotOptimize(index.Insert(p));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PlanIndexInsert<core::SortedArrayIndex>)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Iterations(100)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);
BENCHMARK(BM_PlanIndexInsert<core::CsbTreeIndex>)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Iterations(100)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

// The same two operations through ResourcePlanCache in exact mode over
// the sorted array, the path planners take: state.range(0) lock stripes
// (1 or 8) over a cache already holding state.range(1) entries. Entries
// carry no larger input size, so their storage key is the plain data
// characteristic and the cache fills in key order (appends) — a random
// fill would cost O(n^2) moves at 100k. Lookups pass the exact-mode
// guard like the planner's do and always hit. The metrics registry stays
// on, as the server ships, so each lookup also records its counters.
void FillPlanCache(core::ResourcePlanCache& cache, int64_t entries,
                   std::vector<double>* keys) {
  Rng rng(17);
  keys->resize(static_cast<size_t>(entries));
  for (double& key : *keys) key = rng.Uniform(0, 100);
  std::sort(keys->begin(), keys->end());
  core::CachedResourcePlan p;
  p.config = resource::ResourceConfig(4, 10);
  p.cost = 1.0;
  for (double key : *keys) {
    p.key_gb = key;
    cache.Insert("smj", p);
  }
}

void BM_PlanCacheLookup(benchmark::State& state) {
  core::ResourcePlanCache cache(core::CacheLookupMode::kExact, 0.0,
                                core::CacheIndexKind::kSortedArray,
                                static_cast<size_t>(state.range(0)));
  std::vector<double> keys;
  FillPlanCache(cache, state.range(1), &keys);
  // Probe in a fixed random order so the binary searches do not walk
  // the array in cache-friendly key order.
  Rng rng(19);
  std::vector<double> probes(4096);
  for (double& probe : probes) {
    probe = keys[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1))];
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup("smj", probes[i], 0.0));
    i = (i + 1) % probes.size();
  }
}
BENCHMARK(BM_PlanCacheLookup)
    ->ArgsProduct({{1, 8}, {1000, 10000, 100000}})
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

// One insert of a fresh random key; capped at 100 inserts per run like
// BM_PlanIndexInsert.
void BM_PlanCacheInsert(benchmark::State& state) {
  core::ResourcePlanCache cache(core::CacheLookupMode::kExact, 0.0,
                                core::CacheIndexKind::kSortedArray,
                                static_cast<size_t>(state.range(0)));
  std::vector<double> keys;
  FillPlanCache(cache, state.range(1), &keys);
  Rng rng(23);
  core::CachedResourcePlan p;
  p.config = resource::ResourceConfig(4, 10);
  p.cost = 1.0;
  for (auto _ : state) {
    p.key_gb = rng.Uniform(0, 100);
    cache.Insert("smj", p);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PlanCacheInsert)
    ->ArgsProduct({{1, 8}, {1000, 10000, 100000}})
    ->Iterations(100)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_CsbTreeInsert(benchmark::State& state) {
  Rng rng(11);
  for (auto _ : state) {
    state.PauseTiming();
    core::CsbTree tree;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      tree.Insert(rng.NextDouble() * 1e6, i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_CsbTreeInsert)->Arg(1000)->Arg(10000);

void BM_SelingerTpchAll(benchmark::State& state) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  const std::vector<catalog::TableId> tables =
      *catalog::TpchQueryTables(cat, catalog::TpchQuery::kAll);
  optimizer::SelingerPlanner planner;
  for (auto _ : state) {
    optimizer::FixedResourceEvaluator eval(Models(),
                                           resource::ResourceConfig(4, 10));
    benchmark::DoNotOptimize(planner.Plan(cat, tables, eval));
  }
}
BENCHMARK(BM_SelingerTpchAll);

void BM_RaqoEvaluatorCostJoin(benchmark::State& state) {
  core::RaqoCostEvaluator eval(Models(),
                               resource::ClusterConditions::PaperDefault());
  optimizer::JoinContext ctx;
  ctx.impl = plan::JoinImpl::kSortMergeJoin;
  ctx.right_bytes = catalog::GbToBytes(77);
  double ss = 0.5;
  for (auto _ : state) {
    ss = ss < 8.0 ? ss + 0.125 : 0.5;
    ctx.left_bytes = catalog::GbToBytes(ss);
    benchmark::DoNotOptimize(eval.CostJoin(ctx));
  }
}
BENCHMARK(BM_RaqoEvaluatorCostJoin);

}  // namespace

BENCHMARK_MAIN();
