// Component microbenchmarks (google-benchmark): the building blocks whose
// costs drive the planner-overhead figures, plus the resource-plan cache
// on lookups and on inserts: the paper's sorted array directly, and the
// lock-striped cache in exact mode.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "catalog/tpch.h"
#include "common/rng.h"
#include "core/grid_sweep.h"
#include "core/plan_cache.h"
#include "core/raqo_cost_evaluator.h"
#include "core/resource_planner.h"
#include "cost/model_bounds.h"
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

// One insert of a fresh random key into an index already holding
// state.range(0) random keys: the sorted array shifts every entry above
// the key (O(n)). The run is capped at 100 inserts so the index never
// grows by more than a tenth of its size.
template <typename IndexT>
void BM_PlanIndexInsert(benchmark::State& state) {
  Rng rng(13);
  std::vector<double> keys(static_cast<size_t>(state.range(0)));
  for (double& key : keys) key = rng.Uniform(0, 100);
  // The array's layout does not depend on insertion order; filling it in
  // key order appends instead of costing O(n^2) moves.
  std::sort(keys.begin(), keys.end());
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

// The same two operations through ResourcePlanCache in exact mode, the
// path planners take: state.range(0) lock stripes (1 or 8) over a cache
// already holding state.range(1) entries. With state.range(2) == 0 the
// entries carry no larger input size; with 1 each carries one, the key
// shape planners insert, and exact mode keys it by the (smaller, larger)
// pair. The fill runs in ascending smaller size, so a layout sorted by
// that size appends; one ordered by anything else pays O(n^2) moves at
// 100k. Lookups pass the exact-mode guard like the planner's do and
// always hit. The metrics registry stays on, as the server ships, so
// each operation also records its metrics.
struct CacheKey {
  double smaller = 0.0;
  double larger = 0.0;
};

CacheKey RandomCacheKey(Rng& rng, bool with_larger) {
  CacheKey key;
  key.smaller = rng.Uniform(0, 100);
  if (with_larger) key.larger = rng.Uniform(100, 400);
  return key;
}

void FillPlanCache(core::ResourcePlanCache& cache, int64_t entries,
                   bool with_larger, std::vector<CacheKey>* keys) {
  Rng rng(17);
  keys->resize(static_cast<size_t>(entries));
  for (CacheKey& key : *keys) key = RandomCacheKey(rng, with_larger);
  std::sort(keys->begin(), keys->end(),
            [](const CacheKey& a, const CacheKey& b) {
              return a.smaller < b.smaller;
            });
  core::CachedResourcePlan p;
  p.config = resource::ResourceConfig(4, 10);
  p.cost = 1.0;
  for (const CacheKey& key : *keys) {
    p.key_gb = key.smaller;
    p.larger_gb = key.larger;
    cache.Insert("smj", p);
  }
}

void BM_PlanCacheLookup(benchmark::State& state) {
  core::ResourcePlanCache cache(core::CacheLookupMode::kExact, 0.0,
                                core::CacheIndexKind::kSortedArray,
                                static_cast<size_t>(state.range(0)));
  std::vector<CacheKey> keys;
  FillPlanCache(cache, state.range(1), state.range(2) != 0, &keys);
  // Probe in a fixed random order so the probes do not walk the entries
  // in fill order.
  Rng rng(19);
  std::vector<CacheKey> probes(4096);
  for (CacheKey& probe : probes) {
    probe = keys[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1))];
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Lookup("smj", probes[i].smaller, probes[i].larger));
    i = (i + 1) % probes.size();
  }
}
BENCHMARK(BM_PlanCacheLookup)
    ->ArgsProduct({{1, 8}, {1000, 10000, 100000}, {0, 1}})
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

// One insert of a fresh random key; capped at 100 inserts per run like
// BM_PlanIndexInsert.
void BM_PlanCacheInsert(benchmark::State& state) {
  core::ResourcePlanCache cache(core::CacheLookupMode::kExact, 0.0,
                                core::CacheIndexKind::kSortedArray,
                                static_cast<size_t>(state.range(0)));
  const bool with_larger = state.range(2) != 0;
  std::vector<CacheKey> keys;
  FillPlanCache(cache, state.range(1), with_larger, &keys);
  Rng rng(23);
  core::CachedResourcePlan p;
  p.config = resource::ResourceConfig(4, 10);
  p.cost = 1.0;
  for (auto _ : state) {
    const CacheKey key = RandomCacheKey(rng, with_larger);
    p.key_gb = key.smaller;
    p.larger_gb = key.larger;
    cache.Insert("smj", p);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PlanCacheInsert)
    ->ArgsProduct({{1, 8}, {1000, 10000, 100000}, {0, 1}})
    ->Iterations(100)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

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

// The switch-aware search's cost by layer on the paper-default 10x100
// grid, for a simulator-trained SMJ model at fixed data sizes: the
// term-array objective the evaluator sweeps with, the per-cell price
// (PredictSeconds, pricing, weighting) it replaced, one row's block
// bounds, and one fill of the term arrays (once per search). Counters
// "per_cell", "per_probe" and "per_fill" give the time per unit of work.
struct GridFixture {
  resource::ClusterConditions grid =
      resource::ClusterConditions::PaperDefault();
  core::GridGeometry g{grid};
  resource::PricingModel pricing;
  const cost::OperatorCostModel& model = Models().smj;
  double ss = 3.0;
  double ls = 77.0;
  double time_weight = 0.7;
  cost::SeparableGridSeconds seconds;

  GridFixture() { seconds.Fill(model, ss, ls, grid); }
  int64_t cells() const { return g.cs_points * g.nc_points; }
};

/// Reports the time per unit of work (`units` per iteration) as counter
/// `name`, in seconds with an SI prefix.
void PerUnit(benchmark::State& state, const char* name, int64_t units) {
  state.counters[name] = benchmark::Counter(
      static_cast<double>(units),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// Each row in runs of kSweepBlockCells cells, as the sweep prices an
// unpruned block.
void BM_GridCellTermArrays(benchmark::State& state) {
  GridFixture f;
  const core::SeparableObjective objective(f.seconds, f.pricing,
                                           f.time_weight);
  double costs[core::kSweepBlockCells];
  for (auto _ : state) {
    double sum = 0.0;
    for (int64_t i = 0; i < f.g.cs_points; ++i) {
      for (int64_t j0 = 0; j0 < f.g.nc_points; j0 += core::kSweepBlockCells) {
        const int64_t j1 = std::min(j0 + core::kSweepBlockCells, f.g.nc_points);
        objective.Cells(i, j0, j1, costs);
        for (int64_t j = j0; j < j1; ++j) sum += costs[j - j0];
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  PerUnit(state, "per_cell", f.cells());
}
BENCHMARK(BM_GridCellTermArrays);

void BM_GridCellPriced(benchmark::State& state) {
  GridFixture f;
  for (auto _ : state) {
    double sum = 0.0;
    for (int64_t i = 0; i < f.g.cs_points; ++i) {
      for (int64_t j = 0; j < f.g.nc_points; ++j) {
        const resource::ResourceConfig config = f.g.CellAt(i, j);
        cost::JoinFeatures features;
        features.smaller_gb = f.ss;
        features.larger_gb = f.ls;
        features.container_size_gb = config.container_size_gb();
        features.num_containers = config.num_containers();
        const double seconds = f.model.PredictSeconds(features);
        sum += cost::CostVector{seconds, f.pricing.Cost(config, seconds)}
                   .Weighted(f.time_weight);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  PerUnit(state, "per_cell", f.cells());
}
BENCHMARK(BM_GridCellPriced);

// One row's block bounds, all at once as the sweep asks for them.
void BM_GridBlockBounds(benchmark::State& state) {
  GridFixture f;
  const core::SeparableObjective objective(f.seconds, f.pricing,
                                           f.time_weight);
  std::vector<double> bounds(
      static_cast<size_t>(f.seconds.NumBlocks(core::kSweepBlockCells)));
  int64_t i = 0;
  for (auto _ : state) {
    objective.BlockBounds(i, core::kSweepBlockCells, bounds.data());
    benchmark::DoNotOptimize(bounds.data());
    i = i + 1 < f.g.cs_points ? i + 1 : 0;
  }
  PerUnit(state, "per_probe", static_cast<int64_t>(bounds.size()));
}
BENCHMARK(BM_GridBlockBounds);

// New data sizes each time, so every fill expands its columns.
void BM_GridTermArrayFill(benchmark::State& state) {
  GridFixture f;
  double ss = f.ss;
  for (auto _ : state) {
    ss = ss < 8.0 ? ss + 0.125 : 0.5;
    f.seconds.Fill(f.model, ss, f.ls, f.grid);
    benchmark::ClobberMemory();
  }
  PerUnit(state, "per_fill", 1);
}
BENCHMARK(BM_GridTermArrayFill);

// One SMJ search after another on one evaluator, at the time weight in
// percent given as the argument. At weight 1 the box bounds are the
// boxes' smallest cells, so a search evaluates about its seed block; at
// weight 0 the dollars half of a bound is priced at the box's low corner
// and stays loose, so a search still evaluates a few hundred cells and
// the bounds' own cost shows.
void BM_RaqoEvaluatorCostJoin(benchmark::State& state) {
  core::RaqoEvaluatorOptions options;
  options.time_weight = static_cast<double>(state.range(0)) / 100.0;
  core::RaqoCostEvaluator eval(Models(),
                               resource::ClusterConditions::PaperDefault(),
                               resource::PricingModel(), options);
  optimizer::JoinContext ctx;
  ctx.impl = plan::JoinImpl::kSortMergeJoin;
  ctx.right_bytes = catalog::GbToBytes(77);
  double ss = 0.5;
  for (auto _ : state) {
    ss = ss < 8.0 ? ss + 0.125 : 0.5;
    ctx.left_bytes = catalog::GbToBytes(ss);
    benchmark::DoNotOptimize(eval.CostJoin(ctx));
  }
  state.counters["cells/search"] = benchmark::Counter(
      static_cast<double>(eval.resource_configs_explored()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RaqoEvaluatorCostJoin)
    ->ArgName("weight_pct")
    ->Arg(100)
    ->Arg(50)
    ->Arg(0);

// The same joins as bound requests: each call prices the lower bound
// over the feasible grid, searching no cell. The join DP asks it of
// every candidate; against BM_RaqoEvaluatorCostJoin it is what a
// skipped candidate costs instead of its search.
void BM_RaqoEvaluatorLowerBound(benchmark::State& state) {
  core::RaqoCostEvaluator eval(Models(),
                               resource::ClusterConditions::PaperDefault());
  optimizer::JoinContext ctx;
  ctx.impl = plan::JoinImpl::kSortMergeJoin;
  ctx.right_bytes = catalog::GbToBytes(77);
  ctx.bound_only = true;
  double ss = 0.5;
  int64_t bounded = 0;
  for (auto _ : state) {
    ss = ss < 8.0 ? ss + 0.125 : 0.5;
    ctx.left_bytes = catalog::GbToBytes(ss);
    Result<optimizer::OperatorCost> bound = eval.CostJoin(ctx);
    bounded += bound.ok() ? 1 : 0;
    benchmark::DoNotOptimize(bound);
  }
  if (bounded != static_cast<int64_t>(state.iterations()) ||
      eval.resource_configs_explored() != 0) {
    state.SkipWithError("a bound request went unanswered or searched");
  }
}
BENCHMARK(BM_RaqoEvaluatorLowerBound);

// The planning service builds an evaluator per request, so whatever an
// evaluator does once is paid per request: each iteration builds a
// fresh one and costs one SMJ join on the paper grid.
void BM_RaqoEvaluatorFirstSearch(benchmark::State& state) {
  optimizer::JoinContext ctx;
  ctx.impl = plan::JoinImpl::kSortMergeJoin;
  ctx.left_bytes = catalog::GbToBytes(3);
  ctx.right_bytes = catalog::GbToBytes(77);
  for (auto _ : state) {
    core::RaqoCostEvaluator eval(Models(),
                                 resource::ClusterConditions::PaperDefault());
    benchmark::DoNotOptimize(eval.CostJoin(ctx));
  }
}
BENCHMARK(BM_RaqoEvaluatorFirstSearch);

}  // namespace

BENCHMARK_MAIN();
