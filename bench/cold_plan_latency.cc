// Cold plan latency: exhaustive vs switch-point-aware resource search.
//
// The joint optimizer's cold cost (no resource-plan cache) is dominated
// by the per-candidate grid search: Selinger asks the evaluator to cost
// hundreds of candidate joins, and the exhaustive search answers each
// with rp x rc model evaluations over the paper-default 10x100 grid.
// The switch-aware search answers the same question bit-identically by
// evaluating first the block of cells its cost-model lower bounds rank
// lowest (the paper's switch-point observation: the winner sits where
// the model puts it, and moves only at sparse switch points) and
// dominance-pruning the rest of the grid with the same bounds
// (docs/PERF.md).
//
// The switch-aware side also skips whole searches: the evaluator bounds
// each candidate from below, and the DP costs a subset's candidates in
// bound order and skips those whose bound shows they cannot win
// (docs/PERF.md, section 5). The brute force gives no bound, so its DP
// costs every candidate in offer order and never skips.
//
// This bench plans the TPC-H evaluation queries plus a random-schema
// workload with both searches, in rounds of one brute-force repeat and
// as many switch-aware repeats as the first round's time ratio calls
// for, until both have run for a second. It asserts the plans are
// identical, and reports per-query latency percentiles, the
// evaluation-count ratio, the cells evaluated per resource search, the
// candidates skipped, and the wall-clock speedup (the ratio of the two
// searches' mean time per repeat). With --smoke it is a CI gate: plans
// must be identical, the switch-aware search must be >= 28x faster cold,
// evaluate at most kMaxCellsPerSearch cells per resource search, and
// skip at least one candidate per suite.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "catalog/random_schema.h"
#include "catalog/tpch.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/grid_sweep.h"
#include "core/raqo_planner.h"
#include "core/workload_runner.h"
#include "obs/metrics.h"
#include "sim/profile_runner.h"

namespace {

using namespace raqo;

// The smoke gate: cold planning with the switch-aware search must be at
// least this much faster than the exhaustive brute force on the
// paper-default grid, with bit-identical plans. Over 10 alternating
// Release runs on a 4-vCPU VM the worst suite (TPC-H) read 34.2-37.4x
// with each resource search seeded from exact box minima and 21.2-23.6x
// with it warm-started from the previous search's optimum, so the floor
// fails a sweep that loses its seed. (Best-first DP costing had read
// 20.8-22.5x against 12.3-13.6x in offer order.)
constexpr double kSpeedupFloor = 28.0;

// The switch-aware side's cells evaluated per resource search, at most:
// two pruning blocks. Seeded from exact box minima, a search at the
// default time weight evaluates about one block (TPC-H 994 and random
// 1,413 evals per query against 16,576 and 10,705 when each search was
// warm-started from the previous one's optimum). Deterministic, unlike
// the speedup.
constexpr int64_t kMaxCellsPerSearch = 2 * core::kSweepBlockCells;

// Each suite runs in rounds until both searches have run for at least
// this long, so a short suite's ratio is not a few milliseconds of timer
// and scheduling noise. A round is one brute-force repeat and then as
// many switch-aware repeats as the first round's time ratio calls for:
// both sides take about as long per round, so drift on the host falls
// on both alike, and the slow side does not repeat as often as the fast
// one needs to fill its second. Latencies accumulate across repeats.
constexpr double kMinSearchMs = 1000.0;

// A bound on the switch-aware repeats per round, should a first round
// read a near-zero switch-aware time.
constexpr int kMaxRepeatsPerRound = 1000;

core::RaqoPlannerOptions ColdOptions(core::ResourceSearch search) {
  core::RaqoPlannerOptions options;
  options.algorithm = core::PlannerAlgorithm::kSelinger;
  options.evaluator.use_cache = false;
  options.evaluator.search = search;
  return options;
}

struct SearchRun {
  int repeats = 0;
  double total_wall_ms = 0.0;
  int64_t configs_explored = 0;  ///< of the first repeat
  int64_t resource_searches = 0;  ///< of the first repeat
  /// Candidates the DP skipped in the first repeat.
  int64_t candidates_skipped = 0;
  std::vector<double> query_wall_ms;
  // Reports of the final repeat, for the plan-identity check.
  core::WorkloadReport last_report;
};

bool SamePlans(const core::WorkloadReport& a, const core::WorkloadReport& b) {
  if (a.queries.size() != b.queries.size()) return false;
  for (size_t i = 0; i < a.queries.size(); ++i) {
    if (a.queries[i].plan != b.queries[i].plan) return false;
    if (a.queries[i].cost.seconds != b.queries[i].cost.seconds) return false;
    if (a.queries[i].cost.dollars != b.queries[i].cost.dollars) return false;
    if (a.queries[i].join_resources != b.queries[i].join_resources) {
      return false;
    }
  }
  return true;
}

/// Plans `workload` once more with `search` on a fresh planner, adding
/// the repeat to `run`.
void RunRepeat(const catalog::Catalog& cat, const cost::JoinCostModels& models,
               const resource::ClusterConditions& cluster,
               const std::vector<core::WorkloadQuery>& workload,
               core::ResourceSearch search, SearchRun* run) {
  static obs::Counter* skipped =
      obs::DefaultMetrics().GetCounter("planner.selinger.skipped");
  static obs::Counter* searches =
      obs::DefaultMetrics().GetCounter("planner.resource.searches");
  core::RaqoPlanner planner(&cat, models, cluster, resource::PricingModel(),
                            ColdOptions(search));
  core::WorkloadRunner runner(&planner);
  const int64_t skipped_before = skipped->Value();
  const int64_t searches_before = searches->Value();
  Result<core::WorkloadReport> report = runner.Run(workload);
  RAQO_CHECK(report.ok()) << report.status().ToString();
  const bool first = run->repeats++ == 0;
  if (first) {
    run->candidates_skipped = skipped->Value() - skipped_before;
    run->resource_searches = searches->Value() - searches_before;
  }
  run->total_wall_ms += report->wall_clock_ms;
  for (const core::QueryRunReport& query : report->queries) {
    run->query_wall_ms.push_back(query.wall_ms);
    if (first) run->configs_explored += query.resource_configs_explored;
  }
  run->last_report = *std::move(report);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace raqo;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const cost::JoinCostModels models =
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive());
  const resource::ClusterConditions cluster =
      resource::ClusterConditions::PaperDefault();

  // Suite 1: the paper's TPC-H evaluation queries at scale factor 100.
  catalog::Catalog tpch = catalog::BuildTpchCatalog(100.0);
  std::vector<core::WorkloadQuery> tpch_workload;
  for (catalog::TpchQuery q :
       {catalog::TpchQuery::kQ12, catalog::TpchQuery::kQ3,
        catalog::TpchQuery::kQ2, catalog::TpchQuery::kAll}) {
    core::WorkloadQuery query;
    query.label = catalog::TpchQueryName(q);
    query.tables = *catalog::TpchQueryTables(tpch, q);
    tpch_workload.push_back(std::move(query));
  }

  // Suite 2: random 30-table schema, 32 queries of 4..9 relations.
  catalog::RandomSchemaOptions schema;
  schema.num_tables = 30;
  catalog::Catalog random_cat = *catalog::BuildRandomCatalog(schema);
  Rng rng(7);
  std::vector<core::WorkloadQuery> random_workload;
  for (int i = 0; i < 32; ++i) {
    core::WorkloadQuery query;
    query.label = "r" + std::to_string(i);
    query.tables = *catalog::RandomQueryTables(
        random_cat, static_cast<int>(rng.UniformInt(4, 9)),
        static_cast<uint64_t>(500 + i));
    random_workload.push_back(std::move(query));
  }

  bench::Section(
      "Cold plan latency: exhaustive vs switch-aware resource search "
      "(no cache, paper-default 10x100 grid)");

  struct Suite {
    const char* name;
    const catalog::Catalog* cat;
    const std::vector<core::WorkloadQuery>* workload;
  };
  const Suite suites[] = {{"tpch", &tpch, &tpch_workload},
                          {"random", &random_cat, &random_workload}};

  bench::Table table({"suite", "search", "repeats", "wall (ms)",
                      "ms/repeat", "p50/p95/p99 (ms)", "evals/query",
                      "evals/search", "skipped/query", "speedup",
                      "plans identical"});
  std::string json_suites;
  double worst_speedup = 1e300;
  bool all_identical = true;
  bool all_skipped = true;
  bool all_few_cells = true;

  for (const Suite& suite : suites) {
    SearchRun brute;
    SearchRun incremental;
    auto repeat = [&](core::ResourceSearch search, SearchRun* run) {
      RunRepeat(*suite.cat, models, cluster, *suite.workload, search, run);
    };
    // The first round, one repeat of each, sets the rounds after it.
    repeat(core::ResourceSearch::kBruteForce, &brute);
    repeat(core::ResourceSearch::kSwitchAwareGrid, &incremental);
    const double first_ratio =
        brute.total_wall_ms / std::max(incremental.total_wall_ms, 1e-3);
    const int per_round = static_cast<int>(
        std::clamp(std::round(first_ratio), 1.0,
                   static_cast<double>(kMaxRepeatsPerRound)));
    while (brute.total_wall_ms < kMinSearchMs ||
           incremental.total_wall_ms < kMinSearchMs) {
      repeat(core::ResourceSearch::kBruteForce, &brute);
      for (int i = 0; i < per_round; ++i) {
        repeat(core::ResourceSearch::kSwitchAwareGrid, &incremental);
      }
    }

    const bool identical =
        SamePlans(brute.last_report, incremental.last_report);
    all_identical = all_identical && identical;
    all_skipped = all_skipped && incremental.candidates_skipped > 0;
    all_few_cells =
        all_few_cells && incremental.configs_explored <=
                             kMaxCellsPerSearch * incremental.resource_searches;
    const double brute_ms = brute.total_wall_ms / brute.repeats;
    const double incremental_ms =
        incremental.total_wall_ms / incremental.repeats;
    const double speedup =
        incremental_ms > 0.0 ? brute_ms / incremental_ms : 1.0;
    worst_speedup = std::min(worst_speedup, speedup);

    const bench::LatencyStats brute_lat =
        bench::SummarizeLatencies(brute.query_wall_ms);
    const bench::LatencyStats inc_lat =
        bench::SummarizeLatencies(incremental.query_wall_ms);
    const double queries = static_cast<double>(suite.workload->size());
    auto per_search = [](const SearchRun& run) {
      return bench::Num(static_cast<double>(run.configs_explored) /
                            static_cast<double>(
                                std::max<int64_t>(run.resource_searches, 1)),
                        "%.1f");
    };
    table.AddRow({suite.name, "brute-force", bench::Int(brute.repeats),
                  bench::Num(brute.total_wall_ms, "%.1f"),
                  bench::Num(brute_ms, "%.2f"),
                  StrPrintf("%.2f/%.2f/%.2f", brute_lat.p50, brute_lat.p95,
                            brute_lat.p99),
                  bench::Num(static_cast<double>(brute.configs_explored) /
                                 queries,
                             "%.0f"),
                  per_search(brute),
                  bench::Num(static_cast<double>(brute.candidates_skipped) /
                                 queries,
                             "%.1f"),
                  bench::Num(1.0, "%.2fx"), "-"});
    table.AddRow({suite.name, "switch-aware-grid",
                  bench::Int(incremental.repeats),
                  bench::Num(incremental.total_wall_ms, "%.1f"),
                  bench::Num(incremental_ms, "%.2f"),
                  StrPrintf("%.2f/%.2f/%.2f", inc_lat.p50, inc_lat.p95,
                            inc_lat.p99),
                  bench::Num(
                      static_cast<double>(incremental.configs_explored) /
                          queries,
                      "%.0f"),
                  per_search(incremental),
                  bench::Num(
                      static_cast<double>(incremental.candidates_skipped) /
                          queries,
                      "%.1f"),
                  bench::Num(speedup, "%.2fx"), identical ? "yes" : "NO"});

    if (!json_suites.empty()) json_suites += ", ";
    json_suites += StrPrintf(
        "{\"suite\": \"%s\", \"queries\": %zu, "
        "\"brute_force\": {\"repeats\": %d, \"wall_ms\": %s, %s, "
        "\"configs_explored\": %lld, \"resource_searches\": %lld, "
        "\"candidates_skipped\": %lld}, "
        "\"switch_aware\": {\"repeats\": %d, \"wall_ms\": %s, %s, "
        "\"configs_explored\": %lld, \"resource_searches\": %lld, "
        "\"candidates_skipped\": %lld}, "
        "\"speedup\": %s, \"plans_identical\": %s}",
        suite.name, suite.workload->size(), brute.repeats,
        JsonNumber(brute.total_wall_ms).c_str(),
        bench::LatencyJsonFields(brute_lat, "ms").c_str(),
        (long long)brute.configs_explored,
        (long long)brute.resource_searches,
        (long long)brute.candidates_skipped, incremental.repeats,
        JsonNumber(incremental.total_wall_ms).c_str(),
        bench::LatencyJsonFields(inc_lat, "ms").c_str(),
        (long long)incremental.configs_explored,
        (long long)incremental.resource_searches,
        (long long)incremental.candidates_skipped,
        JsonNumber(speedup).c_str(), identical ? "true" : "false");
  }
  table.Print();

  const std::string json = StrPrintf(
      "{\"bench\": \"cold_plan_latency\", \"speedup_floor\": %s, "
      "\"worst_speedup\": %s, \"plans_identical\": %s, \"suites\": [%s]}\n",
      JsonNumber(kSpeedupFloor).c_str(), JsonNumber(worst_speedup).c_str(),
      all_identical ? "true" : "false", json_suites.c_str());
  if (Status written = WriteTextFile("BENCH_cold_plan.json", json);
      !written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_cold_plan.json\n");

  if (smoke) {
    bool ok = true;
    if (!all_identical) {
      std::fprintf(stderr,
                   "SMOKE FAIL: switch-aware search returned different "
                   "plans — the exhaustive-equivalence contract broke\n");
      ok = false;
    }
    if (!all_skipped) {
      std::fprintf(stderr,
                   "SMOKE FAIL: the switch-aware search skipped no "
                   "candidate in some suite — the DP no longer gets "
                   "the evaluator's bounds\n");
      ok = false;
    }
    if (!all_few_cells) {
      std::fprintf(stderr,
                   "SMOKE FAIL: the switch-aware search evaluated more "
                   "than %lld cells per resource search in some suite — "
                   "its seed or its bounds regressed\n",
                   (long long)kMaxCellsPerSearch);
      ok = false;
    }
    if (worst_speedup < kSpeedupFloor) {
      std::fprintf(stderr,
                   "SMOKE FAIL: cold speedup %.2fx is below the %.2fx "
                   "floor — pruning, seeding or best-first costing "
                   "regressed\n",
                   worst_speedup, kSpeedupFloor);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("smoke: cold-latency gates passed (worst %.2fx, plans "
                "identical, at most %lld cells per search, candidates "
                "skipped)\n",
                worst_speedup, (long long)kMaxCellsPerSearch);
  }
  return 0;
}
