// Overhead budget of the observability layer. The instrumentation is
// compiled into every planner hot path, so its *disabled* cost is the
// one that matters: with tracing off and metrics off the gates must be
// invisible, and the default configuration (metrics on, tracing off)
// must stay within 5% of fully dark planning. The bench plans a TPC-H
// workload in alternating metrics-off and metrics-on passes and gates
// on the median of the per-pair time ratios: a pair's two passes run
// back to back, so machine drift between pairs cancels, and the median
// ignores the pairs a noisy neighbour disturbs. It also prints the
// tracing level and the per-call cost of the disabled primitives, and
// exits non-zero when the 5% budget is blown, so CI can run it as a
// regression gate.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "catalog/tpch.h"
#include "common/stopwatch.h"
#include "core/raqo_planner.h"
#include "core/workload_runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/profile_runner.h"

namespace raqo {
namespace {

std::vector<core::WorkloadQuery> TpchWorkload(
    const catalog::Catalog& catalog) {
  std::vector<core::WorkloadQuery> workload;
  for (catalog::TpchQuery q :
       {catalog::TpchQuery::kQ12, catalog::TpchQuery::kQ3,
        catalog::TpchQuery::kQ2, catalog::TpchQuery::kAll}) {
    core::WorkloadQuery query;
    query.label = catalog::TpchQueryName(q);
    query.tables = *catalog::TpchQueryTables(catalog, q);
    workload.push_back(std::move(query));
  }
  return workload;
}

/// One full planning pass over the workload; returns wall millis.
double PlanOnce(core::RaqoPlanner& planner,
                const std::vector<core::WorkloadQuery>& workload) {
  core::WorkloadRunner runner(&planner);
  Stopwatch watch;
  Result<core::WorkloadReport> report = runner.Run(workload);
  const double ms = watch.ElapsedMillis();
  RAQO_CHECK(report.ok()) << report.status().ToString();
  return ms;
}

/// Plans the workload once at the given observability level; returns
/// wall millis.
double PassAt(bool metrics, bool tracing, core::RaqoPlanner& planner,
              const std::vector<core::WorkloadQuery>& workload) {
  obs::DefaultMetrics().set_enabled(metrics);
  obs::DefaultTracer().set_enabled(tracing);
  obs::DefaultTracer().Clear();
  return PlanOnce(planner, workload);
}

/// The median of `values` (which it reorders).
double Median(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Keeps the compiler from deleting a measured loop.
template <typename T>
void Sink(T&& value) {
  volatile auto v = value;
  (void)v;
}

}  // namespace
}  // namespace raqo

int main() {
  using namespace raqo;

  catalog::Catalog catalog = catalog::BuildTpchCatalog(100.0);
  Result<cost::JoinCostModels> models =
      sim::TrainModelsFromSimulator(sim::EngineProfile::Hive());
  RAQO_CHECK(models.ok()) << models.status().ToString();
  const std::vector<core::WorkloadQuery> workload = TpchWorkload(catalog);

  core::RaqoPlannerOptions options;
  options.algorithm = core::PlannerAlgorithm::kSelinger;
  options.evaluator.use_cache = true;
  options.evaluator.cache_mode = core::CacheLookupMode::kExact;
  core::RaqoPlanner planner(&catalog, *models,
                            resource::ClusterConditions::PaperDefault(),
                            resource::PricingModel(), options);

  // Metrics-off and metrics-on passes alternate, each pair in the other
  // order from the last, so neither level always runs first.
  constexpr int kPairs = 150;
  constexpr int kTracedPasses = 15;
  PassAt(false, false, planner, workload);  // warmup: caches, predictors
  PassAt(true, false, planner, workload);
  std::vector<double> off_ms;
  std::vector<double> on_ms;
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double off = 0.0;
    double on = 0.0;
    if (pair % 2 == 0) {
      off = PassAt(false, false, planner, workload);
      on = PassAt(true, false, planner, workload);
    } else {
      on = PassAt(true, false, planner, workload);
      off = PassAt(false, false, planner, workload);
    }
    off_ms.push_back(off);
    on_ms.push_back(on);
    ratios.push_back(on / off);
  }
  std::vector<double> traced_ms;
  for (int pass = 0; pass < kTracedPasses; ++pass) {
    traced_ms.push_back(PassAt(true, true, planner, workload));
  }
  obs::DefaultMetrics().set_enabled(true);  // restore defaults
  obs::DefaultTracer().set_enabled(false);
  obs::DefaultTracer().Clear();

  bench::Section("planning a TPC-H workload at each observability level");
  bench::Table table({"configuration", "passes", "median ms", "vs baseline"});
  const double baseline = Median(off_ms);
  const double metered = Median(on_ms);
  const double traced = Median(traced_ms);
  table.AddRow({"all off (baseline)", std::to_string(kPairs),
                bench::Num(baseline, "%.3f"), "-"});
  table.AddRow({"metrics on (default)", std::to_string(kPairs),
                bench::Num(metered, "%.3f"),
                bench::Num(100.0 * (metered / baseline - 1.0), "%+.1f%%")});
  table.AddRow({"metrics + tracing on", std::to_string(kTracedPasses),
                bench::Num(traced, "%.3f"),
                bench::Num(100.0 * (traced / baseline - 1.0), "%+.1f%%")});
  table.Print();

  // Disabled-primitive costs: what every instrumentation site pays when
  // the layer is off.
  bench::Section("disabled-path primitives (per call)");
  constexpr int64_t kIters = 2'000'000;
  bench::Table prim({"primitive", "ns/call"});
  {
    obs::DefaultTracer().set_enabled(false);
    Stopwatch watch;
    int64_t live = 0;
    for (int64_t i = 0; i < kIters; ++i) {
      obs::Span span = obs::DefaultTracer().StartSpan("off");
      live += span.recording() ? 1 : 0;
    }
    Sink(live);
    prim.AddRow({"StartSpan, tracing off",
                 bench::Num(watch.ElapsedMicros() * 1e3 / kIters, "%.2f")});
  }
  {
    obs::DefaultMetrics().set_enabled(false);
    static obs::Counter* counter =
        obs::DefaultMetrics().GetCounter("bench.gate");
    Stopwatch watch;
    int64_t live = 0;
    for (int64_t i = 0; i < kIters; ++i) {
      if (obs::MetricsOn()) counter->Add(1);
      live += i;
    }
    Sink(live);
    prim.AddRow({"counter site, metrics off",
                 bench::Num(watch.ElapsedMicros() * 1e3 / kIters, "%.2f")});
    obs::DefaultMetrics().set_enabled(true);
  }
  {
    static obs::Counter* counter =
        obs::DefaultMetrics().GetCounter("bench.hot");
    Stopwatch watch;
    for (int64_t i = 0; i < kIters; ++i) {
      if (obs::MetricsOn()) counter->Add(1);
    }
    prim.AddRow({"counter site, metrics on",
                 bench::Num(watch.ElapsedMicros() * 1e3 / kIters, "%.2f")});
    Sink(counter->Value());
  }
  {
    static obs::Histogram* histogram =
        obs::DefaultMetrics().GetHistogram("bench.hist");
    Stopwatch watch;
    for (int64_t i = 0; i < kIters; ++i) {
      histogram->Record(static_cast<double>(i % 1000));
    }
    prim.AddRow({"histogram Record, metrics on",
                 bench::Num(watch.ElapsedMicros() * 1e3 / kIters, "%.2f")});
    Sink(histogram->Count());
  }
  prim.Print();

  // The regression gate: the default configuration (metrics on, tracing
  // compiled in but disabled) must cost less than 5% over fully dark, by
  // the median of the back-to-back pair ratios.
  std::vector<double> sorted = ratios;
  std::sort(sorted.begin(), sorted.end());
  const double overhead = Median(ratios) - 1.0;
  std::printf(
      "\ndefault-configuration overhead: %+.2f%% (median of %d pair "
      "ratios; quartiles %+.2f%% / %+.2f%%; budget 5%%)\n",
      overhead * 100.0, kPairs, (sorted[kPairs / 4] - 1.0) * 100.0,
      (sorted[3 * kPairs / 4] - 1.0) * 100.0);
  if (overhead >= 0.05) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.2f%% exceeds the 5%% "
                 "budget\n",
                 overhead * 100.0);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
