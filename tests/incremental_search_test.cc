// The switch-aware incremental grid search is only allowed to be fast:
// its contract is bit-identical results — winner, cost, tie-break,
// feasibility failures — to the exhaustive brute force, under every
// combination of acceleration hints, grid shape, block size, and cost
// model. These tests hold it to that, and keep the rejection paths
// honest (non-monotone models must fall back to the exhaustive sweep,
// never to an unsound prune).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "catalog/random_schema.h"
#include "catalog/tpch.h"
#include "common/rng.h"
#include "core/grid_sweep.h"
#include "core/raqo_cost_evaluator.h"
#include "core/raqo_planner.h"
#include "core/resource_planner.h"
#include "core/workload_runner.h"
#include "cost/cost_model.h"
#include "cost/features.h"
#include "cost/model_bounds.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/cost_evaluator.h"
#include "optimizer/selinger.h"
#include "resource/cluster_conditions.h"
#include "sim/profile_runner.h"

namespace raqo {
namespace {

using catalog::TableId;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Trained once; several tests share them (training is the slow part).
const cost::JoinCostModels& HiveModels() {
  static const cost::JoinCostModels* models = new cost::JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  return *models;
}

// ---------------------------------------------------------------------
// Direct planner level: synthetic cost surfaces over random grids.
//
// The surface is a clamped, quantized linear form: the clamp and the
// quantization create the equal-cost plateaus that make the row-major
// tie-break observable, and a deterministic per-cell hash sprinkles in
// infeasible cells. The box bound follows SecondsLowerBound's corner
// argument on the same expression, so it is sound by construction.

struct SyntheticSurface {
  double w_cs = 0.0;
  double w_nc = 0.0;
  double w_cross = 0.0;
  double intercept = 0.0;
  double clamp_floor = 0.05;
  /// Feasibility cap on total memory; +inf disables it.
  double memory_cap = kInf;
  /// Probability (driven by a per-cell hash) that a cell is infeasible.
  uint32_t infeasible_one_in = 0;  // 0 = never

  static double Quantize(double x) { return std::floor(x * 4.0) / 4.0; }

  static uint64_t CellHash(double cs, double nc) {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    uint64_t a;
    static_assert(sizeof(a) == sizeof(cs), "");
    std::memcpy(&a, &cs, sizeof(a));
    h ^= a + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    std::memcpy(&a, &nc, sizeof(a));
    h ^= a + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  }

  double Linear(double cs, double nc) const {
    return intercept + w_cs * cs + w_nc * nc + w_cross * (cs * nc);
  }

  double Cost(const resource::ResourceConfig& r) const {
    const double cs = r.container_size_gb();
    const double nc = r.num_containers();
    if (cs * nc > memory_cap) return kInf;
    if (infeasible_one_in != 0 &&
        CellHash(cs, nc) % infeasible_one_in == 0) {
      return kInf;
    }
    return Quantize(std::max(Linear(cs, nc), clamp_floor));
  }

  /// Sound bound: per-term corner minima of the same linear form, run
  /// through the same monotone clamp+quantization. Feasibility never
  /// weakens it (infeasible cells cost +inf >= anything).
  double BoxBound(const resource::ResourceConfig& lo,
                  const resource::ResourceConfig& hi) const {
    const double cs_c[2] = {lo.container_size_gb(), hi.container_size_gb()};
    const double nc_c[2] = {lo.num_containers(), hi.num_containers()};
    double sum = intercept;
    double term_min = kInf;
    for (double cs : cs_c) term_min = std::min(term_min, w_cs * cs);
    sum += term_min;
    term_min = kInf;
    for (double nc : nc_c) term_min = std::min(term_min, w_nc * nc);
    sum += term_min;
    term_min = kInf;
    for (double cs : cs_c) {
      for (double nc : nc_c) {
        term_min = std::min(term_min, w_cross * (cs * nc));
      }
    }
    sum += term_min;
    return Quantize(std::max(sum, clamp_floor));
  }
};

resource::ClusterConditions RandomGrid(Rng& rng) {
  // Integer minima/steps keep every grid point exactly representable,
  // so "bit-identical" is meaningful without FP caveats in the test
  // itself (the planner's arithmetic is identical either way).
  const double cs_min = static_cast<double>(rng.UniformInt(1, 3));
  const double cs_step = static_cast<double>(rng.UniformInt(1, 2));
  const double nc_min = static_cast<double>(rng.UniformInt(1, 5));
  const double nc_step = static_cast<double>(rng.UniformInt(1, 3));
  const double cs_max =
      cs_min + cs_step * static_cast<double>(rng.UniformInt(0, 13));
  const double nc_max =
      nc_min + nc_step * static_cast<double>(rng.UniformInt(0, 59));
  return *resource::ClusterConditions::Create(
      resource::ResourceConfig(cs_min, nc_min),
      resource::ResourceConfig(cs_max, nc_max),
      resource::ResourceConfig(cs_step, nc_step));
}

SyntheticSurface RandomSurface(Rng& rng) {
  SyntheticSurface s;
  s.w_cs = rng.Uniform(-2.0, 2.0);
  s.w_nc = rng.Uniform(-0.5, 0.5);
  s.w_cross = rng.Uniform(-0.05, 0.05);
  s.intercept = rng.Uniform(0.0, 10.0);
  // A third of the surfaces clamp aggressively => broad plateaus where
  // only the rank tie-break distinguishes winners.
  if (rng.Bernoulli(0.33)) s.clamp_floor = rng.Uniform(2.0, 8.0);
  if (rng.Bernoulli(0.3)) s.memory_cap = rng.Uniform(20.0, 200.0);
  if (rng.Bernoulli(0.25)) {
    s.infeasible_one_in = static_cast<uint32_t>(rng.UniformInt(2, 9));
  }
  return s;
}

void ExpectSameOutcome(
    const Result<core::ResourcePlanResult>& expected,
    const Result<core::ResourcePlanResult>& actual,
    const std::string& what) {
  ASSERT_EQ(expected.ok(), actual.ok())
      << what << ": feasibility verdicts differ";
  if (!expected.ok()) return;
  EXPECT_TRUE(expected->config == actual->config)
      << what << ": " << expected->config.ToString() << " vs "
      << actual->config.ToString();
  // Bit-identical cost, not approximately equal.
  EXPECT_EQ(expected->cost, actual->cost) << what;
}

class SeededIncrementalSearchTest
    : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededIncrementalSearchTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

/// The synthetic surface as a sweep objective: each cell priced on its
/// own, each box bounded through BoxBound unless `has_bound` is off,
/// when every box declines to bound (-inf). `declining` makes some
/// boxes decline.
struct SurfaceObjective {
  const SyntheticSurface& surface;
  const core::GridGeometry& g;
  bool has_bound = false;
  bool declining = false;

  void Cells(int64_t i, int64_t j0, int64_t j1, double* out) const {
    for (int64_t j = j0; j < j1; ++j) out[j - j0] = surface.Cost(g.CellAt(i, j));
  }
  void RowBounds(double* out) const {
    for (int64_t i = 0; i < g.cs_points; ++i) {
      out[i] = Bound(i, 0, g.nc_points);
    }
  }
  void BlockBounds(int64_t i, int64_t block_cells, double* out) const {
    for (int64_t j0 = 0; j0 < g.nc_points; j0 += block_cells) {
      out[j0 / block_cells] =
          Bound(i, j0, std::min(j0 + block_cells, g.nc_points));
    }
  }
  double Bound(int64_t i, int64_t j0, int64_t j1) const {
    const resource::ResourceConfig lo = g.CellAt(i, j0);
    if (!has_bound) return -kInf;
    if (declining &&
        SyntheticSurface::CellHash(lo.container_size_gb(),
                                   lo.num_containers()) %
                3 ==
            0) {
      return -kInf;
    }
    return surface.BoxBound(lo, g.CellAt(i, j1 - 1));
  }
};

TEST_P(SeededIncrementalSearchTest,
       MatchesBruteForceUnderEveryHintCombination) {
  Rng rng(GetParam() * 977 + 13);
  core::BruteForceResourcePlanner brute;
  std::optional<resource::ResourceConfig> previous_best;

  for (int trial = 0; trial < 25; ++trial) {
    const resource::ClusterConditions grid = RandomGrid(rng);
    const SyntheticSurface surface = RandomSurface(rng);
    const core::ResourceCostFn cost =
        [&surface](const resource::ResourceConfig& r) {
          return surface.Cost(r);
        };
    const int64_t block_cells = rng.UniformInt(1, 40);

    const Result<core::ResourcePlanResult> expected =
        brute.PlanResources(cost, grid);

    // Bounds and warm starts are pure accelerators: every combination
    // must reproduce the exhaustive result exactly.
    const core::GridGeometry g(grid);
    std::optional<resource::ResourceConfig> warm = previous_best;
    if (rng.Bernoulli(0.3)) {
      // Off-grid / stale warm starts must be snapped, never trusted.
      warm = resource::ResourceConfig(rng.Uniform(0.0, 40.0),
                                      rng.Uniform(0.0, 300.0));
    }
    // A bound may also decline ("no bound for this box"): -inf disables
    // pruning there and must change nothing.
    const bool declining = rng.Bernoulli(0.2);
    struct Combo {
      const char* name;
      bool bounded;
      bool warm;
      bool declining;
    };
    const Combo combos[4] = {{"no hints", false, false, false},
                             {"bound only", true, false, false},
                             {"warm only", false, true, false},
                             {"bound+warm", true, true, declining}};
    for (const Combo& c : combos) {
      const SurfaceObjective objective{surface, g, c.bounded, c.declining};
      const Result<core::ResourcePlanResult> got = core::SweepGrid(
          objective, g,
          c.warm ? warm : std::optional<resource::ResourceConfig>(),
          block_cells);
      ExpectSameOutcome(expected, got,
                        std::string(c.name) + " @trial " +
                            std::to_string(trial));
      if (expected.ok()) {
        // The warm-start cell may be re-costed once on top of the sweep
        // (the honest-counter contract), hence the +1 slack.
        EXPECT_LE(got->configs_explored, expected->configs_explored + 1)
            << c.name;
      }
    }
    if (expected.ok()) previous_best = expected->config;
  }
}

// ---------------------------------------------------------------------
// Corner bounds: sound on every feature set declared monotone, refused
// on the probe set built to defeat them. The planner trusts the trend
// declarations (cost::FeatureResourceTrends) without checking them per
// request, so a wrong one must fail here.

#pragma GCC diagnostic push
#pragma GCC diagnostic error "-Wswitch"
// Every FeatureSet value. A value added to the enum without a case here
// does not compile, and every value with a case is returned, so a test
// over this list cannot skip a set.
std::vector<cost::FeatureSet> AllFeatureSets() {
  std::vector<cost::FeatureSet> sets;
  for (int k = 0; k < 256; ++k) {
    const auto set = static_cast<cost::FeatureSet>(k);
    switch (set) {
      case cost::FeatureSet::kPaper:
      case cost::FeatureSet::kExtended:
      case cost::FeatureSet::kPeakedProbe:
        sets.push_back(set);
        break;
    }
  }
  return sets;
}
#pragma GCC diagnostic pop

/// Whether a feature that reads `before` at one resource value and
/// `after` at a larger one, the other inputs fixed, moves as `trend`
/// declares (weakly). No feature of a monotone set is kNonMonotone.
bool Follows(cost::FeatureTrend trend, double before, double after) {
  switch (trend) {
    case cost::FeatureTrend::kConstant:
      return after == before;
    case cost::FeatureTrend::kIncreasing:
      return after >= before;
    case cost::FeatureTrend::kDecreasing:
      return after <= before;
    case cost::FeatureTrend::kNonMonotone:
      break;
  }
  return false;
}

TEST(ResourceBoundOracleTest, BoundNeverExceedsPrediction) {
  Rng rng(99);
  auto expect_bound_holds = [&](const cost::OperatorCostModel& model,
                                const cost::JoinFeatures& data,
                                const resource::ResourceConfig& lo,
                                const resource::ResourceConfig& hi) {
    const double bound = cost::SecondsLowerBound(model, data, lo, hi);
    // Probe interior points as well as corners.
    for (double fc : {0.0, 0.37, 0.5, 1.0}) {
      for (double fn : {0.0, 0.5, 0.61, 1.0}) {
        cost::JoinFeatures probe = data;
        probe.container_size_gb =
            lo.container_size_gb() +
            fc * (hi.container_size_gb() - lo.container_size_gb());
        probe.num_containers =
            lo.num_containers() +
            fn * (hi.num_containers() - lo.num_containers());
        ASSERT_LE(bound, model.PredictSeconds(probe))
            << model.name() << " ss " << data.smaller_gb << " ls "
            << data.larger_gb << " cs " << probe.container_size_gb
            << " nc " << probe.num_containers;
      }
    }
  };

  // The trained and the published models, on random boxes.
  static const cost::JoinCostModels paper = cost::PaperHiveModels();
  for (const cost::OperatorCostModel* model :
       {&HiveModels().smj, &HiveModels().bhj, &paper.smj, &paper.bhj}) {
    ASSERT_TRUE(cost::ResourceBoundsSound(*model)) << model->name();
    for (int trial = 0; trial < 400; ++trial) {
      cost::JoinFeatures data;
      data.smaller_gb = rng.Uniform(0.0, 300.0);
      data.larger_gb = data.smaller_gb + rng.Uniform(0.0, 300.0);
      const double cs_lo = rng.Uniform(0.5, 10.0);
      const double nc_lo = rng.Uniform(1.0, 100.0);
      expect_bound_holds(
          *model, data, resource::ResourceConfig(cs_lo, nc_lo),
          resource::ResourceConfig(cs_lo + rng.Uniform(0.0, 10.0),
                                   nc_lo + rng.Uniform(0.0, 100.0)));
      if (HasFatalFailure()) return;
    }
  }

  // Every set declared monotone: each feature moves along each resource
  // dimension as declared, and models with random-sign weights keep
  // their bounds, at data sizes from empty to 250 GB.
  static constexpr double kDataGb[] = {0.0, 0.4, 7.7, 250.0};
  static constexpr double kCs[] = {0.5, 1.0, 2.5, 4.0, 7.0, 10.0, 14.0, 40.0};
  static constexpr double kNc[] = {1.0, 2.0, 10.0, 33.0, 100.0, 1000.0};
  constexpr size_t kCsPoints = std::size(kCs);
  constexpr size_t kNcPoints = std::size(kNc);
  int monotone_sets = 0;
  for (const cost::FeatureSet set : AllFeatureSets()) {
    if (!cost::FeatureSetResourceMonotone(set)) continue;
    ++monotone_sets;
    const std::vector<cost::FeatureResourceTrend>& trends =
        cost::FeatureResourceTrends(set);
    const size_t n = cost::NumFeatures(set);
    ASSERT_EQ(trends.size(), n);
    for (double ss : kDataGb) {
      for (double ls : kDataGb) {
        if (ls < ss) continue;
        cost::JoinFeatures data;
        data.smaller_gb = ss;
        data.larger_gb = ls;
        auto features_at = [&](double cs, double nc) {
          cost::JoinFeatures f = data;
          f.container_size_gb = cs;
          f.num_containers = nc;
          return cost::ExpandFeatures(f, set);
        };
        for (size_t a = 0; a < kCsPoints; ++a) {
          for (size_t b = 0; b < kNcPoints; ++b) {
            const std::vector<double> here = features_at(kCs[a], kNc[b]);
            for (size_t k = 0; k < n; ++k) {
              const std::string what = cost::FeatureNames(set)[k] +
                                       " at ss " + std::to_string(ss) +
                                       " ls " + std::to_string(ls);
              if (a + 1 < kCsPoints) {
                ASSERT_TRUE(Follows(trends[k].container_size, here[k],
                                    features_at(kCs[a + 1], kNc[b])[k]))
                    << what << ", cs " << kCs[a] << " -> " << kCs[a + 1];
              }
              if (b + 1 < kNcPoints) {
                ASSERT_TRUE(Follows(trends[k].num_containers, here[k],
                                    features_at(kCs[a], kNc[b + 1])[k]))
                    << what << ", nc " << kNc[b] << " -> " << kNc[b + 1];
              }
            }
          }
        }

        for (int trial = 0; trial < 40; ++trial) {
          // Weights of either sign over six decades; half the models
          // carry an intercept large enough that no prediction clamps.
          LinearModel lm;
          for (size_t k = 0; k < n; ++k) {
            lm.weights.push_back((rng.Bernoulli(0.5) ? 1.0 : -1.0) *
                                 std::pow(10.0, rng.Uniform(-3.0, 3.0)));
          }
          lm.has_intercept = trial % 2 == 0;
          if (lm.has_intercept) lm.weights.push_back(1e10);
          const cost::OperatorCostModel model("random-signs", lm, set);
          ASSERT_TRUE(cost::ResourceBoundsSound(model));
          const int64_t a0 = rng.UniformInt(0, kCsPoints - 1);
          const int64_t a1 = rng.UniformInt(a0, kCsPoints - 1);
          const int64_t b0 = rng.UniformInt(0, kNcPoints - 1);
          const int64_t b1 = rng.UniformInt(b0, kNcPoints - 1);
          expect_bound_holds(model, data,
                             resource::ResourceConfig(kCs[a0], kNc[b0]),
                             resource::ResourceConfig(kCs[a1], kNc[b1]));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  // At least kPaper and kExtended.
  EXPECT_GE(monotone_sets, 2);
}

cost::JoinCostModels PeakedModels() {
  // kPeakedProbe = [ss, cs*(14-cs), nc]: the middle feature peaks at
  // cs = 7, inside the paper grid, so no corner bound is sound.
  LinearModel lm;
  lm.weights = {0.5, 0.2, 0.01};
  lm.has_intercept = false;
  return cost::JoinCostModels{
      cost::OperatorCostModel("smj-peaked", lm, cost::FeatureSet::kPeakedProbe),
      cost::OperatorCostModel("bhj-peaked", lm,
                              cost::FeatureSet::kPeakedProbe)};
}

TEST(ResourceBoundOracleTest, RejectsNonMonotoneFeatureSet) {
  EXPECT_FALSE(cost::FeatureSetResourceMonotone(cost::FeatureSet::kPeakedProbe));
  EXPECT_FALSE(cost::ResourceBoundsSound(PeakedModels().smj));

  // A monotone set with a weight that is not finite has no sound bound
  // either: the switch-aware evaluator searches that model by brute force
  // and still sweeps the other one with bounds.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    cost::JoinCostModels models = HiveModels();
    ASSERT_EQ(models.smj.feature_set(), cost::FeatureSet::kExtended);
    LinearModel lm = models.smj.model();
    lm.weights[2] = bad;
    models.smj = cost::OperatorCostModel("smj-not-finite", lm,
                                         cost::FeatureSet::kExtended);
    EXPECT_FALSE(cost::ResourceBoundsSound(models.smj)) << bad;
    const core::RaqoCostEvaluator eval(
        models, resource::ClusterConditions::PaperDefault());
    EXPECT_EQ(eval.model_search(plan::JoinImpl::kSortMergeJoin),
              core::RaqoCostEvaluator::ModelSearch::kPlanner)
        << bad;
    EXPECT_EQ(eval.model_search(plan::JoinImpl::kBroadcastHashJoin),
              core::RaqoCostEvaluator::ModelSearch::kBoundedSweep)
        << bad;
  }
}

TEST(SwitchAwareEvaluatorTest, NonMonotoneModelFallsBackToExhaustive) {
  const resource::ClusterConditions cluster =
      resource::ClusterConditions::PaperDefault();
  catalog::RandomSchemaOptions schema;
  schema.num_tables = 8;
  schema.seed = 4242;
  catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
  const std::vector<TableId> tables =
      *catalog::RandomQueryTables(cat, 6, 17);

  obs::Counter* rejected = obs::DefaultMetrics().GetCounter(
      "planner.resource.monotonicity_rejected");
  const int64_t rejected_before = rejected->Value();

  core::RaqoEvaluatorOptions switch_options;
  switch_options.search = core::ResourceSearch::kSwitchAwareGrid;
  core::RaqoCostEvaluator switch_eval(PeakedModels(), cluster,
                                      resource::PricingModel(),
                                      switch_options);
  // Both models rejected when the evaluator is built: one counter bump
  // each, and both are searched by the brute force.
  EXPECT_EQ(rejected->Value(), rejected_before + 2);
  EXPECT_EQ(switch_eval.model_search(plan::JoinImpl::kSortMergeJoin),
            core::RaqoCostEvaluator::ModelSearch::kPlanner);
  EXPECT_EQ(switch_eval.model_search(plan::JoinImpl::kBroadcastHashJoin),
            core::RaqoCostEvaluator::ModelSearch::kPlanner);

  core::RaqoEvaluatorOptions brute_options;
  brute_options.search = core::ResourceSearch::kBruteForce;
  core::RaqoCostEvaluator brute_eval(PeakedModels(), cluster,
                                     resource::PricingModel(),
                                     brute_options);

  // ... and planning agrees exactly with the exhaustive search (the
  // fallback is the exhaustive search itself, never a blind prune).
  optimizer::SelingerPlanner planner;
  const Result<optimizer::PlannedQuery> via_switch =
      planner.Plan(cat, tables, switch_eval);
  const Result<optimizer::PlannedQuery> via_brute =
      planner.Plan(cat, tables, brute_eval);
  ASSERT_TRUE(via_switch.ok()) << via_switch.status().ToString();
  ASSERT_TRUE(via_brute.ok()) << via_brute.status().ToString();
  // Planning bumps the counter no further.
  EXPECT_EQ(rejected->Value(), rejected_before + 2);
  EXPECT_EQ(via_switch->plan->ToString(), via_brute->plan->ToString());
  EXPECT_EQ(via_switch->cost.seconds, via_brute->cost.seconds);
  EXPECT_EQ(via_switch->cost.dollars, via_brute->cost.dollars);
  // The fallback is the brute force: it explores every cell, as often
  // as kBruteForce does.
  EXPECT_EQ(via_switch->stats.resource_configs_explored,
            via_brute->stats.resource_configs_explored);
}

TEST(SwitchAwareEvaluatorTest, NonSeparableModelSearchesByBruteForce) {
  // kPaper's cs*nc term reads both resource axes, so the term arrays
  // cannot price it: the switch-aware evaluator hands such a model to the
  // brute force, which plans and counts exactly as kBruteForce does.
  ASSERT_FALSE(cost::FeatureSetSeparable(cost::FeatureSet::kPaper));
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  const resource::ClusterConditions cluster =
      resource::ClusterConditions::PaperDefault();
  optimizer::SelingerPlanner planner;
  for (catalog::TpchQuery q :
       {catalog::TpchQuery::kQ3, catalog::TpchQuery::kAll}) {
    const std::vector<TableId> tables = *catalog::TpchQueryTables(cat, q);
    core::RaqoEvaluatorOptions options;
    options.search = core::ResourceSearch::kSwitchAwareGrid;
    core::RaqoCostEvaluator switch_eval(cost::PaperHiveModels(), cluster,
                                        resource::PricingModel(), options);
    options.search = core::ResourceSearch::kBruteForce;
    core::RaqoCostEvaluator brute_eval(cost::PaperHiveModels(), cluster,
                                       resource::PricingModel(), options);
    const Result<optimizer::PlannedQuery> via_switch =
        planner.Plan(cat, tables, switch_eval);
    const Result<optimizer::PlannedQuery> via_brute =
        planner.Plan(cat, tables, brute_eval);
    ASSERT_TRUE(via_switch.ok()) << via_switch.status().ToString();
    ASSERT_TRUE(via_brute.ok()) << via_brute.status().ToString();
    EXPECT_EQ(via_switch->plan->ToString(), via_brute->plan->ToString());
    EXPECT_EQ(via_switch->cost.seconds, via_brute->cost.seconds);
    EXPECT_EQ(via_switch->cost.dollars, via_brute->cost.dollars);
    EXPECT_EQ(via_switch->stats.resource_configs_explored,
              via_brute->stats.resource_configs_explored);
    EXPECT_EQ(switch_eval.model_search(plan::JoinImpl::kSortMergeJoin),
              core::RaqoCostEvaluator::ModelSearch::kPlanner);
  }

  // One traced pass: every resource-search span names the search that
  // ran, the brute force, not the sweep the evaluator was asked for.
  core::RaqoEvaluatorOptions options;
  options.search = core::ResourceSearch::kSwitchAwareGrid;
  core::RaqoCostEvaluator traced(cost::PaperHiveModels(), cluster,
                                 resource::PricingModel(), options);
  const bool tracing_was_on = obs::DefaultTracer().enabled();
  obs::DefaultTracer().Clear();
  obs::DefaultTracer().set_enabled(true);
  const Result<optimizer::PlannedQuery> planned = planner.Plan(
      cat, *catalog::TpchQueryTables(cat, catalog::TpchQuery::kQ3), traced);
  obs::DefaultTracer().set_enabled(tracing_was_on);
  const std::vector<obs::FinishedSpan> spans = obs::DefaultTracer().Snapshot();
  obs::DefaultTracer().Clear();
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  int64_t searches = 0;
  for (const obs::FinishedSpan& span : spans) {
    if (span.name != "planner.resource.grid") continue;
    ++searches;
    std::string strategy;
    for (const obs::SpanAttr& attr : span.attrs) {
      if (attr.key == "strategy") strategy = attr.value;
    }
    EXPECT_EQ(strategy, "brute-force");
  }
  EXPECT_GT(searches, 0);
}

// ---------------------------------------------------------------------
// The term-array objective the evaluator sweeps separable models with
// must price every cell, and bound every box, to the bit of the per-cell
// expressions it replaced: CostVector{PredictSeconds, pricing.Cost}
// .Weighted(tw), and the same expression fed with SecondsLowerBound at
// the box's low corner.

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// A grid with fractional steps on either axis; sometimes with its
/// smallest container size raised onto the grid the way a broadcast
/// join's build side raises it.
resource::ClusterConditions FractionalGrid(Rng& rng, double ss) {
  static constexpr double kSteps[] = {0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
  auto step = [&] { return kSteps[rng.UniformInt(0, 6)]; };
  const double cs_step = step();
  const double nc_step = step();
  const double cs_min = rng.Uniform(0.2, 3.0);
  const double nc_min = rng.Uniform(0.5, 8.0);
  const double cs_max =
      cs_min + cs_step * static_cast<double>(rng.UniformInt(0, 13));
  const double nc_max =
      nc_min + nc_step * static_cast<double>(rng.UniformInt(0, 119));
  resource::ResourceConfig min(cs_min, nc_min);
  const double build_min = ss / optimizer::kBhjCapacityFactor;
  if (rng.Bernoulli(0.3) && build_min > cs_min && build_min <= cs_max) {
    min.set_container_size_gb(std::min(
        cs_min + std::ceil((build_min - cs_min) / cs_step - 1e-9) * cs_step,
        cs_max));
  }
  return *resource::ClusterConditions::Create(
      min, resource::ResourceConfig(cs_max, nc_max),
      resource::ResourceConfig(cs_step, nc_step));
}

/// Data sizes in GB, 0 and 10,000 included.
double DataGb(Rng& rng) {
  switch (rng.UniformInt(0, 5)) {
    case 0:
      return 0.0;
    case 1:
      return 1e4;
    default:
      return std::pow(10.0, rng.Uniform(-3.0, 4.0));
  }
}

TEST_P(SeededIncrementalSearchTest, TermArraysPriceAndBoundBitForBit) {
  Rng rng(GetParam() * 6151 + 29);
  static const cost::JoinCostModels peaked = PeakedModels();
  const cost::OperatorCostModel* models[] = {&HiveModels().smj,
                                             &HiveModels().bhj, &peaked.smj};
  const resource::PricingModel pricing;
  cost::SeparableGridSeconds seconds;
  int64_t cells = 0;
  int64_t boxes = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const cost::OperatorCostModel& model = *models[trial % 3];
    ASSERT_TRUE(cost::FeatureSetSeparable(model.feature_set()));
    const bool sound = cost::ResourceBoundsSound(model);
    double ss = DataGb(rng);
    double ls = DataGb(rng);
    if (ls < ss) std::swap(ss, ls);
    const resource::ClusterConditions grid = FractionalGrid(rng, ss);
    const double tw = trial % 4 == 0   ? 0.0
                      : trial % 4 == 1 ? rng.Uniform(0.0, 1.0)
                                       : 1.0;
    const core::GridGeometry g(grid);
    // Refilled in place, as the evaluator refills it between searches.
    seconds.Fill(model, ss, ls, grid);
    const core::SeparableObjective objective(seconds, pricing, tw);
    const std::string what = model.name() + " trial " + std::to_string(trial);

    std::vector<double> row(static_cast<size_t>(g.nc_points));
    for (int64_t i = 0; i < g.cs_points; ++i) {
      // Whole rows, and runs of random length as the sweep prices them.
      objective.Cells(i, 0, g.nc_points, row.data());
      for (int64_t j0 = 0; j0 < g.nc_points;) {
        const int64_t j1 =
            std::min(g.nc_points, j0 + rng.UniformInt(1, 20));
        double run[20];
        objective.Cells(i, j0, j1, run);
        for (int64_t j = j0; j < j1; ++j) {
          const resource::ResourceConfig cell = g.CellAt(i, j);
          cost::JoinFeatures f;
          f.smaller_gb = ss;
          f.larger_gb = ls;
          f.container_size_gb = cell.container_size_gb();
          f.num_containers = cell.num_containers();
          const double s = model.PredictSeconds(f);
          const double expected =
              cost::CostVector{s, pricing.Cost(cell, s)}.Weighted(tw);
          ASSERT_EQ(Bits(expected), Bits(run[j - j0]))
              << what << " cell (" << i << ", " << j << ")";
          ASSERT_EQ(Bits(expected), Bits(row[j])) << what;
          ++cells;
        }
        j0 = j1;
      }
      if (!sound) continue;

      // Every box the sweep probes: the whole row, and its blocks at a
      // random block size.
      cost::JoinFeatures data;
      data.smaller_gb = ss;
      data.larger_gb = ls;
      auto expected_bound = [&](int64_t j0, int64_t j1) {
        const resource::ResourceConfig lo = g.CellAt(i, j0);
        const double s =
            cost::SecondsLowerBound(model, data, lo, g.CellAt(i, j1 - 1));
        return cost::CostVector{s, pricing.Cost(lo, s)}.Weighted(tw);
      };
      std::vector<double> row_bounds(static_cast<size_t>(g.cs_points));
      objective.RowBounds(row_bounds.data());
      ASSERT_EQ(Bits(expected_bound(0, g.nc_points)), Bits(row_bounds[i]))
          << what << " row " << i;
      const int64_t block_cells = rng.UniformInt(1, 24);
      std::vector<double> block_bounds(
          static_cast<size_t>(seconds.NumBlocks(block_cells)));
      objective.BlockBounds(i, block_cells, block_bounds.data());
      for (int64_t j0 = 0; j0 < g.nc_points; j0 += block_cells) {
        const int64_t j1 = std::min(j0 + block_cells, g.nc_points);
        ASSERT_EQ(Bits(expected_bound(j0, j1)),
                  Bits(block_bounds[j0 / block_cells]))
            << what << " row " << i << " block at " << j0;
        ++boxes;
      }
    }
  }
  EXPECT_GT(cells, 10000);
  EXPECT_GT(boxes, 1000);
}

// ---------------------------------------------------------------------
// Evaluator level: full joint planning on random schemas x random grids
// must be bit-identical between the exhaustive and switch-aware
// searches — plan shape, costs, and every join's resource config.

void ExpectIdenticalJointPlans(const core::JointPlan& expected,
                               const core::JointPlan& actual,
                               const std::string& what) {
  EXPECT_EQ(expected.plan->ToString(), actual.plan->ToString()) << what;
  EXPECT_EQ(expected.cost.seconds, actual.cost.seconds) << what;
  EXPECT_EQ(expected.cost.dollars, actual.cost.dollars) << what;
  std::vector<resource::ResourceConfig> expected_res;
  std::vector<resource::ResourceConfig> actual_res;
  expected.plan->VisitJoins([&](const plan::PlanNode& j) {
    expected_res.push_back(*j.resources());
  });
  actual.plan->VisitJoins([&](const plan::PlanNode& j) {
    actual_res.push_back(*j.resources());
  });
  ASSERT_EQ(expected_res.size(), actual_res.size()) << what;
  for (size_t i = 0; i < expected_res.size(); ++i) {
    EXPECT_TRUE(expected_res[i] == actual_res[i])
        << what << " join " << i << ": " << expected_res[i].ToString()
        << " vs " << actual_res[i].ToString();
  }
}

TEST_P(SeededIncrementalSearchTest,
       JointPlansMatchAcrossRandomSchemasAndGrids) {
  Rng rng(GetParam() * 7919 + 3);
  // 8 seeds x 25 trials = 200 random schema/grid combinations.
  for (int trial = 0; trial < 25; ++trial) {
    catalog::RandomSchemaOptions schema;
    schema.num_tables = 10;
    schema.seed = GetParam() * 1000 + static_cast<uint64_t>(trial);
    catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
    const resource::ClusterConditions grid = RandomGrid(rng);
    const std::vector<TableId> tables = *catalog::RandomQueryTables(
        cat, static_cast<int>(rng.UniformInt(3, 7)),
        schema.seed * 31 + 1);

    core::RaqoPlannerOptions options;
    options.algorithm = core::PlannerAlgorithm::kSelinger;
    options.evaluator.use_cache = false;
    const double tw = rng.Bernoulli(0.7) ? 1.0 : rng.Uniform(0.0, 1.0);
    options.evaluator.time_weight = tw;
    options.selinger.time_weight = tw;

    options.evaluator.search = core::ResourceSearch::kBruteForce;
    core::RaqoPlanner brute(&cat, HiveModels(), grid,
                            resource::PricingModel(), options);
    options.evaluator.search = core::ResourceSearch::kSwitchAwareGrid;
    core::RaqoPlanner incremental(&cat, HiveModels(), grid,
                                  resource::PricingModel(), options);

    const Result<core::JointPlan> expected = brute.Plan(tables);
    const Result<core::JointPlan> actual = incremental.Plan(tables);
    ASSERT_EQ(expected.ok(), actual.ok()) << "trial " << trial;
    if (!expected.ok()) continue;
    ExpectIdenticalJointPlans(
        *expected, *actual,
        "seed " + std::to_string(GetParam()) + " trial " +
            std::to_string(trial));
  }
}

TEST(SwitchAwareEvaluatorTest, TpchPlansIdenticalAndCountersMove) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  const resource::ClusterConditions cluster =
      resource::ClusterConditions::PaperDefault();
  std::vector<core::WorkloadQuery> workload;
  for (catalog::TpchQuery q :
       {catalog::TpchQuery::kQ12, catalog::TpchQuery::kQ3,
        catalog::TpchQuery::kQ2, catalog::TpchQuery::kAll}) {
    core::WorkloadQuery query;
    query.label = catalog::TpchQueryName(q);
    query.tables = *catalog::TpchQueryTables(cat, q);
    workload.push_back(std::move(query));
  }

  core::RaqoPlannerOptions options;
  options.algorithm = core::PlannerAlgorithm::kSelinger;
  options.evaluator.use_cache = false;

  options.evaluator.search = core::ResourceSearch::kBruteForce;
  core::RaqoPlanner brute_planner(&cat, HiveModels(), cluster,
                                  resource::PricingModel(), options);
  core::WorkloadRunner brute_runner(&brute_planner);
  const Result<core::WorkloadReport> brute = brute_runner.Run(workload);
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();

  obs::Counter* pruned =
      obs::DefaultMetrics().GetCounter("planner.resource.cells_pruned");
  obs::Counter* reused =
      obs::DefaultMetrics().GetCounter("planner.resource.plans_reused");
  obs::Counter* replanned =
      obs::DefaultMetrics().GetCounter("planner.resource.cells_replanned");
  const int64_t pruned_before = pruned->Value();
  const int64_t reused_before = reused->Value();
  const int64_t replanned_before = replanned->Value();

  options.evaluator.search = core::ResourceSearch::kSwitchAwareGrid;
  core::RaqoPlanner inc_planner(&cat, HiveModels(), cluster,
                                resource::PricingModel(), options);
  core::WorkloadRunner inc_runner(&inc_planner);
  const Result<core::WorkloadReport> inc = inc_runner.Run(workload);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();

  ASSERT_EQ(brute->queries.size(), inc->queries.size());
  for (size_t i = 0; i < brute->queries.size(); ++i) {
    EXPECT_EQ(brute->queries[i].plan, inc->queries[i].plan);
    EXPECT_EQ(brute->queries[i].cost.seconds, inc->queries[i].cost.seconds);
    EXPECT_EQ(brute->queries[i].cost.dollars, inc->queries[i].cost.dollars);
    EXPECT_TRUE(brute->queries[i].join_resources ==
                inc->queries[i].join_resources);
  }
  // The incremental search must actually be incremental on the paper
  // workload: most of the grid pruned, most searches settled by the
  // warm-started plan.
  EXPECT_LT(inc->total_resource_configs_explored,
            brute->total_resource_configs_explored / 2);
  EXPECT_GT(pruned->Value(), pruned_before);
  EXPECT_GT(reused->Value(), reused_before);
  EXPECT_GE(replanned->Value(), replanned_before);
}

TEST(SwitchAwareEvaluatorTest, LargeGridPlansMatchBruteForce) {
  // 10 container sizes x 10,000 counts: the term arrays span 10,000
  // columns and a row holds 625 pruning blocks.
  catalog::Catalog cat = catalog::BuildTpchCatalog(100.0);
  const resource::ClusterConditions cluster =
      resource::ClusterConditions::WithMax(10, 10000);
  const std::vector<TableId> tables =
      *catalog::TpchQueryTables(cat, catalog::TpchQuery::kQ3);
  core::RaqoPlannerOptions options;
  options.algorithm = core::PlannerAlgorithm::kSelinger;
  options.evaluator.use_cache = false;
  for (const double tw : {1.0, 0.0}) {
    options.evaluator.time_weight = tw;
    options.selinger.time_weight = tw;
    options.evaluator.search = core::ResourceSearch::kBruteForce;
    core::RaqoPlanner brute(&cat, HiveModels(), cluster,
                            resource::PricingModel(), options);
    options.evaluator.search = core::ResourceSearch::kSwitchAwareGrid;
    core::RaqoPlanner incremental(&cat, HiveModels(), cluster,
                                  resource::PricingModel(), options);
    const Result<core::JointPlan> expected = brute.Plan(tables);
    const Result<core::JointPlan> actual = incremental.Plan(tables);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectIdenticalJointPlans(*expected, *actual,
                              "time weight " + std::to_string(tw));
    EXPECT_LT(actual->stats.resource_configs_explored,
              expected->stats.resource_configs_explored / 10);
  }
}

}  // namespace
}  // namespace raqo
