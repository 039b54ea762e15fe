#ifndef RAQO_COST_FEATURES_H_
#define RAQO_COST_FEATURES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace raqo::cost {

/// The raw inputs of the cost model (Section VI-A): data characteristics
/// of the join (its two input sizes) and the resource configuration.
struct JoinFeatures {
  /// Smaller input size in GB (`ss`, the paper's data characteristic).
  double smaller_gb = 0.0;
  /// Larger input size in GB. Used only by the extended feature set; the
  /// paper's published model is blind to it.
  double larger_gb = 0.0;
  /// Container size in GB (`cs`).
  double container_size_gb = 0.0;
  /// Number of concurrent containers (`nc`).
  double num_containers = 0.0;
};

/// Which feature expansion a model is trained/evaluated with.
enum class FeatureSet {
  /// The paper's exact feature vector: [ss, ss^2, cs, cs^2, nc, nc^2,
  /// cs*nc]. Required for interpreting the published coefficient
  /// vectors.
  kPaper,
  /// An extended set that also captures the larger input and the
  /// hyperbolic scaling of parallel operators:
  /// [ss, ls, ss/nc, ls/nc, ss*nc, nc, cs, ss/cs, ls/cs, 1/cs].
  /// The paper lists cost-model tuning ("adding more features") as
  /// future work; this is that extension, and it is the default for
  /// models trained against the execution simulator.
  kExtended,
  /// A deliberately resource-NON-monotone set: [ss, cs*(14-cs), nc].
  /// The middle feature peaks at cs = 7, inside the paper-default grid,
  /// so no corner bound over a container-size interval is sound for it.
  /// Models over this set predict fine; the switch-aware grid search
  /// must sweep them without bounds (cost::ResourceBoundsSound is false)
  /// — this set exists to keep that path honest
  /// (tests/incremental_search_test.cc).
  kPeakedProbe,
};

/// Number of expanded features for each set.
inline constexpr size_t kNumPaperFeatures = 7;
inline constexpr size_t kNumExtendedFeatures = 10;
inline constexpr size_t kNumPeakedProbeFeatures = 3;
/// Upper bound across all feature sets (for stack buffers).
inline constexpr size_t kMaxFeatures = 16;
size_t NumFeatures(FeatureSet set);

/// Expands the raw inputs into the chosen feature vector.
std::vector<double> ExpandFeatures(const JoinFeatures& f, FeatureSet set);

/// Allocation-free variant for the planner hot path: writes into `out`
/// (at least kMaxFeatures doubles) and returns the feature count.
/// Resource planning evaluates the cost model hundreds of millions of
/// times on the paper's largest clusters (Figure 15), so this path must
/// not allocate.
size_t ExpandFeaturesInto(const JoinFeatures& f, FeatureSet set,
                          double* out);

/// Names of the expanded features, aligned with ExpandFeatures output.
const std::vector<std::string>& FeatureNames(FeatureSet set);

/// Monotone trend of one expanded feature along one resource dimension,
/// valid for any fixed data characteristics ss, ls >= 0 and positive
/// resource values (the domain every ClusterConditions grid lives in).
/// kIncreasing/kDecreasing are weak (non-strict) trends.
enum class FeatureTrend : uint8_t {
  kConstant,
  kIncreasing,
  kDecreasing,
  kNonMonotone,
};

/// Trend of one feature along each of the two resource dimensions.
struct FeatureResourceTrend {
  FeatureTrend container_size = FeatureTrend::kConstant;
  FeatureTrend num_containers = FeatureTrend::kConstant;
};

/// Per-feature resource monotonicity metadata, aligned with
/// ExpandFeatures output. Declared analytically per feature set (the
/// sets are a closed enum, so each expression is audited by hand here
/// rather than probed at run time). The planner trusts it: a test
/// (ResourceBoundOracleTest.BoundNeverExceedsPrediction) walks every
/// declared-monotone set's features along both resource dimensions and
/// checks each trend and the corner bounds numerically, so a wrong row
/// fails the build's tests instead of being re-checked per request.
const std::vector<FeatureResourceTrend>& FeatureResourceTrends(
    FeatureSet set);

/// True when every feature of `set` is per-dimension monotone in the
/// resource dimensions — the property that makes interval corner bounds
/// sound (docs/PERF.md): a componentwise-monotone function attains its
/// extremes over a box at the box corners.
bool FeatureSetResourceMonotone(FeatureSet set);

/// The resource inputs one expanded feature reads, read off its
/// FeatureResourceTrend: none (a data term), the container size alone,
/// the container count alone, or both. The first three values index
/// per-axis tables, so their order is fixed.
enum class FeatureAxis : uint8_t {
  kData,
  kContainerSize,
  kNumContainers,
  kBoth,
};
FeatureAxis FeatureAxisOf(const FeatureResourceTrend& trend);

/// True when no feature of `set` reads both resource dimensions. Over a
/// resource grid every term is then a data, per-row (container size) or
/// per-column (container count) term, so a prediction can be assembled
/// from per-axis arrays (cost::SeparableGridSeconds). kExtended and
/// kPeakedProbe are separable; kPaper, with its cs*nc term, is not.
bool FeatureSetSeparable(FeatureSet set);

/// Expands the features of `set` whose FeatureAxisOf is `axis`, for data
/// sizes `ss` and `ls`, at each of the `n` values of that axis in
/// `values` (for kData, `values` is ignored and `n` must be 1). The r-th
/// such feature in index order, at values[k], is written to
/// out[r * n + k]. ExpandFeaturesInto evaluates the same expressions, so
/// each value equals the one it writes for that feature. `axis` must not
/// be kBoth.
void ExpandAxisFeatures(FeatureSet set, FeatureAxis axis, double ss,
                        double ls, const double* values, size_t n,
                        double* out);

}  // namespace raqo::cost

#endif  // RAQO_COST_FEATURES_H_
