#include "cost/features.h"

#include <algorithm>

#include "common/logging.h"

namespace raqo::cost {

size_t NumFeatures(FeatureSet set) {
  switch (set) {
    case FeatureSet::kPaper:
      return kNumPaperFeatures;
    case FeatureSet::kExtended:
      return kNumExtendedFeatures;
    case FeatureSet::kPeakedProbe:
      return kNumPeakedProbeFeatures;
  }
  return kNumPaperFeatures;
}

std::vector<double> ExpandFeatures(const JoinFeatures& f, FeatureSet set) {
  double buffer[kMaxFeatures];
  const size_t n = ExpandFeaturesInto(f, set, buffer);
  return std::vector<double>(buffer, buffer + n);
}

namespace {

// Each feature set's expressions, grouped by the resource axis they read
// (FeatureAxisOf). A group writes its features in index order into `t`
// and returns how many it wrote; `v` is the group's axis value (unused by
// data groups). ExpandFeaturesInto and ExpandAxisFeatures both evaluate
// these, so every expression is written once and the two agree bit for
// bit. kPaper's cs*nc reads both axes and belongs to no group.

size_t PaperData(double ss, double /*ls*/, double /*v*/, double* t) {
  t[0] = ss;
  t[1] = ss * ss;
  return 2;
}
size_t PaperSize(double /*ss*/, double /*ls*/, double cs, double* t) {
  t[0] = cs;
  t[1] = cs * cs;
  return 2;
}
size_t PaperCount(double /*ss*/, double /*ls*/, double nc, double* t) {
  t[0] = nc;
  t[1] = nc * nc;
  return 2;
}

size_t ExtendedData(double ss, double ls, double /*v*/, double* t) {
  t[0] = ss;
  t[1] = ls;
  return 2;
}
size_t ExtendedCount(double ss, double ls, double nc, double* t) {
  const double safe_nc = std::max(nc, 1e-9);
  t[0] = ss / safe_nc;
  t[1] = ls / safe_nc;
  t[2] = ss * nc;
  t[3] = nc;
  return 4;
}
size_t ExtendedSize(double ss, double ls, double cs, double* t) {
  const double safe_cs = std::max(cs, 1e-9);
  t[0] = cs;
  t[1] = ss / safe_cs;
  t[2] = ls / safe_cs;
  t[3] = 1.0 / safe_cs;
  return 4;
}

size_t PeakedData(double ss, double /*ls*/, double /*v*/, double* t) {
  t[0] = ss;
  return 1;
}
size_t PeakedSize(double /*ss*/, double /*ls*/, double cs, double* t) {
  t[0] = cs * (14.0 - cs);  // peaks at cs = 7, inside the paper grid
  return 1;
}
size_t PeakedCount(double /*ss*/, double /*ls*/, double nc, double* t) {
  t[0] = nc;
  return 1;
}

/// One group at each of `n` axis values, transposed into out[r * n + k].
template <size_t (*Group)(double, double, double, double*)>
void ExpandEach(double ss, double ls, const double* values, size_t n,
                double* out) {
  double t[kMaxFeatures];
  for (size_t k = 0; k < n; ++k) {
    const size_t m = Group(ss, ls, values != nullptr ? values[k] : 0.0, t);
    for (size_t r = 0; r < m; ++r) out[r * n + k] = t[r];
  }
}

}  // namespace

size_t ExpandFeaturesInto(const JoinFeatures& f, FeatureSet set,
                          double* out) {
  const double ss = f.smaller_gb;
  const double ls = f.larger_gb;
  const double cs = f.container_size_gb;
  const double nc = f.num_containers;
  if (set == FeatureSet::kPaper) {
    PaperData(ss, ls, 0.0, out);
    PaperSize(ss, ls, cs, out + 2);
    PaperCount(ss, ls, nc, out + 4);
    out[6] = cs * nc;
    return kNumPaperFeatures;
  }
  if (set == FeatureSet::kPeakedProbe) {
    PeakedData(ss, ls, 0.0, out);
    PeakedSize(ss, ls, cs, out + 1);
    PeakedCount(ss, ls, nc, out + 2);
    return kNumPeakedProbeFeatures;
  }
  ExtendedData(ss, ls, 0.0, out);
  ExtendedCount(ss, ls, nc, out + 2);
  ExtendedSize(ss, ls, cs, out + 6);
  return kNumExtendedFeatures;
}

void ExpandAxisFeatures(FeatureSet set, FeatureAxis axis, double ss,
                        double ls, const double* values, size_t n,
                        double* out) {
  RAQO_CHECK(axis != FeatureAxis::kBoth)
      << "features reading both resource axes have no per-axis expansion";
  if (axis == FeatureAxis::kData) {
    RAQO_CHECK(n == 1) << "data features take one value";
    values = nullptr;
  }
  // Rows follow FeatureSet, columns FeatureAxis (kData, kContainerSize,
  // kNumContainers).
  using Expand = void (*)(double, double, const double*, size_t, double*);
  static constexpr Expand kGroups[3][3] = {
      {ExpandEach<PaperData>, ExpandEach<PaperSize>, ExpandEach<PaperCount>},
      {ExpandEach<ExtendedData>, ExpandEach<ExtendedSize>,
       ExpandEach<ExtendedCount>},
      {ExpandEach<PeakedData>, ExpandEach<PeakedSize>,
       ExpandEach<PeakedCount>},
  };
  kGroups[static_cast<size_t>(set)][static_cast<size_t>(axis)](ss, ls, values,
                                                               n, out);
}

const std::vector<std::string>& FeatureNames(FeatureSet set) {
  static const std::vector<std::string>* paper =
      new std::vector<std::string>{"ss", "ss^2", "cs",   "cs^2",
                                   "nc", "nc^2", "cs*nc"};
  static const std::vector<std::string>* extended =
      new std::vector<std::string>{"ss",    "ls", "ss/nc", "ls/nc",
                                   "ss*nc", "nc", "cs",    "ss/cs",
                                   "ls/cs", "1/cs"};
  static const std::vector<std::string>* peaked =
      new std::vector<std::string>{"ss", "cs*(14-cs)", "nc"};
  switch (set) {
    case FeatureSet::kPaper:
      return *paper;
    case FeatureSet::kExtended:
      return *extended;
    case FeatureSet::kPeakedProbe:
      return *peaked;
  }
  return *paper;
}

const std::vector<FeatureResourceTrend>& FeatureResourceTrends(
    FeatureSet set) {
  using T = FeatureTrend;
  // Trends hold for ss, ls >= 0 and cs, nc > 0, the domain of every
  // valid cluster grid. Division features use max(x, 1e-9) guards in
  // ExpandFeaturesInto; max of a monotone function is monotone, so the
  // guards do not change any trend.
  static const std::vector<FeatureResourceTrend>* paper =
      new std::vector<FeatureResourceTrend>{
          {T::kConstant, T::kConstant},      // ss
          {T::kConstant, T::kConstant},      // ss^2
          {T::kIncreasing, T::kConstant},    // cs
          {T::kIncreasing, T::kConstant},    // cs^2
          {T::kConstant, T::kIncreasing},    // nc
          {T::kConstant, T::kIncreasing},    // nc^2
          {T::kIncreasing, T::kIncreasing},  // cs*nc
      };
  static const std::vector<FeatureResourceTrend>* extended =
      new std::vector<FeatureResourceTrend>{
          {T::kConstant, T::kConstant},     // ss
          {T::kConstant, T::kConstant},     // ls
          {T::kConstant, T::kDecreasing},   // ss/nc
          {T::kConstant, T::kDecreasing},   // ls/nc
          {T::kConstant, T::kIncreasing},   // ss*nc
          {T::kConstant, T::kIncreasing},   // nc
          {T::kIncreasing, T::kConstant},   // cs
          {T::kDecreasing, T::kConstant},   // ss/cs
          {T::kDecreasing, T::kConstant},   // ls/cs
          {T::kDecreasing, T::kConstant},   // 1/cs
      };
  static const std::vector<FeatureResourceTrend>* peaked =
      new std::vector<FeatureResourceTrend>{
          {T::kConstant, T::kConstant},     // ss
          {T::kNonMonotone, T::kConstant},  // cs*(14-cs)
          {T::kConstant, T::kIncreasing},   // nc
      };
  switch (set) {
    case FeatureSet::kPaper:
      return *paper;
    case FeatureSet::kExtended:
      return *extended;
    case FeatureSet::kPeakedProbe:
      return *peaked;
  }
  return *paper;
}

FeatureAxis FeatureAxisOf(const FeatureResourceTrend& trend) {
  const bool by_size = trend.container_size != FeatureTrend::kConstant;
  const bool by_count = trend.num_containers != FeatureTrend::kConstant;
  if (by_size && by_count) return FeatureAxis::kBoth;
  if (by_size) return FeatureAxis::kContainerSize;
  if (by_count) return FeatureAxis::kNumContainers;
  return FeatureAxis::kData;
}

bool FeatureSetSeparable(FeatureSet set) {
  for (const FeatureResourceTrend& trend : FeatureResourceTrends(set)) {
    if (FeatureAxisOf(trend) == FeatureAxis::kBoth) return false;
  }
  return true;
}

bool FeatureSetResourceMonotone(FeatureSet set) {
  for (const FeatureResourceTrend& trend : FeatureResourceTrends(set)) {
    if (trend.container_size == FeatureTrend::kNonMonotone ||
        trend.num_containers == FeatureTrend::kNonMonotone) {
      return false;
    }
  }
  return true;
}

}  // namespace raqo::cost
