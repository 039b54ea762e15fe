#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/plan_cache.h"
#include "core/resource_planner.h"

namespace raqo::core {
namespace {

using resource::ClusterConditions;
using resource::ResourceConfig;

// A convex bowl with its optimum at (6, 40): both planners must find it.
double Bowl(const ResourceConfig& c) {
  const double dcs = c.container_size_gb() - 6.0;
  const double dnc = c.num_containers() - 40.0;
  return dcs * dcs + 0.01 * dnc * dnc + 5.0;
}

TEST(BruteForceTest, FindsGlobalOptimum) {
  BruteForceResourcePlanner planner;
  ClusterConditions cluster = ClusterConditions::PaperDefault();
  Result<ResourcePlanResult> r = planner.PlanResources(Bowl, cluster);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->config, ResourceConfig(6, 40));
  EXPECT_DOUBLE_EQ(r->cost, 5.0);
  EXPECT_EQ(r->configs_explored, cluster.TotalGridSize());
}

TEST(HillClimbTest, FindsOptimumOfConvexObjective) {
  HillClimbResourcePlanner planner;
  ClusterConditions cluster = ClusterConditions::PaperDefault();
  Result<ResourcePlanResult> r = planner.PlanResources(Bowl, cluster);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->config, ResourceConfig(6, 40));
  EXPECT_DOUBLE_EQ(r->cost, 5.0);
}

TEST(HillClimbTest, ExploresFarFewerConfigsThanBruteForce) {
  // Figure 13: hill climbing explores ~4x fewer resource configurations.
  BruteForceResourcePlanner brute;
  HillClimbResourcePlanner hill;
  ClusterConditions cluster = ClusterConditions::PaperDefault();
  auto b = brute.PlanResources(Bowl, cluster);
  auto h = hill.PlanResources(Bowl, cluster);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(h.ok());
  EXPECT_LT(h->configs_explored * 4, b->configs_explored);
  EXPECT_DOUBLE_EQ(h->cost, b->cost);
}

TEST(HillClimbTest, StartsFromClusterMinimum) {
  // A cost that strictly increases with resources: the climber must stay
  // at the minimum configuration (the cheapest feasible resources).
  auto increasing = [](const ResourceConfig& c) {
    return c.total_memory_gb();
  };
  HillClimbResourcePlanner planner;
  Result<ResourcePlanResult> r =
      planner.PlanResources(increasing, ClusterConditions::PaperDefault());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->config, ResourceConfig(1, 1));
  // 1 evaluation at the start + 2 probes (only forward steps exist).
  EXPECT_LE(r->configs_explored, 4);
}

TEST(HillClimbTest, ClimbsToMaximumWhenMoreIsBetter) {
  auto decreasing = [](const ResourceConfig& c) {
    return 1e6 - c.total_memory_gb();
  };
  HillClimbResourcePlanner planner;
  Result<ResourcePlanResult> r =
      planner.PlanResources(decreasing, ClusterConditions::WithMax(4, 6));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->config, ResourceConfig(4, 6));
}

TEST(HillClimbTest, StopsAtLocalOptimum) {
  // Two separated wells; the climber starting at min falls into the
  // nearer (worse) one — hill climbing is local by design.
  auto two_wells = [](const ResourceConfig& c) {
    const double d1 = std::abs(c.container_size_gb() - 2.0) +
                      std::abs(c.num_containers() - 2.0);
    const double d2 = std::abs(c.container_size_gb() - 9.0) +
                      std::abs(c.num_containers() - 90.0);
    return std::min(10.0 + d1, 1.0 + d2);
  };
  HillClimbResourcePlanner planner;
  BruteForceResourcePlanner brute;
  ClusterConditions cluster = ClusterConditions::PaperDefault();
  auto local = planner.PlanResources(two_wells, cluster);
  auto global = brute.PlanResources(two_wells, cluster);
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(local->config, ResourceConfig(2, 2));
  EXPECT_EQ(global->config, ResourceConfig(9, 90));
  EXPECT_GT(local->cost, global->cost);
}

TEST(BruteForceTest, AllInfeasibleFails) {
  auto infeasible = [](const ResourceConfig&) {
    return std::numeric_limits<double>::infinity();
  };
  BruteForceResourcePlanner brute;
  HillClimbResourcePlanner hill;
  EXPECT_TRUE(brute.PlanResources(infeasible, ClusterConditions::WithMax(2, 2))
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(hill.PlanResources(infeasible, ClusterConditions::WithMax(2, 2))
                  .status()
                  .IsFailedPrecondition());
}

CachedResourcePlan Entry(double key, double cs, double nc, double cost) {
  CachedResourcePlan p;
  p.key_gb = key;
  p.config = ResourceConfig(cs, nc);
  p.cost = cost;
  return p;
}

template <typename IndexT>
class PlanIndexTest : public ::testing::Test {};

using IndexTypes = ::testing::Types<SortedArrayIndex>;
TYPED_TEST_SUITE(PlanIndexTest, IndexTypes);

TYPED_TEST(PlanIndexTest, InsertFindExact) {
  TypeParam index;
  EXPECT_EQ(index.size(), 0u);
  index.Insert(Entry(2.0, 4, 10, 100));
  index.Insert(Entry(1.0, 2, 5, 50));
  index.Insert(Entry(3.0, 8, 20, 200));
  EXPECT_EQ(index.size(), 3u);
  auto hit = index.FindExact(2.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->config, ResourceConfig(4, 10));
  EXPECT_FALSE(index.FindExact(2.5).has_value());
}

TYPED_TEST(PlanIndexTest, OverwriteOnEqualKey) {
  TypeParam index;
  index.Insert(Entry(2.0, 4, 10, 100));
  index.Insert(Entry(2.0, 6, 30, 300));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.FindExact(2.0)->config, ResourceConfig(6, 30));
}

TYPED_TEST(PlanIndexTest, NeighborsSortedWithinThreshold) {
  TypeParam index;
  for (double k : {1.0, 1.5, 2.0, 2.5, 3.0, 10.0}) {
    index.Insert(Entry(k, k, k, k));
  }
  auto neighbors = index.FindNeighbors(2.0, 0.6);
  ASSERT_EQ(neighbors.size(), 3u);
  EXPECT_DOUBLE_EQ(neighbors[0].key_gb, 1.5);
  EXPECT_DOUBLE_EQ(neighbors[1].key_gb, 2.0);
  EXPECT_DOUBLE_EQ(neighbors[2].key_gb, 2.5);
  EXPECT_TRUE(index.FindNeighbors(100.0, 0.5).empty());
}

TEST(ResourcePlanCacheTest, ExactModeHitsOnlyExact) {
  ResourcePlanCache cache(CacheLookupMode::kExact, 0.5);
  cache.Insert("smj", Entry(2.0, 4, 10, 100));
  EXPECT_TRUE(cache.Lookup("smj", 2.0).has_value());
  EXPECT_FALSE(cache.Lookup("smj", 2.1).has_value());
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(ResourcePlanCacheTest, ModelsAreIsolated) {
  ResourcePlanCache cache(CacheLookupMode::kExact, 0.0);
  cache.Insert("smj", Entry(2.0, 4, 10, 100));
  EXPECT_FALSE(cache.Lookup("bhj", 2.0).has_value());
  EXPECT_TRUE(cache.Lookup("smj", 2.0).has_value());
}

TEST(ResourcePlanCacheTest, NearestNeighborWithinThreshold) {
  ResourcePlanCache cache(CacheLookupMode::kNearestNeighbor, 0.5);
  cache.Insert("smj", Entry(2.0, 4, 10, 100));
  cache.Insert("smj", Entry(3.0, 8, 20, 200));
  auto hit = cache.Lookup("smj", 2.2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->config, ResourceConfig(4, 10));  // 2.0 is nearer
  auto miss = cache.Lookup("smj", 2.51);          // equidistant-ish but > thr
  ASSERT_TRUE(miss.has_value());                  // 3.0 is within 0.49
  EXPECT_EQ(miss->config, ResourceConfig(8, 20));
  EXPECT_FALSE(cache.Lookup("smj", 4.0).has_value());
}

TEST(ResourcePlanCacheTest, WeightedAverageBlendsNeighbors) {
  ResourcePlanCache cache(CacheLookupMode::kWeightedAverage, 1.0);
  cache.Insert("smj", Entry(2.0, 4, 10, 100));
  cache.Insert("smj", Entry(3.0, 8, 20, 200));
  auto hit = cache.Lookup("smj", 2.5);  // exactly between: plain average
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->config.container_size_gb(), 6.0, 1e-6);
  EXPECT_NEAR(hit->config.num_containers(), 15.0, 1e-6);
  EXPECT_NEAR(hit->cost, 150.0, 1e-3);
  // Nearer to 2.0: blend leans toward its configuration.
  auto lean = cache.Lookup("smj", 2.1);
  ASSERT_TRUE(lean.has_value());
  EXPECT_LT(lean->config.container_size_gb(), 5.0);
}

TEST(ResourcePlanCacheTest, ZeroThresholdDegeneratesToExact) {
  ResourcePlanCache cache(CacheLookupMode::kNearestNeighbor, 0.0);
  cache.Insert("smj", Entry(2.0, 4, 10, 100));
  EXPECT_TRUE(cache.Lookup("smj", 2.0).has_value());
  EXPECT_FALSE(cache.Lookup("smj", 2.0001).has_value());
}

TEST(ResourcePlanCacheTest, ClearAndSize) {
  ResourcePlanCache cache(CacheLookupMode::kExact, 0.0);
  cache.Insert("smj", Entry(1.0, 1, 1, 1));
  cache.Insert("bhj", Entry(2.0, 2, 2, 2));
  EXPECT_EQ(cache.entry_count(), 2);
  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0);
  EXPECT_FALSE(cache.Lookup("smj", 1.0).has_value());
}

TEST(ResourcePlanCacheTest, UnguardedExactLookupNeverReturnsAnotherPairsEntry) {
  ResourcePlanCache cache(CacheLookupMode::kExact, 0.0);
  CachedResourcePlan plan = Entry(1.5, 4, 10, 42);
  plan.larger_gb = 7.0;
  cache.Insert("smj", plan);
  // 353888089267679 is the key the cache used to store (1.5, 7.0) under,
  // a 53-bit hash of the pair. An unguarded lookup of that number
  // returned this entry.
  EXPECT_FALSE(cache.Lookup("smj", 353888089267679.0).has_value());
  EXPECT_FALSE(cache.Lookup("smj", 1.5).has_value());
  ASSERT_TRUE(cache.Lookup("smj", 1.5, 7.0).has_value());
  EXPECT_EQ(cache.Lookup("smj", 1.5, 7.0)->cost, 42.0);
}

// Exact mode against a std::map oracle keyed by the (smaller, larger)
// pair, with -0.0 and +0.0 one key. Enough pairs for many PairTable
// doublings, many larger sizes per smaller size, overwrites, signed
// zeros and infinities in both parts.
TEST(ResourcePlanCacheTest, ExactModeMatchesPairMapOracle) {
  auto canonical = [](double x) { return x == 0.0 ? 0.0 : x; };
  for (const size_t stripes : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(stripes);
    ResourcePlanCache cache(CacheLookupMode::kExact, 0.0,
                            CacheIndexKind::kSortedArray, stripes);
    std::map<std::pair<double, double>, CachedResourcePlan> oracle;
    Rng rng(29);
    auto draw = [&rng](double lo, double hi) {
      const double u = rng.Uniform(0.0, 1.0);
      if (u < 0.03) return 0.0;
      if (u < 0.06) return -0.0;
      if (u < 0.08) return std::numeric_limits<double>::infinity();
      return std::round(rng.Uniform(lo, hi) * 4.0) / 4.0;
    };
    std::vector<std::pair<double, double>> inserted;
    for (int i = 0; i < 6000; ++i) {
      CachedResourcePlan plan;
      if (!inserted.empty() && rng.Bernoulli(0.2)) {
        // Overwrite a stored pair, sometimes with the other zero sign.
        const auto& [smaller, larger] = inserted[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(inserted.size()) - 1))];
        plan.key_gb = smaller == 0.0 ? -smaller : smaller;
        plan.larger_gb = larger;
      } else {
        // About 40 smaller sizes, each with many larger ones.
        plan.key_gb = draw(0.0, 10.0);
        plan.larger_gb = draw(10.0, 2000.0);
      }
      plan.cost = static_cast<double>(i);
      plan.config = ResourceConfig(rng.Uniform(1, 10), rng.Uniform(1, 100));
      cache.Insert("smj", plan);
      inserted.emplace_back(plan.key_gb, plan.larger_gb);
      oracle[{canonical(plan.key_gb), canonical(plan.larger_gb)}] = plan;
    }
    ASSERT_GT(oracle.size(), 4000u);
    EXPECT_EQ(cache.entry_count(), static_cast<int64_t>(oracle.size()));

    // The dump lists the oracle's entries in the oracle's order.
    const std::vector<CacheEntryRecord> dump = cache.DumpEntries();
    ASSERT_EQ(dump.size(), oracle.size());
    size_t at = 0;
    for (const auto& [pair, plan] : oracle) {
      SCOPED_TRACE(at);
      EXPECT_EQ(dump[at].model, "smj");
      EXPECT_EQ(dump[at].plan.key_gb, pair.first);
      EXPECT_EQ(dump[at].plan.larger_gb, pair.second);
      EXPECT_EQ(dump[at].plan.cost, plan.cost);
      EXPECT_EQ(dump[at].plan.config, plan.config);
      ++at;
    }

    int64_t hits = 0;
    int64_t lookups = 0;
    auto expect_lookup = [&](double smaller, std::optional<double> larger) {
      const auto it =
          oracle.find({canonical(smaller), canonical(larger.value_or(0.0))});
      const std::optional<CachedResourcePlan> got =
          cache.Lookup("smj", smaller, larger);
      ++lookups;
      ASSERT_EQ(got.has_value(), it != oracle.end())
          << smaller << ", " << larger.value_or(-1.0);
      if (!got) return;
      ++hits;
      EXPECT_EQ(got->key_gb, smaller);
      EXPECT_EQ(got->larger_gb, larger.value_or(0.0));
      EXPECT_EQ(got->cost, it->second.cost);
      EXPECT_EQ(got->config, it->second.config);
    };
    for (const auto& [pair, plan] : oracle) {
      // Guarded, with both zero signs.
      expect_lookup(pair.first, pair.second);
      expect_lookup(-pair.first, pair.second);
      expect_lookup(pair.first, -pair.second);
      // Unguarded: only the pair (smaller, 0) answers.
      expect_lookup(pair.first, std::nullopt);
      // A pair never stored.
      expect_lookup(pair.first, pair.second + 0.125);
    }
    for (int i = 0; i < 2000; ++i) {
      expect_lookup(draw(0.0, 10.0), draw(10.0, 2000.0));
    }
    EXPECT_FALSE(cache.Lookup("bhj", 1.0, 100.0).has_value());
    ++lookups;
    EXPECT_EQ(cache.stats().hits, hits);
    EXPECT_EQ(cache.stats().lookups(), lookups);
  }
}

TEST(ResourcePlanCacheTest, ModeNames) {
  EXPECT_STREQ(CacheLookupModeName(CacheLookupMode::kExact), "exact");
  EXPECT_STREQ(CacheLookupModeName(CacheLookupMode::kNearestNeighbor),
               "nearest-neighbor");
  EXPECT_STREQ(CacheLookupModeName(CacheLookupMode::kWeightedAverage),
               "weighted-average");
}

}  // namespace
}  // namespace raqo::core
