#ifndef RAQO_CORE_PLAN_CACHE_H_
#define RAQO_CORE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/csb_tree.h"
#include "resource/resource_config.h"

namespace raqo::core {

/// A cached resource plan: the best configuration found for some data
/// characteristic (the smaller input size) plus its predicted cost.
struct CachedResourcePlan {
  double key_gb = 0.0;
  resource::ResourceConfig config;
  double cost = 0.0;
  /// Larger-input size of the join the plan was computed for. The
  /// resource optimum depends on both inputs, so exact-mode lookups can
  /// pass their larger size as a guard: a hit then provably returns what
  /// recomputation would, which is what makes concurrent shared-cache
  /// planning deterministic (see docs/CONCURRENCY.md).
  double larger_gb = 0.0;
  /// True smaller-input size. Managed by ResourcePlanCache: in exact
  /// mode entries are stored under a key folding both sizes together
  /// (one entry per pair instead of overwrite-by-smaller-size), and this
  /// field keeps the original data characteristic for the pair guard.
  double smaller_gb = 0.0;
};

/// Index over data-characteristic keys (Section VI-B.3). Two layouts are
/// provided: the paper's default "sorted array of keys, with automatic
/// resizing, binary search for lookup", and the CSB+-Tree it suggests for
/// larger workloads.
class ResourcePlanIndex {
 public:
  virtual ~ResourcePlanIndex() = default;

  /// Inserts or overwrites the entry at `plan.key_gb`. Returns true
  /// when a new key was inserted, false on overwrite — callers keeping
  /// an entry count (the cache's obs gauges) depend on the distinction.
  virtual bool Insert(const CachedResourcePlan& plan) = 0;

  /// Exact-key lookup.
  virtual std::optional<CachedResourcePlan> FindExact(double key) const = 0;

  /// All entries with |entry.key - key| <= threshold, ascending by key.
  virtual std::vector<CachedResourcePlan> FindNeighbors(
      double key, double threshold) const = 0;

  /// Visits every stored entry in ascending key order (the persistence
  /// layer and cache_dump frames iterate through this).
  virtual void ForEach(
      const std::function<void(const CachedResourcePlan&)>& fn) const = 0;

  virtual size_t size() const = 0;
  virtual const char* name() const = 0;
};

/// Sorted dynamic array with binary search (the prototype layout in the
/// paper).
class SortedArrayIndex : public ResourcePlanIndex {
 public:
  bool Insert(const CachedResourcePlan& plan) override;
  std::optional<CachedResourcePlan> FindExact(double key) const override;
  std::vector<CachedResourcePlan> FindNeighbors(
      double key, double threshold) const override;
  void ForEach(const std::function<void(const CachedResourcePlan&)>& fn)
      const override;
  size_t size() const override { return entries_.size(); }
  const char* name() const override { return "sorted-array"; }

 private:
  std::vector<CachedResourcePlan> entries_;  // ascending by key_gb
};

/// CSB+-Tree-backed index ("We could also layout the array as a
/// CSB+-Tree for larger workloads").
class CsbTreeIndex : public ResourcePlanIndex {
 public:
  bool Insert(const CachedResourcePlan& plan) override;
  std::optional<CachedResourcePlan> FindExact(double key) const override;
  std::vector<CachedResourcePlan> FindNeighbors(
      double key, double threshold) const override;
  void ForEach(const std::function<void(const CachedResourcePlan&)>& fn)
      const override;
  size_t size() const override { return payloads_.size(); }
  const char* name() const override { return "csb-tree"; }

 private:
  CsbTree tree_;
  /// Payload store; the tree maps key -> index into this vector.
  std::vector<CachedResourcePlan> payloads_;
};

/// Index layout selector.
enum class CacheIndexKind {
  kSortedArray,
  kCsbTree,
};

/// Per-stripe activity counters of a ResourcePlanCache (a point-in-time
/// snapshot when read off a live cache). `lookups` counts each Lookup
/// once, in the stripe of its key, so the stripes sum to
/// CacheStats::lookups(). `lock_wait_ns` accumulates only time spent
/// blocked behind another thread: uncontended acquisitions go through a
/// try_lock fast path that never reads the clock.
struct ShardStats {
  size_t entries = 0;
  int64_t lookups = 0;
  int64_t inserts = 0;
  int64_t contended_acquires = 0;
  int64_t lock_wait_ns = 0;
};

/// Cache lookup behaviours (Section VI-B.3).
enum class CacheLookupMode {
  /// Hit only on an exactly matching data characteristic.
  kExact,
  /// Hit on the nearest key within the threshold.
  kNearestNeighbor,
  /// Hit on the distance-weighted average of all neighbors within the
  /// threshold.
  kWeightedAverage,
};

const char* CacheLookupModeName(CacheLookupMode mode);

/// Hit/miss counters (a point-in-time snapshot when read off a live
/// concurrent cache).
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;

  int64_t lookups() const { return hits + misses; }
  /// Hits as a fraction of lookups; 0 when no lookup happened yet.
  double hit_rate() const {
    const int64_t total = lookups();
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// One logical cache entry as seen by callers of Insert: the model it
/// belongs to plus the plan with its original (pre-key-folding) data
/// characteristic. DumpEntries returns these; re-Inserting them into an
/// identically configured cache reproduces the same stored state
/// bit-for-bit, which is what the persistence layer (src/persist/) and
/// the cache_dump wire frames rely on.
struct CacheEntryRecord {
  std::string model;
  CachedResourcePlan plan;
};

/// Observer of cache mutations. Invoked *after* the cache has released
/// every internal lock, so an implementation may call back into the
/// cache (DumpEntries during compaction) without lock-order concerns.
/// Installed via an atomic pointer like the fault injectors in
/// common/net.h: one relaxed load per Insert when absent.
class CacheEventListener {
 public:
  virtual ~CacheEventListener() = default;
  /// One plan was recorded under `model`. `plan.key_gb` is the caller's
  /// original key (before exact-mode key folding).
  virtual void OnInsert(const std::string& model,
                        const CachedResourcePlan& plan) = 0;
};

/// Lock stripes of the shared caches the planning service and the
/// concurrent workload runner build.
inline constexpr size_t kDefaultCacheStripes = 8;

/// The resource-plan cache: per cost model (SMJ, BHJ, ...) an index of
/// data-characteristic keys pointing at the best resource configuration
/// found for them. "A resource configuration computed for one join
/// operator in a query tree could be applied to another join operator in
/// the same tree in case they have similar data characteristics", and
/// across queries in a workload when the cache is kept warm.
///
/// Every cache is safe for concurrent Lookup/Insert from many planner
/// threads. It is laid out as `max(1, shards)` lock stripes, each on its
/// own cache line: one mutex over that stripe's index per model (the
/// layout `index_kind` picks) plus the stripe's counters. A key lives in
/// the stripe its storage key hashes to, so an exact lookup or an insert
/// takes one lock; neighbour lookups visit every stripe, one at a time.
class ResourcePlanCache {
 public:
  ResourcePlanCache(CacheLookupMode mode, double threshold_gb,
                    CacheIndexKind index_kind = CacheIndexKind::kSortedArray,
                    size_t shards = 0);

  /// Looks up a plan for (model, smaller input size). Updates hit/miss
  /// statistics. In kExact mode a caller may pass `larger_gb` to demand
  /// that the entry's full data characteristic matches (an entry for the
  /// same smaller size but a different larger size counts as a miss);
  /// the similarity modes ignore the guard — they approximate by design.
  ///
  /// When the observability layer is on, each call records a
  /// `cache.lookup` span plus hit/miss counters and a latency histogram
  /// under the same prefix (obs/metrics.h); with both metrics and
  /// tracing off the instrumentation is a pair of relaxed loads.
  std::optional<CachedResourcePlan> Lookup(
      const std::string& model_name, double key_gb,
      std::optional<double> larger_gb = std::nullopt);

  /// Records the plan computed for (model, key). Writes go straight
  /// through: the entry is visible to every Lookup, from any thread,
  /// that starts after Insert returns.
  void Insert(const std::string& model_name, const CachedResourcePlan& plan);

  /// Drops every entry (the paper clears the cache between queries unless
  /// evaluating across-query caching), one stripe at a time: an insert
  /// racing the call may survive it, and entry_count() counts it if so.
  void Clear();

  /// Hit/miss counters summed over the stripes.
  CacheStats stats() const;

  /// Zeroes the hit/miss counters and returns their pre-reset values.
  /// Each counter is drained with a single atomic exchange, so no
  /// concurrent increment can slip into the window between reading a
  /// counter and zeroing it and be lost; across counters the snapshot
  /// is per-counter consistent, the strongest guarantee available
  /// without serializing every Lookup.
  CacheStats ResetStats();

  /// One entry per lock stripe, in stripe order. Exposes the skew a
  /// workload's key distribution induces over the stripes.
  std::vector<ShardStats> shard_stats() const;

  CacheLookupMode mode() const { return mode_; }
  double threshold_gb() const { return threshold_gb_; }

  /// Entries across all models, maintained on Insert/Clear. Mirrors the
  /// `cache.entries` gauge.
  int64_t entry_count() const {
    return entry_count_.load(std::memory_order_relaxed);
  }
  /// Approximate resident bytes of the cached entries (struct payload
  /// only, not index overhead). Mirrors the `cache.bytes` gauge.
  int64_t approx_bytes() const;

  /// Installs (nullptr clears) the mutation observer. The caller must
  /// clear it before destroying the listener; the cache never deletes
  /// it. The listener fires outside all cache locks.
  void SetEventListener(CacheEventListener* listener) {
    listener_.store(listener, std::memory_order_release);
  }

  /// Snapshot of every logical entry, deterministically ordered by
  /// (model, smaller_gb, larger_gb). Entries carry the caller-visible
  /// key (key_gb == smaller_gb), so replaying them through Insert on an
  /// identically configured cache rebuilds identical stored state.
  std::vector<CacheEntryRecord> DumpEntries() const;

 private:
  /// One lock stripe, aligned so that no two stripes share a cache line.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    /// Guarded by `mu`: this stripe's share of each model's entries.
    std::map<std::string, std::unique_ptr<ResourcePlanIndex>> per_model;
    size_t entries = 0;  ///< guarded by `mu`
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
    std::atomic<int64_t> inserts{0};
    mutable std::atomic<int64_t> contended_acquires{0};
    mutable std::atomic<int64_t> lock_wait_ns{0};
  };

  /// The uninstrumented lookup; Lookup() wraps it with the observability
  /// layer so the hot path stays branch-light when everything is off.
  std::optional<CachedResourcePlan> LookupImpl(
      const std::string& model_name, double key_gb,
      std::optional<double> larger_gb);

  /// Every entry of `model_name` within threshold_gb_ of `key_gb`,
  /// ascending by key.
  std::vector<CachedResourcePlan> FindNeighbors(
      const std::string& model_name, double key_gb) const;

  /// The stripe owning `storage_key` (the key after exact-mode folding).
  Stripe& StripeFor(double storage_key);

  /// Acquires `stripe.mu`, charging blocked time to the stripe's wait
  /// counters. try_lock first so the common uncontended path costs no
  /// clock read.
  static std::unique_lock<std::mutex> LockStripe(const Stripe& stripe);

  CacheLookupMode mode_;
  double threshold_gb_;
  CacheIndexKind index_kind_;
  std::vector<Stripe> stripes_;
  std::atomic<int64_t> entry_count_{0};
  std::atomic<CacheEventListener*> listener_{nullptr};
};

}  // namespace raqo::core

#endif  // RAQO_CORE_PLAN_CACHE_H_
