#ifndef RAQO_CORE_PLAN_CACHE_H_
#define RAQO_CORE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
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

/// A thread-safe index that stripes keys across `num_shards` inner
/// indexes (SortedArrayIndex or CsbTreeIndex per `inner`), each behind
/// its own mutex, so concurrent planners contend on a shard rather than
/// on the whole index. Keys are distributed by hash, so FindNeighbors
/// gathers from every shard and merges the results back into ascending
/// key order.
/// Per-shard activity counters (a point-in-time snapshot when read off a
/// live concurrent index). `lock_wait_ns` accumulates only time spent
/// blocked behind another thread — uncontended acquisitions go through a
/// try_lock fast path that never reads the clock.
struct ShardStats {
  size_t entries = 0;
  int64_t lookups = 0;
  int64_t inserts = 0;
  int64_t contended_acquires = 0;
  int64_t lock_wait_ns = 0;
};

class ShardedResourcePlanIndex : public ResourcePlanIndex {
 public:
  ShardedResourcePlanIndex(CacheIndexKind inner, size_t num_shards);

  bool Insert(const CachedResourcePlan& plan) override;
  std::optional<CachedResourcePlan> FindExact(double key) const override;
  std::vector<CachedResourcePlan> FindNeighbors(
      double key, double threshold) const override;
  void ForEach(const std::function<void(const CachedResourcePlan&)>& fn)
      const override;
  size_t size() const override;
  const char* name() const override;

  size_t num_shards() const { return shards_.size(); }

  /// One entry per shard, in shard order. Exposes the skew a workload's
  /// key distribution induces over the lock stripes.
  std::vector<ShardStats> shard_stats() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unique_ptr<ResourcePlanIndex> index;
    mutable std::atomic<int64_t> lookups{0};
    mutable std::atomic<int64_t> inserts{0};
    mutable std::atomic<int64_t> contended_acquires{0};
    mutable std::atomic<int64_t> lock_wait_ns{0};
  };

  /// Acquires `shard.mu`, charging blocked time to the shard's wait
  /// counters. try_lock first so the common uncontended path costs no
  /// clock read.
  static std::unique_lock<std::mutex> LockShard(const Shard& shard);

  const Shard& ShardFor(double key) const;
  Shard& ShardFor(double key);

  CacheIndexKind inner_;
  std::vector<Shard> shards_;
};

/// Builds a bare (unsharded) index of the given layout.
std::unique_ptr<ResourcePlanIndex> MakeResourcePlanIndex(CacheIndexKind kind);

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

/// The resource-plan cache: per cost model (SMJ, BHJ, ...) an index of
/// data-characteristic keys pointing at the best resource configuration
/// found for them. "A resource configuration computed for one join
/// operator in a query tree could be applied to another join operator in
/// the same tree in case they have similar data characteristics", and
/// across queries in a workload when the cache is kept warm.
///
/// With `shards > 0` the cache is safe for concurrent Lookup/Insert from
/// many planner threads: each per-model index is a
/// ShardedResourcePlanIndex with that many lock stripes, the per-model
/// map is guarded by a reader/writer lock, and the hit/miss counters are
/// atomic. With the default `shards == 0` the layout is the paper's
/// single-threaded one.
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
  /// evaluating across-query caching).
  void Clear();

  CacheStats stats() const {
    return CacheStats{hits_.load(std::memory_order_relaxed),
                      misses_.load(std::memory_order_relaxed)};
  }

  /// Zeroes the hit/miss counters and returns their pre-reset values.
  /// Each counter is drained with a single atomic exchange, so no
  /// concurrent increment can slip into the window between reading a
  /// counter and zeroing it and be lost; across the two counters the
  /// snapshot is per-counter consistent, the strongest guarantee
  /// available without serializing every Lookup.
  CacheStats ResetStats() {
    return CacheStats{hits_.exchange(0, std::memory_order_relaxed),
                      misses_.exchange(0, std::memory_order_relaxed)};
  }

  /// Aggregated per-shard stats: entry `i` sums shard `i` of every
  /// per-model sharded index. Empty when the cache is unsharded.
  std::vector<ShardStats> shard_stats() const;

  CacheLookupMode mode() const { return mode_; }
  double threshold_gb() const { return threshold_gb_; }
  size_t shards() const { return shards_; }

  /// Total entries across all models.
  size_t size() const;

  /// Cheap O(1) entry count maintained on Insert/Clear (size() walks
  /// every index). Mirrors the `cache.entries` gauge.
  int64_t entry_count() const {
    return entry_count_.load(std::memory_order_relaxed);
  }
  /// Approximate resident bytes of the cached entries (struct payload
  /// only, not index overhead). Mirrors the `cache.bytes` gauge.
  int64_t approx_bytes() const {
    return approx_bytes_.load(std::memory_order_relaxed);
  }

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
  /// The uninstrumented lookup; Lookup() wraps it with the observability
  /// layer so the hot path stays branch-light when everything is off.
  std::optional<CachedResourcePlan> LookupImpl(
      const std::string& model_name, double key_gb,
      std::optional<double> larger_gb);

  /// Returns the index for `model_name`, creating it if absent. The
  /// caller must hold `map_mu_` (shared suffices once the index exists;
  /// creation upgrades to exclusive internally via the two-phase pattern
  /// in Lookup/Insert).
  ResourcePlanIndex* FindIndex(const std::string& model_name) const;
  ResourcePlanIndex& IndexFor(const std::string& model_name);

  CacheLookupMode mode_;
  double threshold_gb_;
  CacheIndexKind index_kind_;
  size_t shards_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> entry_count_{0};
  std::atomic<int64_t> approx_bytes_{0};
  std::atomic<CacheEventListener*> listener_{nullptr};
  /// Guards `per_model_` (the map itself; sharded indexes carry their own
  /// stripe locks, unsharded indexes rely on this lock being held in
  /// shared mode only by single-threaded callers).
  mutable std::shared_mutex map_mu_;
  std::map<std::string, std::unique_ptr<ResourcePlanIndex>> per_model_;
};

}  // namespace raqo::core

#endif  // RAQO_CORE_PLAN_CACHE_H_
