#ifndef RAQO_CORE_PLAN_CACHE_H_
#define RAQO_CORE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "resource/resource_config.h"

namespace raqo::core {

/// A cached resource plan: the best configuration found for some data
/// characteristic (the smaller input size) plus its predicted cost.
struct CachedResourcePlan {
  double key_gb = 0.0;
  resource::ResourceConfig config;
  double cost = 0.0;
  /// Larger-input size of the join the plan was computed for. The
  /// resource optimum depends on both inputs, so exact mode keys each
  /// entry by the (key_gb, larger_gb) pair and exact-mode lookups can
  /// pass their larger size as a guard: a hit then provably returns what
  /// recomputation would, which is what makes concurrent shared-cache
  /// planning deterministic (see docs/CONCURRENCY.md).
  double larger_gb = 0.0;
};

/// What an index Insert did to its entries.
enum class InsertOutcome : uint8_t {
  kAdded,      ///< a new key
  kChanged,    ///< an overwrite whose bits differ from the stored entry's
  kUnchanged,  ///< an overwrite with the stored entry's exact bits
};

/// Sorted dynamic array of data-characteristic keys with binary search:
/// the paper's layout ("sorted array of keys, with automatic resizing,
/// binary search for lookup", Section VI-B.3). The nearest-neighbour and
/// weighted-average lookup modes read it in key order.
class SortedArrayIndex {
 public:
  /// Inserts or overwrites the entry at `plan.key_gb`. Callers keeping
  /// an entry count (the cache's obs gauges) count kAdded; the cache
  /// journals kAdded and kChanged.
  InsertOutcome Insert(const CachedResourcePlan& plan);

  /// Exact-key lookup.
  std::optional<CachedResourcePlan> FindExact(double key) const;

  /// All entries with |entry.key - key| <= threshold, ascending by key.
  std::vector<CachedResourcePlan> FindNeighbors(double key,
                                                double threshold) const;

  /// Every entry, ascending by key.
  const std::vector<CachedResourcePlan>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

 private:
  std::vector<CachedResourcePlan> entries_;  // ascending by key_gb
};

/// The exact-mode layout: one entry per (key_gb, larger_gb) pair, kept
/// in insertion order in a dense array and found through a power-of-two
/// array of slots probed linearly from the lower bits of the pair's
/// hash. A slot holds an entry's index + 1 (0 is empty); the slot array
/// doubles whenever it would pass half load, so a probe always ends at
/// the pair or at an empty slot. Both sizes compare with ==, so -0.0 and
/// +0.0 are one key. Inserts are O(1) amortized; nothing here reads key
/// order.
class PairTable {
 public:
  /// Inserts or overwrites the entry for (plan.key_gb, plan.larger_gb).
  InsertOutcome Insert(const CachedResourcePlan& plan);

  /// The entry for exactly this pair, or nullptr. The pointer is valid
  /// until the next Insert.
  const CachedResourcePlan* Find(double smaller_gb, double larger_gb) const;

  /// Every entry, in insertion order.
  const std::vector<CachedResourcePlan>& entries() const { return entries_; }

 private:
  /// The slot holding the pair, or the empty slot where it would go.
  size_t SlotOf(double smaller_gb, double larger_gb) const;
  void Rehash(size_t slot_count);

  std::vector<CachedResourcePlan> entries_;
  std::vector<uint32_t> slots_;
};

/// Index layout selector. The lookup mode decides the layout (a
/// PairTable in exact mode, a SortedArrayIndex otherwise), so this has
/// one value. It is kept only because the frozen planning-server
/// benchmark (planbench/) names it; ROADMAP.md's re-freeze item deletes
/// it with `RaqoEvaluatorOptions::cache_index`.
enum class CacheIndexKind {
  kSortedArray,
};

/// Per-stripe activity counters of a ResourcePlanCache (a point-in-time
/// snapshot when read off a live cache). `lookups` counts each Lookup
/// once, in the stripe of its key, so the stripes sum to
/// CacheStats::lookups(). `contended_acquires` counts the acquisitions
/// that still found the stripe held after a short spin and blocked, and
/// `lock_wait_ns` the time they spent blocked: uncontended and spun
/// acquisitions go through try_lock and never read the clock.
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

/// One cache entry as seen by callers of Insert: the model it belongs to
/// plus the plan as recorded. DumpEntries returns these; re-Inserting
/// them into an identically configured cache reproduces the same stored
/// entries bit-for-bit, which is what the persistence layer
/// (src/persist/) and the cache_dump wire frames rely on.
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
  /// An Insert changed what the cache stores under `model`: it added a
  /// key, or overwrote an entry with different bits. `plan` is exactly
  /// what the caller passed. An insert that stores the bits the entry
  /// already held (planners that missed the same key store the same
  /// plan) fires nothing, so a journal holds one record per change.
  virtual void OnInsert(const std::string& model,
                        const CachedResourcePlan& plan) = 0;
};

/// Lock stripes of the planning service's shared cache.
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
/// own cache line: one mutex over that stripe's entries per model plus
/// the stripe's counters. The lookup mode decides the layout. Exact mode
/// keeps a PairTable per model, keyed by the (smaller, larger) pair; the
/// nearest-neighbour and weighted-average modes keep the paper's
/// SortedArrayIndex, keyed by the smaller size alone. A key lives in the
/// stripe the upper bits of its pair's hash pick (with larger size 0 in
/// the similarity modes), so an exact lookup or an insert takes one lock;
/// neighbour lookups visit every stripe, one at a time.
class ResourcePlanCache {
 public:
  /// `index_kind` is ignored: it is kept only for the frozen planning-
  /// server benchmark (planbench/), until ROADMAP.md's re-freeze item
  /// deletes it together with CacheIndexKind.
  ResourcePlanCache(CacheLookupMode mode, double threshold_gb,
                    CacheIndexKind index_kind = CacheIndexKind::kSortedArray,
                    size_t shards = 0);

  /// Looks up a plan for (model, smaller input size). Updates hit/miss
  /// statistics. In kExact mode a caller may pass `larger_gb` to demand
  /// that the entry's full data characteristic matches (an entry for the
  /// same smaller size but a different larger size counts as a miss);
  /// without it the lookup finds only an entry recorded with larger size
  /// 0. The similarity modes ignore the guard — they approximate by
  /// design.
  ///
  /// With metrics on, each call bumps the `cache.lookup.hit` or `.miss`
  /// counter. Only with tracing on does it also read the clock, record a
  /// `cache.lookup` span and the `cache.lookup.wall_us` histogram
  /// (obs/metrics.h); with both off the instrumentation is a pair of
  /// relaxed loads.
  std::optional<CachedResourcePlan> Lookup(
      const std::string& model_name, double key_gb,
      std::optional<double> larger_gb = std::nullopt);

  /// Records the plan computed for (model, key). Writes go straight
  /// through: the entry is visible to every Lookup, from any thread,
  /// that starts after Insert returns. Exact mode keeps one entry per
  /// (key_gb, larger_gb) pair; the similarity modes one per key_gb. The
  /// event listener fires only when the stored entry changed.
  ///
  /// Under tracing, records a `cache.insert` span and the
  /// `cache.insert.wall_us` histogram (the histogram also needs metrics
  /// on); otherwise the instrumentation is one relaxed load.
  void Insert(const std::string& model_name, const CachedResourcePlan& plan);

  /// Drops every entry (the paper clears the cache between queries unless
  /// evaluating across-query caching), one stripe at a time: an insert
  /// racing the call may survive it, and entry_count() counts it if so.
  void Clear();

  /// Hit/miss counters summed over the stripes, since the cache was
  /// built. A caller that wants the lookups of one interval takes the
  /// difference of two snapshots.
  CacheStats stats() const;

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
  /// Approximate resident bytes of the cached entries: entry_count()
  /// times the entry size of the mode's layout (the plan, plus in exact
  /// mode the two PairTable slots an entry owns at half load). Mirrors
  /// the `cache.bytes` gauge.
  int64_t approx_bytes() const;

  /// Installs (nullptr clears) the mutation observer. The caller must
  /// clear it before destroying the listener; the cache never deletes
  /// it. The listener fires outside all cache locks.
  void SetEventListener(CacheEventListener* listener) {
    listener_.store(listener, std::memory_order_release);
  }

  /// Snapshot of every entry, deterministically ordered by (model,
  /// key_gb, larger_gb), so replaying them through Insert on an
  /// identically configured cache rebuilds identical stored state.
  std::vector<CacheEntryRecord> DumpEntries() const;

 private:
  /// One lock stripe, aligned so that no two stripes share a cache line.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    /// Guarded by `mu`: this stripe's share of each model's entries, in
    /// the layout of the cache's mode (the other map stays empty).
    std::map<std::string, PairTable> exact;
    std::map<std::string, SortedArrayIndex> sorted;
    size_t entries = 0;  ///< guarded by `mu`
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
    std::atomic<int64_t> inserts{0};
    mutable std::atomic<int64_t> contended_acquires{0};
    mutable std::atomic<int64_t> lock_wait_ns{0};
  };

  /// The uninstrumented lookup and insert; Lookup() and Insert() wrap
  /// them with the observability layer so the hot path stays
  /// branch-light when everything is off.
  std::optional<CachedResourcePlan> LookupImpl(
      const std::string& model_name, double key_gb,
      std::optional<double> larger_gb);
  /// Returns whether the stored entry changed (kAdded or kChanged).
  bool InsertImpl(const std::string& model_name,
                  const CachedResourcePlan& plan);

  /// Every entry of `model_name` within threshold_gb_ of `key_gb`,
  /// ascending by key.
  std::vector<CachedResourcePlan> FindNeighbors(
      const std::string& model_name, double key_gb) const;

  /// The stripe owning the (smaller, larger) pair.
  Stripe& StripeFor(double smaller_gb, double larger_gb);

  /// Acquires `stripe.mu`: try_lock, then a short spin of try_lock
  /// retries with a pause hint, and only then a blocking lock, whose
  /// wait is charged to the stripe's counters. The uncontended path
  /// costs no clock read.
  static std::unique_lock<std::mutex> LockStripe(const Stripe& stripe);

  CacheLookupMode mode_;
  double threshold_gb_;
  std::vector<Stripe> stripes_;
  std::atomic<int64_t> entry_count_{0};
  std::atomic<CacheEventListener*> listener_{nullptr};
};

}  // namespace raqo::core

#endif  // RAQO_CORE_PLAN_CACHE_H_
