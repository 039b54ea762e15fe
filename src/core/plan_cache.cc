#include "core/plan_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace raqo::core {

bool SortedArrayIndex::Insert(const CachedResourcePlan& plan) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), plan.key_gb,
      [](const CachedResourcePlan& e, double k) { return e.key_gb < k; });
  if (it != entries_.end() && it->key_gb == plan.key_gb) {
    *it = plan;  // overwrite
    return false;
  }
  entries_.insert(it, plan);
  return true;
}

std::optional<CachedResourcePlan> SortedArrayIndex::FindExact(
    double key) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const CachedResourcePlan& e, double k) { return e.key_gb < k; });
  if (it != entries_.end() && it->key_gb == key) return *it;
  return std::nullopt;
}

std::vector<CachedResourcePlan> SortedArrayIndex::FindNeighbors(
    double key, double threshold) const {
  std::vector<CachedResourcePlan> out;
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key - threshold,
      [](const CachedResourcePlan& e, double k) { return e.key_gb < k; });
  for (; it != entries_.end() && it->key_gb <= key + threshold; ++it) {
    out.push_back(*it);
  }
  return out;
}

void SortedArrayIndex::ForEach(
    const std::function<void(const CachedResourcePlan&)>& fn) const {
  for (const CachedResourcePlan& entry : entries_) fn(entry);
}

bool CsbTreeIndex::Insert(const CachedResourcePlan& plan) {
  if (std::optional<int64_t> existing = tree_.Find(plan.key_gb)) {
    payloads_[static_cast<size_t>(*existing)] = plan;
    return false;
  }
  payloads_.push_back(plan);
  tree_.Insert(plan.key_gb, static_cast<int64_t>(payloads_.size() - 1));
  return true;
}

std::optional<CachedResourcePlan> CsbTreeIndex::FindExact(double key) const {
  if (std::optional<int64_t> handle = tree_.Find(key)) {
    return payloads_[static_cast<size_t>(*handle)];
  }
  return std::nullopt;
}

std::vector<CachedResourcePlan> CsbTreeIndex::FindNeighbors(
    double key, double threshold) const {
  std::vector<CachedResourcePlan> out;
  tree_.Scan(key - threshold, key + threshold, [&](double, int64_t handle) {
    out.push_back(payloads_[static_cast<size_t>(handle)]);
  });
  return out;
}

void CsbTreeIndex::ForEach(
    const std::function<void(const CachedResourcePlan&)>& fn) const {
  // The tree scan yields keys ascending; payloads_ holds them insertion
  // ordered, so iterate through the tree for the ordering promise.
  tree_.Scan(-std::numeric_limits<double>::infinity(),
             std::numeric_limits<double>::infinity(),
             [&](double, int64_t handle) {
               fn(payloads_[static_cast<size_t>(handle)]);
             });
}

const char* CacheLookupModeName(CacheLookupMode mode) {
  switch (mode) {
    case CacheLookupMode::kExact:
      return "exact";
    case CacheLookupMode::kNearestNeighbor:
      return "nearest-neighbor";
    case CacheLookupMode::kWeightedAverage:
      return "weighted-average";
  }
  return "?";
}

ResourcePlanCache::ResourcePlanCache(CacheLookupMode mode,
                                     double threshold_gb,
                                     CacheIndexKind index_kind,
                                     size_t shards)
    : mode_(mode),
      threshold_gb_(threshold_gb),
      index_kind_(index_kind),
      stripes_(std::max<size_t>(1, shards)) {
  RAQO_CHECK(threshold_gb >= 0.0) << "cache threshold must be non-negative";
}

ResourcePlanCache::Stripe& ResourcePlanCache::StripeFor(double storage_key) {
  // +0.0 and -0.0 hash alike, matching their key equality.
  if (storage_key == 0.0) storage_key = 0.0;
  return stripes_[std::hash<double>{}(storage_key) % stripes_.size()];
}

std::unique_lock<std::mutex> ResourcePlanCache::LockStripe(
    const Stripe& stripe) {
  std::unique_lock<std::mutex> lock(stripe.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Contended: another planner thread holds this stripe. Only now is
    // the clock read, so the uncontended path stays wait-free of timing
    // overhead.
    Stopwatch waited;
    lock.lock();
    stripe.contended_acquires.fetch_add(1, std::memory_order_relaxed);
    stripe.lock_wait_ns.fetch_add(
        static_cast<int64_t>(waited.ElapsedMicros() * 1e3),
        std::memory_order_relaxed);
  }
  return lock;
}

namespace {

/// Exact mode stores one entry per (smaller, larger) input pair: the
/// index key mixes the bit patterns of both sizes into a 53-bit
/// integer-valued double (exactly representable, totally ordered), so
/// distinct pairs land on distinct keys. An arithmetic fold such as
/// ss + 1e6 * ls would round away small smaller-side differences once
/// the larger side dominates the magnitude, silently overwriting
/// distinct pairs. Residual hash collisions (~n^2 / 2^54) are harmless:
/// lookups verify the true pair on the entry itself.
double ExactStorageKey(double smaller_gb, double larger_gb) {
  if (larger_gb == 0.0) return smaller_gb;
  uint64_t a = 0;
  uint64_t b = 0;
  std::memcpy(&a, &smaller_gb, sizeof(a));
  std::memcpy(&b, &larger_gb, sizeof(b));
  uint64_t h = a * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  h += b;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  return static_cast<double>(h >> 11);
}

}  // namespace

std::optional<CachedResourcePlan> ResourcePlanCache::Lookup(
    const std::string& model_name, double key_gb,
    std::optional<double> larger_gb) {
  const bool metrics_on = obs::MetricsOn();
  const bool tracing_on = obs::TracingOn();
  if (!metrics_on && !tracing_on) {
    return LookupImpl(model_name, key_gb, larger_gb);
  }

  Stopwatch timer;
  obs::Span span = obs::DefaultTracer().StartSpan("cache.lookup");
  std::optional<CachedResourcePlan> result =
      LookupImpl(model_name, key_gb, larger_gb);
  if (span.recording()) {
    span.SetAttr("model", model_name);
    span.SetAttr("key_gb", key_gb);
    span.SetAttr("hit", static_cast<int64_t>(result.has_value()));
  }
  if (metrics_on) {
    static obs::Counter* hit_count =
        obs::DefaultMetrics().GetCounter("cache.lookup.hit");
    static obs::Counter* miss_count =
        obs::DefaultMetrics().GetCounter("cache.lookup.miss");
    static obs::Histogram* latency =
        obs::DefaultMetrics().GetHistogram("cache.lookup.wall_us");
    (result.has_value() ? hit_count : miss_count)->Add(1);
    latency->Record(timer.ElapsedMicros());
  }
  return result;
}

std::optional<CachedResourcePlan> ResourcePlanCache::LookupImpl(
    const std::string& model_name, double key_gb,
    std::optional<double> larger_gb) {
  // Exact mode with a larger-size guard: the entry must have been
  // computed for this very (smaller, larger) pair — a configuration
  // reused across pairs would depend on which join populated the cache
  // first, which is acceptable for the similarity modes but fatal for
  // determinism under concurrent sharing. The pair is re-verified on the
  // entry, so folded-key aliasing can never produce a false hit.
  const bool guarded =
      mode_ == CacheLookupMode::kExact && larger_gb.has_value();
  const double storage_key =
      guarded ? ExactStorageKey(key_gb, *larger_gb) : key_gb;
  Stripe& stripe = StripeFor(storage_key);
  std::optional<CachedResourcePlan> found;
  {
    std::unique_lock<std::mutex> lock = LockStripe(stripe);
    auto it = stripe.per_model.find(model_name);
    if (it != stripe.per_model.end()) {
      found = it->second->FindExact(storage_key);
    }
  }
  if (found && guarded) {
    if (found->smaller_gb == key_gb && found->larger_gb == *larger_gb) {
      found->key_gb = key_gb;  // restore the caller-facing key
    } else {
      found.reset();
    }
  }
  if (found) {
    stripe.hits.fetch_add(1, std::memory_order_relaxed);
    return found;
  }

  // Every mode tried an exact match first; the similarity modes then
  // fall back to the neighbours within the threshold.
  if (mode_ != CacheLookupMode::kExact && threshold_gb_ > 0.0) {
    const std::vector<CachedResourcePlan> neighbors =
        FindNeighbors(model_name, key_gb);
    if (!neighbors.empty()) {
      stripe.hits.fetch_add(1, std::memory_order_relaxed);
      if (mode_ == CacheLookupMode::kNearestNeighbor) {
        const CachedResourcePlan* best = &neighbors[0];
        for (const CachedResourcePlan& n : neighbors) {
          if (std::fabs(n.key_gb - key_gb) <
              std::fabs(best->key_gb - key_gb)) {
            best = &n;
          }
        }
        return *best;
      }
      // Weighted average: inverse-distance weighting of the neighboring
      // resource configurations and costs.
      double weight_sum = 0.0;
      double cs = 0.0;
      double nc = 0.0;
      double cost = 0.0;
      for (const CachedResourcePlan& n : neighbors) {
        const double w = 1.0 / (std::fabs(n.key_gb - key_gb) + 1e-9);
        weight_sum += w;
        cs += w * n.config.container_size_gb();
        nc += w * n.config.num_containers();
        cost += w * n.cost;
      }
      CachedResourcePlan blended;
      blended.key_gb = key_gb;
      blended.config = resource::ResourceConfig(cs / weight_sum,
                                                nc / weight_sum);
      blended.cost = cost / weight_sum;
      return blended;
    }
  }
  stripe.misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

std::vector<CachedResourcePlan> ResourcePlanCache::FindNeighbors(
    const std::string& model_name, double key_gb) const {
  // Hash striping scatters a key range over every stripe; gather per
  // stripe (each under its own lock, never two at once) and restore the
  // ascending order.
  std::vector<CachedResourcePlan> out;
  for (const Stripe& stripe : stripes_) {
    std::unique_lock<std::mutex> lock = LockStripe(stripe);
    auto it = stripe.per_model.find(model_name);
    if (it == stripe.per_model.end()) continue;
    std::vector<CachedResourcePlan> part =
        it->second->FindNeighbors(key_gb, threshold_gb_);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end(),
            [](const CachedResourcePlan& a, const CachedResourcePlan& b) {
              return a.key_gb < b.key_gb;
            });
  return out;
}

namespace {

/// Approximate resident footprint of one cached entry: the plan struct
/// plus the per-key index slot it occupies (key + payload handle).
constexpr int64_t kApproxEntryBytes =
    static_cast<int64_t>(sizeof(CachedResourcePlan)) + 16;

std::unique_ptr<ResourcePlanIndex> MakeIndex(CacheIndexKind kind) {
  if (kind == CacheIndexKind::kCsbTree) {
    return std::make_unique<CsbTreeIndex>();
  }
  return std::make_unique<SortedArrayIndex>();
}

/// Publishes the `cache.entries` and `cache.bytes` gauges.
void SetEntryGauges(int64_t entries) {
  if (!obs::MetricsOn()) return;
  static obs::Gauge* entries_gauge =
      obs::DefaultMetrics().GetGauge("cache.entries");
  static obs::Gauge* bytes_gauge =
      obs::DefaultMetrics().GetGauge("cache.bytes");
  entries_gauge->Set(static_cast<double>(entries));
  bytes_gauge->Set(static_cast<double>(entries * kApproxEntryBytes));
}

}  // namespace

void ResourcePlanCache::Insert(const std::string& model_name,
                               const CachedResourcePlan& plan) {
  CachedResourcePlan entry = plan;
  entry.smaller_gb = plan.key_gb;
  if (mode_ == CacheLookupMode::kExact) {
    // One entry per (smaller, larger) pair; with no larger size recorded
    // the storage key degenerates to the plain data characteristic, so
    // guard-less callers see the paper's original exact-match layout.
    entry.key_gb = ExactStorageKey(plan.key_gb, plan.larger_gb);
  }
  Stripe& stripe = StripeFor(entry.key_gb);
  stripe.inserts.fetch_add(1, std::memory_order_relaxed);
  int64_t entries = 0;
  {
    std::unique_lock<std::mutex> lock = LockStripe(stripe);
    std::unique_ptr<ResourcePlanIndex>& index = stripe.per_model[model_name];
    if (index == nullptr) index = MakeIndex(index_kind_);
    if (index->Insert(entry)) {
      // Counted under the stripe lock, so Clear() subtracts exactly the
      // entries it drops.
      ++stripe.entries;
      entries = entry_count_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
  }
  if (entries > 0) SetEntryGauges(entries);
  // Fire the mutation observer strictly after the stripe lock is
  // released: a listener journaling to disk or snapshotting the cache
  // (which re-enters via DumpEntries) must never nest under a stripe.
  if (CacheEventListener* listener =
          listener_.load(std::memory_order_acquire);
      listener != nullptr) {
    listener->OnInsert(model_name, plan);
  }
}

void ResourcePlanCache::Clear() {
  for (Stripe& stripe : stripes_) {
    std::unique_lock<std::mutex> lock = LockStripe(stripe);
    stripe.per_model.clear();
    entry_count_.fetch_sub(static_cast<int64_t>(stripe.entries),
                           std::memory_order_relaxed);
    stripe.entries = 0;
  }
  SetEntryGauges(entry_count());
}

int64_t ResourcePlanCache::approx_bytes() const {
  return entry_count() * kApproxEntryBytes;
}

CacheStats ResourcePlanCache::stats() const {
  CacheStats out;
  for (const Stripe& stripe : stripes_) {
    out.hits += stripe.hits.load(std::memory_order_relaxed);
    out.misses += stripe.misses.load(std::memory_order_relaxed);
  }
  return out;
}

CacheStats ResourcePlanCache::ResetStats() {
  CacheStats out;
  for (Stripe& stripe : stripes_) {
    out.hits += stripe.hits.exchange(0, std::memory_order_relaxed);
    out.misses += stripe.misses.exchange(0, std::memory_order_relaxed);
  }
  return out;
}

std::vector<ShardStats> ResourcePlanCache::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(stripes_.size());
  for (const Stripe& stripe : stripes_) {
    ShardStats s;
    s.lookups = stripe.hits.load(std::memory_order_relaxed) +
                stripe.misses.load(std::memory_order_relaxed);
    s.inserts = stripe.inserts.load(std::memory_order_relaxed);
    s.contended_acquires =
        stripe.contended_acquires.load(std::memory_order_relaxed);
    s.lock_wait_ns = stripe.lock_wait_ns.load(std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock = LockStripe(stripe);
      s.entries = stripe.entries;
    }
    out.push_back(s);
  }
  return out;
}

std::vector<CacheEntryRecord> ResourcePlanCache::DumpEntries() const {
  std::vector<CacheEntryRecord> out;
  for (const Stripe& stripe : stripes_) {
    std::unique_lock<std::mutex> lock = LockStripe(stripe);
    for (const auto& [model, index] : stripe.per_model) {
      index->ForEach([&](const CachedResourcePlan& stored) {
        CacheEntryRecord record;
        record.model = model;
        record.plan = stored;
        // Undo exact-mode key folding: the logical key is the original
        // data characteristic, which Insert preserved in smaller_gb.
        // Re-Inserting the record re-derives the identical storage key.
        record.plan.key_gb = stored.smaller_gb;
        out.push_back(std::move(record));
      });
    }
  }
  // Stripes scatter each model's entries, and within a stripe the index
  // yields storage-key order, which under exact-mode folding is not the
  // logical order. Impose the canonical (model, smaller, larger) order
  // so two dumps of equal caches are byte-identical when serialized.
  std::sort(out.begin(), out.end(),
            [](const CacheEntryRecord& a, const CacheEntryRecord& b) {
              if (a.model != b.model) return a.model < b.model;
              if (a.plan.smaller_gb != b.plan.smaller_gb) {
                return a.plan.smaller_gb < b.plan.smaller_gb;
              }
              return a.plan.larger_gb < b.plan.larger_gb;
            });
  return out;
}

}  // namespace raqo::core
