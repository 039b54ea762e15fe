#include "core/plan_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace raqo::core {

namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Overwrites `stored` with `plan`, reporting whether any bit changed.
InsertOutcome Overwrite(CachedResourcePlan& stored,
                        const CachedResourcePlan& plan) {
  const bool same =
      SameBits(stored.key_gb, plan.key_gb) &&
      SameBits(stored.config.container_size_gb(),
               plan.config.container_size_gb()) &&
      SameBits(stored.config.num_containers(), plan.config.num_containers()) &&
      SameBits(stored.cost, plan.cost) &&
      SameBits(stored.larger_gb, plan.larger_gb);
  if (same) return InsertOutcome::kUnchanged;
  stored = plan;
  return InsertOutcome::kChanged;
}

}  // namespace

InsertOutcome SortedArrayIndex::Insert(const CachedResourcePlan& plan) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), plan.key_gb,
      [](const CachedResourcePlan& e, double k) { return e.key_gb < k; });
  if (it != entries_.end() && it->key_gb == plan.key_gb) {
    return Overwrite(*it, plan);
  }
  entries_.insert(it, plan);
  return InsertOutcome::kAdded;
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

namespace {

/// Hash of a (smaller, larger) size pair. The cache picks a key's lock
/// stripe from the upper 32 bits and a PairTable slot from the lower
/// ones. -0.0 == +0.0 as keys, so both hash as +0.0.
uint64_t PairHash(double smaller_gb, double larger_gb) {
  if (smaller_gb == 0.0) smaller_gb = 0.0;
  if (larger_gb == 0.0) larger_gb = 0.0;
  uint64_t a = 0;
  uint64_t b = 0;
  std::memcpy(&a, &smaller_gb, sizeof(a));
  std::memcpy(&b, &larger_gb, sizeof(b));
  uint64_t h = a * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  h += b;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 32;
  return h;
}

}  // namespace

size_t PairTable::SlotOf(double smaller_gb, double larger_gb) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = PairHash(smaller_gb, larger_gb) & mask;;
       i = (i + 1) & mask) {
    const uint32_t slot = slots_[i];
    if (slot == 0) return i;
    const CachedResourcePlan& entry = entries_[slot - 1];
    if (entry.key_gb == smaller_gb && entry.larger_gb == larger_gb) return i;
  }
}

void PairTable::Rehash(size_t slot_count) {
  slots_.assign(slot_count, 0);
  const size_t mask = slot_count - 1;
  for (size_t e = 0; e < entries_.size(); ++e) {
    size_t i = PairHash(entries_[e].key_gb, entries_[e].larger_gb) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(e + 1);
  }
}

InsertOutcome PairTable::Insert(const CachedResourcePlan& plan) {
  if (2 * (entries_.size() + 1) > slots_.size()) {
    RAQO_CHECK(entries_.size() < std::numeric_limits<uint32_t>::max())
        << "PairTable holds at most 2^32 - 1 entries";
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  uint32_t& slot = slots_[SlotOf(plan.key_gb, plan.larger_gb)];
  if (slot != 0) return Overwrite(entries_[slot - 1], plan);
  entries_.push_back(plan);
  slot = static_cast<uint32_t>(entries_.size());
  return InsertOutcome::kAdded;
}

const CachedResourcePlan* PairTable::Find(double smaller_gb,
                                          double larger_gb) const {
  if (entries_.empty()) return nullptr;
  const uint32_t slot = slots_[SlotOf(smaller_gb, larger_gb)];
  return slot == 0 ? nullptr : &entries_[slot - 1];
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

namespace {

/// Resident bytes per entry of the layout `mode` uses: the plan, plus in
/// exact mode the two 4-byte PairTable slots each entry owns at the
/// table's maximum load of one half.
int64_t EntryBytes(CacheLookupMode mode) {
  const size_t bytes = mode == CacheLookupMode::kExact
                           ? sizeof(CachedResourcePlan) + 2 * sizeof(uint32_t)
                           : sizeof(CachedResourcePlan);
  return static_cast<int64_t>(bytes);
}

/// Publishes the `cache.entries` and `cache.bytes` gauges.
void SetEntryGauges(int64_t entries, int64_t entry_bytes) {
  if (!obs::MetricsOn()) return;
  static obs::Gauge* entries_gauge =
      obs::DefaultMetrics().GetGauge("cache.entries");
  static obs::Gauge* bytes_gauge =
      obs::DefaultMetrics().GetGauge("cache.bytes");
  entries_gauge->Set(static_cast<double>(entries));
  bytes_gauge->Set(static_cast<double>(entries * entry_bytes));
}

}  // namespace

ResourcePlanCache::ResourcePlanCache(CacheLookupMode mode,
                                     double threshold_gb,
                                     CacheIndexKind /*index_kind*/,
                                     size_t shards)
    : mode_(mode),
      threshold_gb_(threshold_gb),
      stripes_(std::max<size_t>(1, shards)) {
  RAQO_CHECK(threshold_gb >= 0.0) << "cache threshold must be non-negative";
}

ResourcePlanCache::Stripe& ResourcePlanCache::StripeFor(double smaller_gb,
                                                        double larger_gb) {
  return stripes_[(PairHash(smaller_gb, larger_gb) >> 32) % stripes_.size()];
}

namespace {

/// Tells the core this thread is spinning, where the platform has a hint
/// for it.
void SpinPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// try_lock retries before a contended stripe acquire blocks. A stripe
/// is held for one table probe or insert, far shorter than a sleep and
/// wake-up through the kernel.
constexpr int kStripeSpins = 64;

}  // namespace

std::unique_lock<std::mutex> ResourcePlanCache::LockStripe(
    const Stripe& stripe) {
  std::unique_lock<std::mutex> lock(stripe.mu, std::try_to_lock);
  for (int spin = 0; spin < kStripeSpins && !lock.owns_lock(); ++spin) {
    SpinPause();
    lock.try_lock();
  }
  if (!lock.owns_lock()) {
    // Still held after spinning: block. Only now is the clock read, so
    // the uncontended path stays free of timing overhead.
    Stopwatch waited;
    lock.lock();
    stripe.contended_acquires.fetch_add(1, std::memory_order_relaxed);
    stripe.lock_wait_ns.fetch_add(
        static_cast<int64_t>(waited.ElapsedMicros() * 1e3),
        std::memory_order_relaxed);
  }
  return lock;
}

std::optional<CachedResourcePlan> ResourcePlanCache::Lookup(
    const std::string& model_name, double key_gb,
    std::optional<double> larger_gb) {
  const bool metrics_on = obs::MetricsOn();
  std::optional<CachedResourcePlan> result;
  if (!obs::TracingOn()) {
    result = LookupImpl(model_name, key_gb, larger_gb);
  } else {
    Stopwatch timer;
    obs::Span span = obs::DefaultTracer().StartSpan("cache.lookup");
    result = LookupImpl(model_name, key_gb, larger_gb);
    if (span.recording()) {
      span.SetAttr("model", model_name);
      span.SetAttr("key_gb", key_gb);
      span.SetAttr("hit", static_cast<int64_t>(result.has_value()));
    }
    if (metrics_on) {
      static obs::Histogram* latency =
          obs::DefaultMetrics().GetHistogram("cache.lookup.wall_us");
      latency->Record(timer.ElapsedMicros());
    }
  }
  if (metrics_on) {
    static obs::Counter* hit_count =
        obs::DefaultMetrics().GetCounter("cache.lookup.hit");
    static obs::Counter* miss_count =
        obs::DefaultMetrics().GetCounter("cache.lookup.miss");
    (result.has_value() ? hit_count : miss_count)->Add(1);
  }
  return result;
}

std::optional<CachedResourcePlan> ResourcePlanCache::LookupImpl(
    const std::string& model_name, double key_gb,
    std::optional<double> larger_gb) {
  if (mode_ == CacheLookupMode::kExact) {
    // The entry must have been computed for this very (smaller, larger)
    // pair — a configuration reused across pairs would depend on which
    // join populated the cache first, which is acceptable for the
    // similarity modes but fatal for determinism under concurrent
    // sharing. Without a guard the pair is (key, 0): the entries
    // recorded without a larger size, keyed as in the paper.
    const double larger = larger_gb.value_or(0.0);
    Stripe& stripe = StripeFor(key_gb, larger);
    std::optional<CachedResourcePlan> found;
    {
      std::unique_lock<std::mutex> lock = LockStripe(stripe);
      auto it = stripe.exact.find(model_name);
      if (it != stripe.exact.end()) {
        if (const CachedResourcePlan* entry = it->second.Find(key_gb, larger)) {
          found = *entry;
        }
      }
    }
    (found ? stripe.hits : stripe.misses)
        .fetch_add(1, std::memory_order_relaxed);
    return found;
  }

  // The similarity modes try an exact match first, then fall back to the
  // neighbours within the threshold.
  Stripe& stripe = StripeFor(key_gb, 0.0);
  std::optional<CachedResourcePlan> found;
  {
    std::unique_lock<std::mutex> lock = LockStripe(stripe);
    auto it = stripe.sorted.find(model_name);
    if (it != stripe.sorted.end()) found = it->second.FindExact(key_gb);
  }
  if (found) {
    stripe.hits.fetch_add(1, std::memory_order_relaxed);
    return found;
  }
  if (threshold_gb_ > 0.0) {
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
    auto it = stripe.sorted.find(model_name);
    if (it == stripe.sorted.end()) continue;
    std::vector<CachedResourcePlan> part =
        it->second.FindNeighbors(key_gb, threshold_gb_);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end(),
            [](const CachedResourcePlan& a, const CachedResourcePlan& b) {
              return a.key_gb < b.key_gb;
            });
  return out;
}

void ResourcePlanCache::Insert(const std::string& model_name,
                               const CachedResourcePlan& plan) {
  bool changed = false;
  if (!obs::TracingOn()) {
    changed = InsertImpl(model_name, plan);
  } else {
    Stopwatch timer;
    obs::Span span = obs::DefaultTracer().StartSpan("cache.insert");
    changed = InsertImpl(model_name, plan);
    if (span.recording()) {
      span.SetAttr("model", model_name);
      span.SetAttr("key_gb", plan.key_gb);
      span.SetAttr("larger_gb", plan.larger_gb);
    }
    if (obs::MetricsOn()) {
      static obs::Histogram* latency =
          obs::DefaultMetrics().GetHistogram("cache.insert.wall_us");
      latency->Record(timer.ElapsedMicros());
    }
  }
  // Fire the mutation observer strictly after the stripe lock is
  // released: a listener journaling to disk or snapshotting the cache
  // (which re-enters via DumpEntries) must never nest under a stripe.
  // Only changes fire it, so a replay of its records rebuilds this state
  // from one record per change.
  if (!changed) return;
  if (CacheEventListener* listener =
          listener_.load(std::memory_order_acquire);
      listener != nullptr) {
    listener->OnInsert(model_name, plan);
  }
}

bool ResourcePlanCache::InsertImpl(const std::string& model_name,
                                   const CachedResourcePlan& plan) {
  const bool exact = mode_ == CacheLookupMode::kExact;
  Stripe& stripe = StripeFor(plan.key_gb, exact ? plan.larger_gb : 0.0);
  stripe.inserts.fetch_add(1, std::memory_order_relaxed);
  int64_t entries = 0;
  InsertOutcome outcome = InsertOutcome::kUnchanged;
  {
    std::unique_lock<std::mutex> lock = LockStripe(stripe);
    outcome = exact ? stripe.exact[model_name].Insert(plan)
                    : stripe.sorted[model_name].Insert(plan);
    if (outcome == InsertOutcome::kAdded) {
      // Counted under the stripe lock, so Clear() subtracts exactly the
      // entries it drops.
      ++stripe.entries;
      entries = entry_count_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
  }
  if (entries > 0) SetEntryGauges(entries, EntryBytes(mode_));
  return outcome != InsertOutcome::kUnchanged;
}

void ResourcePlanCache::Clear() {
  for (Stripe& stripe : stripes_) {
    std::unique_lock<std::mutex> lock = LockStripe(stripe);
    stripe.exact.clear();
    stripe.sorted.clear();
    entry_count_.fetch_sub(static_cast<int64_t>(stripe.entries),
                           std::memory_order_relaxed);
    stripe.entries = 0;
  }
  SetEntryGauges(entry_count(), EntryBytes(mode_));
}

int64_t ResourcePlanCache::approx_bytes() const {
  return entry_count() * EntryBytes(mode_);
}

CacheStats ResourcePlanCache::stats() const {
  CacheStats out;
  for (const Stripe& stripe : stripes_) {
    out.hits += stripe.hits.load(std::memory_order_relaxed);
    out.misses += stripe.misses.load(std::memory_order_relaxed);
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
  auto append = [&out](const std::string& model,
                       const std::vector<CachedResourcePlan>& entries) {
    for (const CachedResourcePlan& plan : entries) {
      out.push_back(CacheEntryRecord{model, plan});
    }
  };
  for (const Stripe& stripe : stripes_) {
    std::unique_lock<std::mutex> lock = LockStripe(stripe);
    for (const auto& [model, table] : stripe.exact) {
      append(model, table.entries());
    }
    for (const auto& [model, index] : stripe.sorted) {
      append(model, index.entries());
    }
  }
  // Stripes scatter each model's entries, and a PairTable keeps them in
  // insertion order. Impose the canonical (model, key, larger) order so
  // two dumps of equal caches are byte-identical when serialized.
  std::sort(out.begin(), out.end(),
            [](const CacheEntryRecord& a, const CacheEntryRecord& b) {
              if (a.model != b.model) return a.model < b.model;
              if (a.plan.key_gb != b.plan.key_gb) {
                return a.plan.key_gb < b.plan.key_gb;
              }
              return a.plan.larger_gb < b.plan.larger_gb;
            });
  return out;
}

}  // namespace raqo::core
