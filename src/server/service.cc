#include "server/service.h"

#include <algorithm>
#include <functional>
#include <list>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "query/sql_parser.h"

namespace raqo::server {

namespace {

PlanResponse FromStatus(const Status& status, const std::string& id) {
  return ErrorResponse(WireStatusName(status.code()), status.message(), id);
}

/// Why `request` is not a plan request the service can answer, before
/// any parsing or planning; OK when it is one.
Status CheckPlanRequest(const PlanRequest& request) {
  if (!request.type.empty() && request.type != "plan") {
    return Status::InvalidArgument("unknown request type '" + request.type +
                                   "' (plan | cache_dump | cache_load)");
  }
  if (request.sql.empty() == request.tables.empty()) {
    return Status::InvalidArgument(
        "request must carry exactly one of \"sql\" or \"tables\"");
  }
  if (request.has_resources && request.has_max_dollars) {
    return Status::InvalidArgument(
        "\"resources\" and \"max_dollars\" are mutually exclusive");
  }
  if (request.sql.size() > kMaxSqlBytes) {
    return Status::InvalidArgument(
        StrPrintf("sql of %zu bytes exceeds the %zu-byte limit",
                  request.sql.size(), kMaxSqlBytes));
  }
  return Status::OK();
}

Status ApplyKnobs(const PlanRequest& request,
                  core::RaqoPlannerOptions* options) {
  if (request.algorithm == "selinger") {
    options->algorithm = core::PlannerAlgorithm::kSelinger;
  } else if (request.algorithm == "randomized") {
    options->algorithm = core::PlannerAlgorithm::kFastRandomized;
  } else if (!request.algorithm.empty()) {
    return Status::InvalidArgument("unknown algorithm knob '" +
                                   request.algorithm +
                                   "' (selinger | randomized)");
  }
  if (request.search == "grid") {
    options->evaluator.search = core::ResourceSearch::kSwitchAwareGrid;
  } else if (request.search == "hillclimb") {
    options->evaluator.search = core::ResourceSearch::kHillClimb;
  } else if (request.search == "accelerated") {
    options->evaluator.search = core::ResourceSearch::kAcceleratedHillClimb;
  } else if (!request.search.empty()) {
    return Status::InvalidArgument("unknown search knob '" + request.search +
                                   "' (grid | hillclimb | accelerated)");
  }
  if (request.has_use_cache) {
    options->evaluator.use_cache = request.use_cache;
  }
  if (request.has_time_weight) {
    if (request.time_weight < 0.0 || request.time_weight > 1.0) {
      return Status::InvalidArgument("time_weight must be in [0, 1]");
    }
    // One objective end to end: resources and join order are both
    // chosen for the requested time/money mix.
    options->evaluator.time_weight = request.time_weight;
    options->selinger.time_weight = request.time_weight;
    options->randomized.time_weight = request.time_weight;
  }
  return Status::OK();
}

/// Slots of the response cache's first-sighting table, 8 bytes each (64
/// KiB in all). A statement is stored only when it is planned while the
/// 64-bit hash of its first planning is still in its slot. A later
/// statement hashing to the same slot overwrites the sighting, and a
/// full 64-bit match with another statement only admits one early.
constexpr size_t kSightingSlots = 1 << 13;

/// The planning inputs of a request, verbatim, as one byte string: equal
/// keys plan identically. Text is length-prefixed and numbers are raw
/// bits, so distinct inputs never render alike. `id`, `tenant`,
/// `deadline_ms` and `debug_sleep_ms` do not take part.
std::string ResponseCacheKey(const PlanRequest& request) {
  std::string key;
  key.reserve(64 + request.sql.size());
  const auto append_bytes = [&key](const void* data, size_t n) {
    key.append(static_cast<const char*>(data), n);
  };
  const auto append_text = [&](std::string_view text) {
    const uint64_t size = text.size();
    append_bytes(&size, sizeof(size));
    key.append(text);
  };
  const auto append_flag = [&key](bool flag) { key += flag ? '1' : '0'; };
  append_text(request.sql);
  const uint64_t num_tables = request.tables.size();
  append_bytes(&num_tables, sizeof(num_tables));
  for (const std::string& table : request.tables) append_text(table);
  append_flag(request.has_resources);
  if (request.has_resources) {
    const double dims[2] = {request.resources.container_size_gb(),
                            request.resources.num_containers()};
    append_bytes(dims, sizeof(dims));
  }
  append_flag(request.has_max_dollars);
  if (request.has_max_dollars) {
    append_bytes(&request.max_dollars, sizeof(request.max_dollars));
  }
  append_text(request.algorithm);
  append_text(request.search);
  append_flag(request.has_use_cache);
  if (request.has_use_cache) append_flag(request.use_cache);
  append_flag(request.has_time_weight);
  if (request.has_time_weight) {
    append_bytes(&request.time_weight, sizeof(request.time_weight));
  }
  return key;
}

}  // namespace

/// The bounded, thread-safe store behind PlanningService's response
/// cache. Entries live in insertion order, so eviction drops the oldest.
class PlanningService::ResponseCache {
 public:
  ResponseCache() : sightings_(kSightingSlots, 0) {}

  /// Copies the response stored under `key` into `*out`; false on a
  /// miss.
  bool Lookup(const std::string& key, PlanResponse* out) {
    bool hit = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = index_.find(key);
      if (it != index_.end()) {
        *out = it->second->response;
        hit = true;
        ++hits_;
      } else {
        ++misses_;
      }
    }
    if (obs::MetricsOn()) {
      static obs::Counter* const hits =
          obs::DefaultMetrics().GetCounter("server.response_cache.hit");
      static obs::Counter* const misses =
          obs::DefaultMetrics().GetCounter("server.response_cache.miss");
      (hit ? hits : misses)->Add();
    }
    return hit;
  }

  /// Called with each OK response planned for `key`. The key's first
  /// planning only leaves its hash in the sighting table; the second
  /// stores the response, evicting the oldest entries to stay within
  /// kResponseCacheBudgetBytes.
  void Offer(std::string key, const PlanResponse& response) {
    const uint64_t hash = std::hash<std::string_view>{}(key);
    // Charged: the key, the payloads the response owns, the entry, and
    // its list and index nodes with their allocation headers.
    const size_t bytes = sizeof(Entry) + 96 + key.size() +
                         response.plan.size() +
                         response.join_resources.size() *
                             sizeof(resource::ResourceConfig);
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t& sighting = sightings_[hash % kSightingSlots];
    if (sighting != hash) {
      sighting = hash;
      return;
    }
    if (bytes > kResponseCacheBudgetBytes || index_.count(key) > 0) return;
    while (bytes_ + bytes > kResponseCacheBudgetBytes) {
      index_.erase(entries_.front().key);
      bytes_ -= entries_.front().bytes;
      entries_.pop_front();
    }
    Entry& entry = entries_.emplace_back(
        Entry{std::move(key), response, bytes});
    entry.response.id.clear();
    index_.emplace(entry.key, std::prev(entries_.end()));
    bytes_ += bytes;
    PublishSize();
  }

  /// Drops every stored response; first sightings stay.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    index_.clear();
    entries_.clear();
    bytes_ = 0;
    PublishSize();
  }

  ResponseCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    ResponseCacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.entries = static_cast<int64_t>(entries_.size());
    stats.bytes = static_cast<int64_t>(bytes_);
    return stats;
  }

 private:
  struct Entry {
    std::string key;
    PlanResponse response;
    size_t bytes = 0;
  };

  /// Mirrors the size into the gauges. Caller holds mu_.
  void PublishSize() {
    if (!obs::MetricsOn()) return;
    static obs::Gauge* const entries =
        obs::DefaultMetrics().GetGauge("server.response_cache.entries");
    static obs::Gauge* const bytes =
        obs::DefaultMetrics().GetGauge("server.response_cache.bytes");
    entries->Set(static_cast<double>(entries_.size()));
    bytes->Set(static_cast<double>(bytes_));
  }

  mutable std::mutex mu_;
  std::list<Entry> entries_;  ///< oldest first
  /// Views of the keys in `entries_`, whose list nodes never move.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  std::vector<uint64_t> sightings_;
  size_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

PlanningService::PlanningService(const catalog::Catalog* catalog,
                                 cost::JoinCostModels models,
                                 resource::ClusterConditions cluster,
                                 resource::PricingModel pricing,
                                 PlanningServiceOptions options)
    : catalog_(catalog),
      models_(std::move(models)),
      cluster_(cluster),
      pricing_(pricing),
      options_(std::move(options)) {
  RAQO_CHECK(catalog != nullptr);
  // Built eagerly (not only when the base options cache) so a request
  // flipping use_cache on still lands in one service-wide cache.
  shared_cache_ = std::make_shared<core::ResourcePlanCache>(
      options_.planner.evaluator.cache_mode,
      options_.planner.evaluator.cache_threshold_gb,
      options_.planner.evaluator.cache_index, options_.cache_shards);
  response_cache_ = std::make_unique<ResponseCache>();
}

PlanningService::~PlanningService() = default;

PlanResponse PlanningService::Handle(const PlanRequest& request) const {
  std::string key;
  if (std::optional<PlanResponse> stored = LookupStored(request, &key)) {
    return *std::move(stored);
  }
  return PlanAndOffer(request, std::move(key));
}

std::optional<PlanResponse> PlanningService::LookupStored(
    const PlanRequest& request, std::string* key) const {
  key->clear();
  if (!CheckPlanRequest(request).ok()) return std::nullopt;
  // The response cache only holds answers that are a pure function of
  // the request: with exact-mode caching the shared cache returns what a
  // fresh search would, and a request without a cache reads none.
  const core::RaqoEvaluatorOptions& base = options_.planner.evaluator;
  const bool uses_cache =
      request.has_use_cache ? request.use_cache : base.use_cache;
  if (uses_cache && base.cache_mode != core::CacheLookupMode::kExact) {
    return std::nullopt;
  }
  const Stopwatch watch;
  *key = ResponseCacheKey(request);
  PlanResponse response;
  if (!response_cache_->Lookup(*key, &response)) return std::nullopt;
  response.id = request.id;
  response.stats.wall_ms = watch.ElapsedMillis();
  response.stats.response_cache_hit = true;
  return response;
}

PlanResponse PlanningService::PlanAndOffer(const PlanRequest& request,
                                           std::string key) const {
  if (request.type == "cache_dump") return HandleCacheDump(request);
  if (request.type == "cache_load") return HandleCacheLoad(request);
  if (Status checked = CheckPlanRequest(request); !checked.ok()) {
    return FromStatus(checked, request.id);
  }
  PlanResponse response = Plan(request);
  if (response.ok() && !key.empty()) {
    response_cache_->Offer(std::move(key), response);
  }
  return response;
}

PlanResponse PlanningService::Plan(const PlanRequest& request) const {
  // Resolve the query: SQL through the parser (filters scale a private
  // catalog copy), or a plain table-name list.
  const catalog::Catalog* catalog = catalog_;
  catalog::Catalog filtered;
  std::vector<catalog::TableId> tables;
  if (!request.sql.empty()) {
    Result<query::ParsedQuery> parsed =
        query::ParseJoinQuery(*catalog_, request.sql);
    if (!parsed.ok()) return FromStatus(parsed.status(), request.id);
    tables = parsed->tables;
    if (!parsed->filters.empty()) {
      Result<catalog::Catalog> scaled =
          query::ApplyFilters(*catalog_, *parsed);
      if (!scaled.ok()) return FromStatus(scaled.status(), request.id);
      filtered = std::move(*scaled);
      catalog = &filtered;
    }
  } else {
    for (const std::string& name : request.tables) {
      Result<catalog::TableId> id = catalog_->FindTable(name);
      if (!id.ok()) return FromStatus(id.status(), request.id);
      tables.push_back(*id);
    }
  }

  core::RaqoPlannerOptions planner_options = options_.planner;
  if (Status knobs = ApplyKnobs(request, &planner_options); !knobs.ok()) {
    return FromStatus(knobs, request.id);
  }
  core::RaqoPlanner planner(catalog, models_, cluster_, pricing_,
                            planner_options);
  // Cache keys carry no objective, so only requests planning resources
  // for the service's own objective may read or fill the shared cache;
  // any other plans on the evaluator's private per-request cache.
  const core::RaqoEvaluatorOptions& base = options_.planner.evaluator;
  const core::RaqoEvaluatorOptions& effective = planner_options.evaluator;
  if (effective.use_cache && effective.time_weight == base.time_weight &&
      effective.search == base.search) {
    planner.evaluator().ShareCache(shared_cache_);
  }

  Result<core::JointPlan> plan =
      request.has_resources
          ? planner.PlanForResources(tables, request.resources)
      : request.has_max_dollars
          ? planner.PlanForMoneyBudget(tables, request.max_dollars)
          : planner.Plan(tables);
  if (!plan.ok()) return FromStatus(plan.status(), request.id);

  PlanResponse response;
  response.id = request.id;
  response.plan = plan->plan->ToString(catalog);
  response.cost = plan->cost;
  plan->plan->VisitJoins([&](const plan::PlanNode& join) {
    response.join_resources.push_back(
        join.resources().value_or(resource::ResourceConfig()));
  });
  response.stats.wall_ms = plan->stats.wall_ms;
  response.stats.plans_considered = plan->stats.plans_considered;
  response.stats.resource_configs_explored =
      plan->stats.resource_configs_explored;
  response.stats.cache_hits = plan->stats.cache_hits;
  response.stats.cache_misses = plan->stats.cache_misses;
  return response;
}

core::CacheStats PlanningService::shared_cache_stats() const {
  return shared_cache_->stats();
}

ResponseCacheStats PlanningService::response_cache_stats() const {
  return response_cache_->stats();
}

namespace {

/// Shared validation of the two cache operations: the frame version
/// must match. Returns true when `out` was filled with a rejection.
bool RejectCacheOp(const PlanRequest& request, PlanResponse* out) {
  if (request.cache_version != kCacheWireVersion) {
    *out = ErrorResponse(
        kWireFailedPrecondition,
        StrPrintf("cache wire version %lld unsupported (server speaks "
                  "version %lld)",
                  static_cast<long long>(request.cache_version),
                  static_cast<long long>(kCacheWireVersion)),
        request.id);
    return true;
  }
  return false;
}

}  // namespace

PlanResponse PlanningService::HandleCacheDump(
    const PlanRequest& request) const {
  PlanResponse response;
  if (RejectCacheOp(request, &response)) {
    return response;
  }
  // O(cache) per chunk: the dump is rebuilt for every request so a
  // chunk never serves stale pages of a mutating cache. Replication is
  // rare (replica start-up) and the cache is planner-metadata sized, so
  // simplicity wins over a cursor protocol.
  const std::vector<core::CacheEntryRecord> all =
      shared_cache_->DumpEntries();
  const int64_t total = static_cast<int64_t>(all.size());
  const int64_t offset = std::min(request.cache_offset, total);
  const int64_t limit =
      request.cache_limit > 0
          ? std::min<int64_t>(request.cache_limit,
                              static_cast<int64_t>(kMaxCacheChunkEntries))
          : static_cast<int64_t>(kMaxCacheChunkEntries);
  const int64_t end = std::min(offset + limit, total);
  response.id = request.id;
  response.has_cache = true;
  response.cache_version = kCacheWireVersion;
  response.cache_total = total;
  response.cache_offset = offset;
  response.cache_entries.assign(all.begin() + offset, all.begin() + end);
  return response;
}

PlanResponse PlanningService::HandleCacheLoad(
    const PlanRequest& request) const {
  PlanResponse response;
  if (RejectCacheOp(request, &response)) {
    return response;
  }
  // The parse layer already enforced the chunk cap; entries flow through
  // the normal Insert path, so a persistence listener journals them and
  // exact-mode keys re-derive identically to the peer's.
  for (const core::CacheEntryRecord& entry : request.cache_entries) {
    shared_cache_->Insert(entry.model, entry.plan);
  }
  // A peer's entries may differ from what this node would have planned
  // (other models or objective), so stored answers no longer hold.
  response_cache_->Clear();
  response.id = request.id;
  response.has_cache = true;
  response.cache_version = kCacheWireVersion;
  response.cache_loaded =
      static_cast<int64_t>(request.cache_entries.size());
  return response;
}

}  // namespace raqo::server
