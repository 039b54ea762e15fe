#ifndef RAQO_SERVER_SERVICE_H_
#define RAQO_SERVER_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "core/plan_cache.h"
#include "core/raqo_planner.h"
#include "server/protocol.h"

namespace raqo::server {

/// Byte budget of the service's response cache: stored keys plus stored
/// responses. A key holds the request's SQL verbatim, up to kMaxSqlBytes
/// (64 KiB), so an entry count alone would not bound memory. 1 MiB holds
/// about 16 maximal statements, or about 900 of the largest TPC-H
/// statements the benchmarks send (two to eight tables take 0.6 to 1.2
/// KiB each with their answers).
inline constexpr size_t kResponseCacheBudgetBytes = 1 << 20;

/// Point-in-time state of the service's response cache.
struct ResponseCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t entries = 0;
  /// Accounted bytes of keys plus stored responses; never above
  /// kResponseCacheBudgetBytes.
  int64_t bytes = 0;
};

/// Configuration of the planning service backing the network server.
struct PlanningServiceOptions {
  /// Base planner configuration; per-request knobs override a copy.
  core::RaqoPlannerOptions planner;
  /// Lock stripes of the resource-plan cache shared across requests.
  size_t cache_shards = core::kDefaultCacheStripes;
};

/// The request handler of the planning server: resolves a PlanRequest
/// against the catalog, runs the RAQO planner, and renders a
/// PlanResponse. Handle() is const and thread-safe — any number of
/// worker threads may call it concurrently; each call plans on a private
/// RaqoPlanner, the shape of core::ConcurrentWorkloadRunner.
///
/// The service owns one thread-safe resource-plan cache for the across-
/// query caching of Figure 15(b), served to remote clients. A caching
/// request plans on it only when its resource objective is the
/// service's: the same `time_weight` and `search` as the base options.
/// Cache entries are keyed by data characteristics alone, so a request
/// with another objective plans on a private per-request cache instead,
/// and the shared cache only ever holds base-objective plans. With
/// exact-mode caching (or caching off) responses are deterministic:
/// bit-identical to a direct RaqoPlanner call with the same options.
///
/// While a response is such a pure function of its request (the
/// service's cache mode is kExact, or the request plans without a
/// cache), the service also keeps finished OK responses in a bounded
/// response cache, keyed by the request's planning inputs verbatim: the
/// SQL text or table list, `resources`, `max_dollars` and the knobs. A
/// statement is stored the second time it is planned, and a repeat then
/// skips parsing, join enumeration and resource-plan lookups. The
/// answer carries the caller's id, its own `stats.wall_ms` and
/// `stats.response_cache_hit`, and the stored work counters. Every
/// successful cache_load clears it.
class PlanningService {
 public:
  /// `catalog` must outlive the service and must not change while it
  /// serves: stored responses assume the catalog they were planned on.
  PlanningService(const catalog::Catalog* catalog,
                  cost::JoinCostModels models,
                  resource::ClusterConditions cluster,
                  resource::PricingModel pricing = resource::PricingModel(),
                  PlanningServiceOptions options = PlanningServiceOptions());
  ~PlanningService();

  /// Plans one request. Never fails out-of-band: every error is encoded
  /// in the response's status/error fields.
  PlanResponse Handle(const PlanRequest& request) const;

  /// Cumulative hit/miss counters of the shared cache.
  core::CacheStats shared_cache_stats() const;

  /// Hits, misses, entries and bytes of the response cache.
  ResponseCacheStats response_cache_stats() const;

  /// The service-wide shared cache, never null. The persistence layer
  /// attaches here; the pointee is thread-safe. Entries inserted here
  /// directly, rather than by a cache_load request, leave the response
  /// cache as it is, so load them before the service answers.
  core::ResourcePlanCache* shared_cache() const {
    return shared_cache_.get();
  }

  const catalog::Catalog& catalog() const { return *catalog_; }
  const PlanningServiceOptions& options() const { return options_; }

 private:
  class ResponseCache;

  /// Parses, resolves and plans one validated plan request.
  PlanResponse Plan(const PlanRequest& request) const;
  /// cache_dump: renders one chunk of the shared cache.
  PlanResponse HandleCacheDump(const PlanRequest& request) const;
  /// cache_load: inserts a peer's chunk into the shared cache.
  PlanResponse HandleCacheLoad(const PlanRequest& request) const;

  const catalog::Catalog* catalog_;
  cost::JoinCostModels models_;
  resource::ClusterConditions cluster_;
  resource::PricingModel pricing_;
  PlanningServiceOptions options_;
  std::shared_ptr<core::ResourcePlanCache> shared_cache_;
  std::unique_ptr<ResponseCache> response_cache_;
};

}  // namespace raqo::server

#endif  // RAQO_SERVER_SERVICE_H_
