#ifndef RAQO_SERVER_SERVICE_H_
#define RAQO_SERVER_SERVICE_H_

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "core/plan_cache.h"
#include "core/raqo_planner.h"
#include "server/protocol.h"

namespace raqo::server {

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
class PlanningService {
 public:
  /// `catalog` must outlive the service.
  PlanningService(const catalog::Catalog* catalog,
                  cost::JoinCostModels models,
                  resource::ClusterConditions cluster,
                  resource::PricingModel pricing = resource::PricingModel(),
                  PlanningServiceOptions options = PlanningServiceOptions());

  /// Plans one request. Never fails out-of-band: every error is encoded
  /// in the response's status/error fields.
  PlanResponse Handle(const PlanRequest& request) const;

  /// Cumulative hit/miss counters of the shared cache.
  core::CacheStats shared_cache_stats() const;

  /// The service-wide shared cache, never null. The persistence layer
  /// attaches here; the pointee is thread-safe.
  core::ResourcePlanCache* shared_cache() const {
    return shared_cache_.get();
  }

  const catalog::Catalog& catalog() const { return *catalog_; }
  const PlanningServiceOptions& options() const { return options_; }

 private:
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
};

}  // namespace raqo::server

#endif  // RAQO_SERVER_SERVICE_H_
