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
  /// Share one thread-safe resource-plan cache across all requests (the
  /// across-query caching of Figure 15(b), served to remote clients).
  /// Only effective when caching is on — via the base options or a
  /// request knob.
  bool share_cache = true;
  /// Lock stripes of the shared cache.
  size_t cache_shards = 8;
};

/// The request handler of the planning server: resolves a PlanRequest
/// against the catalog, runs the RAQO planner, and renders a
/// PlanResponse. Handle() is const and thread-safe — any number of
/// worker threads may call it concurrently; each call plans on a private
/// RaqoPlanner attached to the service-wide shared cache, exactly the
/// shape of the PR-1 concurrent runner (N planners, one sharded cache).
/// With exact-mode caching (or caching off) responses are deterministic:
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

  /// Cumulative hit/miss counters of the shared cache (zeros when no
  /// cache is shared).
  core::CacheStats shared_cache_stats() const;
  bool has_shared_cache() const { return shared_cache_ != nullptr; }

  /// The service-wide shared cache (nullptr when share_cache is off).
  /// The persistence layer attaches here; the pointee is thread-safe.
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
