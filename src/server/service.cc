#include "server/service.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "query/sql_parser.h"

namespace raqo::server {

namespace {

PlanResponse FromStatus(const Status& status, const std::string& id) {
  return ErrorResponse(WireStatusName(status.code()), status.message(), id);
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

}  // namespace

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
}

PlanResponse PlanningService::Handle(const PlanRequest& request) const {
  if (request.type == "cache_dump") return HandleCacheDump(request);
  if (request.type == "cache_load") return HandleCacheLoad(request);
  if (!request.type.empty() && request.type != "plan") {
    return ErrorResponse(
        kWireInvalidArgument,
        "unknown request type '" + request.type +
            "' (plan | cache_dump | cache_load)",
        request.id);
  }
  if (request.sql.empty() == request.tables.empty()) {
    return ErrorResponse(
        kWireInvalidArgument,
        "request must carry exactly one of \"sql\" or \"tables\"",
        request.id);
  }
  if (request.has_resources && request.has_max_dollars) {
    return ErrorResponse(
        kWireInvalidArgument,
        "\"resources\" and \"max_dollars\" are mutually exclusive",
        request.id);
  }

  // Resolve the query: SQL through the parser (filters scale a private
  // catalog copy), or a plain table-name list.
  const catalog::Catalog* catalog = catalog_;
  catalog::Catalog filtered;
  std::vector<catalog::TableId> tables;
  if (!request.sql.empty()) {
    if (request.sql.size() > kMaxSqlBytes) {
      return ErrorResponse(
          kWireInvalidArgument,
          StrPrintf("sql of %zu bytes exceeds the %zu-byte limit",
                    request.sql.size(), kMaxSqlBytes),
          request.id);
    }
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
  response.id = request.id;
  response.has_cache = true;
  response.cache_version = kCacheWireVersion;
  response.cache_loaded =
      static_cast<int64_t>(request.cache_entries.size());
  return response;
}

}  // namespace raqo::server
