#ifndef RAQO_SERVER_PROTOCOL_H_
#define RAQO_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/plan_cache.h"
#include "cost/cost_vector.h"
#include "resource/resource_config.h"

namespace raqo::server {

/// Wire status strings. The first block mirrors raqo::StatusCode; the
/// server adds three service-level conditions that no library call
/// produces: a queued request whose deadline passed before a worker
/// picked it up (DEADLINE_EXCEEDED) and a request or connection that
/// arrived while the server was draining or full (UNAVAILABLE).
inline constexpr const char kWireOk[] = "OK";
inline constexpr const char kWireInvalidArgument[] = "INVALID_ARGUMENT";
inline constexpr const char kWireNotFound[] = "NOT_FOUND";
inline constexpr const char kWireResourceExhausted[] = "RESOURCE_EXHAUSTED";
inline constexpr const char kWireDeadlineExceeded[] = "DEADLINE_EXCEEDED";
inline constexpr const char kWireUnavailable[] = "UNAVAILABLE";
inline constexpr const char kWireInternal[] = "INTERNAL";
inline constexpr const char kWireFailedPrecondition[] = "FAILED_PRECONDITION";

/// Wire rendering of a library status code ("OK", "NOT_FOUND", ...).
std::string WireStatusName(StatusCode code);

/// Upper bound on the SQL text of one request; longer statements are
/// rejected before the parser sees them (they arrive from untrusted
/// sockets).
inline constexpr size_t kMaxSqlBytes = 64 * 1024;

/// Version of the cache replication frames (the `cache` member of
/// cache_dump / cache_load messages). A peer speaking a different
/// version is answered FAILED_PRECONDITION — never a silently
/// misinterpreted entry.
inline constexpr int64_t kCacheWireVersion = 1;

/// Most cache entries one dump response or load request may carry.
/// Bounds every frame (entries serialize to ~100 bytes each, so a full
/// chunk stays far under the server's default 1 MiB request-frame cap
/// and the connection's write-buffer cap); a longer `entries` array is
/// rejected INVALID_ARGUMENT at parse time.
inline constexpr size_t kMaxCacheChunkEntries = 512;

/// One planning request. Exactly one of `sql` / `tables` names the
/// query; the optional resource envelope / money budget select the
/// planner use case (Section IV): none -> Plan, `resources` ->
/// PlanForResources, `max_dollars` -> PlanForMoneyBudget.
struct PlanRequest {
  /// Message kind: "" or "plan" plans a query (every field below
  /// applies); "cache_dump" asks for one chunk of the server's shared
  /// plan cache; "cache_load" pushes a chunk of entries into it. The
  /// cache kinds ride the same frames, admission queue, tenant quotas,
  /// and deadlines as planning — replication traffic cannot bypass the
  /// server's protections.
  std::string type;

  /// Caller-chosen identifier, echoed verbatim in the response.
  std::string id;

  /// Tenant this request is billed to. Admission control keys its
  /// in-flight and dollar quotas (and the fair per-tenant dequeue) on
  /// this string; empty means the shared anonymous tenant. The server
  /// reads it with a cheap pre-parse scan (PeekTopLevelString), so it
  /// must be a top-level member of the request object.
  std::string tenant;

  /// "select * from orders, lineitem where ..." (see query/sql_parser.h).
  std::string sql;
  /// Alternative join-graph spec: catalog table names, FROM-clause order.
  std::vector<std::string> tables;

  /// Fixed resource envelope (r => p planning).
  bool has_resources = false;
  resource::ResourceConfig resources;

  /// Monetary budget (c => (p, r) planning).
  bool has_max_dollars = false;
  double max_dollars = 0.0;

  /// Planner knobs; empty/unset fields keep the server defaults.
  std::string algorithm;  ///< "", "selinger", or "randomized"
  /// "", "grid" (the exact switch-aware search), "hillclimb", or
  /// "accelerated".
  std::string search;
  bool has_use_cache = false;
  bool use_cache = false;
  bool has_time_weight = false;
  double time_weight = 1.0;

  /// Admission-to-execution deadline; a request still queued when it
  /// expires is cancelled with DEADLINE_EXCEEDED. 0 = server default.
  int64_t deadline_ms = 0;

  /// Test hook: hold the worker for this long before planning. Ignored
  /// unless the server enables test hooks.
  int64_t debug_sleep_ms = 0;

  /// --- cache_dump / cache_load members (the wire `cache` object) ---
  /// Frame-format version; a mismatch is rejected FAILED_PRECONDITION.
  int64_t cache_version = kCacheWireVersion;
  /// cache_dump: first entry (in the server's canonical dump order) of
  /// the requested chunk.
  int64_t cache_offset = 0;
  /// cache_dump: entries requested; 0 or anything above
  /// kMaxCacheChunkEntries means kMaxCacheChunkEntries.
  int64_t cache_limit = 0;
  /// cache_load: the entries to insert, at most kMaxCacheChunkEntries.
  std::vector<core::CacheEntryRecord> cache_entries;
};

/// Planning statistics carried back over the wire (the subset of
/// optimizer::PlanningStats that the bench and clients consume).
struct WireStats {
  double wall_ms = 0.0;
  int64_t plans_considered = 0;
  int64_t resource_configs_explored = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

/// One planning response. On success `plan` is the chosen operator tree
/// rendered with catalog table names and `join_resources` holds the
/// per-join resource configuration in the plan's post-order (VisitJoins
/// order) — together the joint (p, r) of Figure 8(b).
struct PlanResponse {
  std::string id;
  std::string status = kWireOk;
  std::string error;

  std::string plan;
  cost::CostVector cost;
  std::vector<resource::ResourceConfig> join_resources;
  WireStats stats;

  /// How long the request sat in the admission queue before a worker
  /// picked it up.
  double queue_wait_us = 0.0;

  /// --- cache_dump / cache_load members (the wire `cache` object) ---
  /// True when this response answers a cache operation; the plan fields
  /// above are then absent from the wire form.
  bool has_cache = false;
  int64_t cache_version = 0;
  /// cache_dump: total entries the server held when it built the chunk
  /// (pagination cursor: keep requesting until offset reaches this).
  int64_t cache_total = 0;
  /// cache_dump: offset this chunk starts at (echo of the request).
  int64_t cache_offset = 0;
  /// cache_load: entries actually inserted.
  int64_t cache_loaded = 0;
  /// cache_dump: the chunk, in the server's canonical (model, smaller,
  /// larger) order — the same entries serialize to the same bytes, so
  /// dumps of equal caches are byte-identical (exact-mode determinism
  /// extends over the wire).
  std::vector<core::CacheEntryRecord> cache_entries;

  bool ok() const { return status == kWireOk; }
};

/// Builds an error response (no plan payload).
PlanResponse ErrorResponse(std::string wire_status, std::string message,
                           std::string id = "");

std::string SerializePlanRequest(const PlanRequest& request);
Result<PlanRequest> ParsePlanRequest(std::string_view json);

/// Best-effort extraction of one top-level string member from a JSON
/// object without building a document: a linear scan that honors string
/// escapes and brace/bracket nesting, so a key occurring inside another
/// string ("sql": "... \"id\" ...") or in a nested object is never
/// matched. Returns the decoded value, or "" when the key is absent,
/// not a string, or the text is malformed. The admission path uses this
/// to learn `id` and `tenant` before (or instead of) a full parse.
std::string PeekTopLevelString(std::string_view json, std::string_view key);

std::string SerializePlanResponse(const PlanResponse& response);
Result<PlanResponse> ParsePlanResponse(std::string_view json);

/// Framing: every message is a 4-byte big-endian payload length followed
/// by that many bytes of UTF-8 JSON.
inline constexpr size_t kFrameHeaderBytes = 4;

std::string EncodeFrame(std::string_view payload);

enum class FrameDecode {
  kNeedMore,   ///< fewer bytes buffered than one complete frame
  kComplete,   ///< *payload/*frame_size describe the first frame
  kTooLarge,   ///< advertised length exceeds max_frame_bytes
};

/// Inspects `buffer` for one complete frame without copying. On
/// kComplete, `*payload` aliases `buffer` and `*frame_size` is the total
/// bytes to consume (header + payload).
FrameDecode TryDecodeFrame(std::string_view buffer, size_t max_frame_bytes,
                           std::string_view* payload, size_t* frame_size);

/// Blocking framed I/O for clients (and tests): one frame per call.
Status WriteFrame(int fd, std::string_view payload);
Result<std::string> ReadFrame(int fd, size_t max_frame_bytes);

}  // namespace raqo::server

#endif  // RAQO_SERVER_PROTOCOL_H_
