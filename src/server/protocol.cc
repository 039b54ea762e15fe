#include "server/protocol.h"

#include <cmath>
#include <utility>

#include "common/json.h"
#include "common/net.h"
#include "common/strings.h"
#include "persist/cache_persist.h"

namespace raqo::server {

namespace {

std::string Quoted(std::string_view s) {
  std::string out = "\"";
  out += JsonEscape(s);
  out += '"';
  return out;
}

std::string ResourceConfigJson(const resource::ResourceConfig& config) {
  return StrPrintf("{\"container_size_gb\": %s, \"num_containers\": %s}",
                   JsonNumber(config.container_size_gb()).c_str(),
                   JsonNumber(config.num_containers()).c_str());
}

Result<resource::ResourceConfig> ParseResourceConfig(const JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("resource configuration must be an "
                                   "object");
  }
  const JsonValue* size = v.FindNumber("container_size_gb");
  const JsonValue* count = v.FindNumber("num_containers");
  if (size == nullptr || count == nullptr) {
    return Status::InvalidArgument(
        "resource configuration needs numeric container_size_gb and "
        "num_containers");
  }
  return resource::ResourceConfig(size->number_value(),
                                  count->number_value());
}

// 2^63 as a double; doubles at or beyond this magnitude cannot be cast to
// int64_t without undefined behavior ([conv.fpint]).
constexpr double kInt64Bound = 9223372036854775808.0;

int64_t IntMember(const JsonValue& object, const char* key,
                  int64_t fallback) {
  const JsonValue* v = object.FindNumber(key);
  if (v == nullptr) return fallback;
  const double d = v->number_value();
  if (!std::isfinite(d) || d < -kInt64Bound || d >= kInt64Bound) {
    return fallback;
  }
  return static_cast<int64_t>(d);
}

double NumberMember(const JsonValue& object, const char* key,
                    double fallback) {
  const JsonValue* v = object.FindNumber(key);
  return v != nullptr ? v->number_value() : fallback;
}

std::string StringMember(const JsonValue& object, const char* key) {
  const JsonValue* v = object.FindString(key);
  return v != nullptr ? v->string_value() : std::string();
}

// Strict readers for request parsing: requests come from untrusted
// sockets, so a present-but-mistyped field is an error, never a silent
// default.
Status ReadString(const JsonValue& object, const char* key,
                  std::string* out) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_string()) {
    return Status::InvalidArgument(StrPrintf("\"%s\" must be a string", key));
  }
  *out = v->string_value();
  return Status::OK();
}

Status ReadInt(const JsonValue& object, const char* key, int64_t* out) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_number()) {
    return Status::InvalidArgument(StrPrintf("\"%s\" must be a number", key));
  }
  const double d = v->number_value();
  if (!std::isfinite(d) || d < 0.0 || d >= kInt64Bound) {
    return Status::InvalidArgument(StrPrintf(
        "\"%s\" must be a non-negative integer below 2^63", key));
  }
  *out = static_cast<int64_t>(d);
  return Status::OK();
}

// Advances *pos (pointing at an opening quote) past the end of the JSON
// string token, honoring backslash escapes. False on unterminated input.
bool SkipJsonString(std::string_view text, size_t* pos) {
  for (size_t i = *pos + 1; i < text.size(); ++i) {
    if (text[i] == '\\') {
      ++i;  // the escaped character can never close the string
      continue;
    }
    if (text[i] == '"') {
      *pos = i + 1;
      return true;
    }
  }
  return false;
}

// Decodes one raw string token (quotes included). The common escape-free
// case is a plain copy; tokens with escapes go through the real parser,
// which handles \uXXXX and surrogate pairs.
std::string DecodeStringToken(std::string_view token) {
  std::string_view raw = token.substr(1, token.size() - 2);
  if (raw.find('\\') == std::string_view::npos) return std::string(raw);
  Result<JsonValue> decoded = ParseJson(token);
  return decoded.ok() && decoded->is_string() ? decoded->string_value()
                                              : std::string();
}

}  // namespace

std::string PeekTopLevelString(std::string_view json, std::string_view key) {
  size_t i = 0;
  const size_t n = json.size();
  const auto skip_ws = [&] {
    while (i < n && (json[i] == ' ' || json[i] == '\t' || json[i] == '\n' ||
                     json[i] == '\r')) {
      ++i;
    }
  };
  skip_ws();
  if (i >= n || json[i] != '{') return std::string();
  ++i;
  int depth = 1;
  while (i < n && depth > 0) {
    const char c = json[i];
    if (c == '{' || c == '[') {
      ++depth;
      ++i;
      continue;
    }
    if (c == '}' || c == ']') {
      --depth;
      ++i;
      continue;
    }
    if (c != '"') {
      ++i;
      continue;
    }
    // A string token. At depth 1 it is either an object key or a string
    // value; only a following ':' makes it a key.
    const size_t start = i;
    if (!SkipJsonString(json, &i)) return std::string();
    const size_t end = i;
    if (depth != 1) continue;
    skip_ws();
    if (i >= n || json[i] != ':') continue;
    ++i;  // consume ':'
    skip_ws();
    if (DecodeStringToken(json.substr(start, end - start)) != key) {
      continue;  // the value is skipped by the main loop
    }
    if (i >= n || json[i] != '"') return std::string();  // not a string
    const size_t value_start = i;
    if (!SkipJsonString(json, &i)) return std::string();
    return DecodeStringToken(json.substr(value_start, i - value_start));
  }
  return std::string();
}

std::string WireStatusName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return kWireOk;
    case StatusCode::kInvalidArgument:
      return kWireInvalidArgument;
    case StatusCode::kNotFound:
      return kWireNotFound;
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition:
      return kWireFailedPrecondition;
    case StatusCode::kResourceExhausted:
      return kWireResourceExhausted;
    case StatusCode::kDeadlineExceeded:
      return kWireDeadlineExceeded;
    case StatusCode::kInternal:
      return kWireInternal;
    case StatusCode::kUnsupported:
      return "UNSUPPORTED";
  }
  return kWireInternal;
}

PlanResponse ErrorResponse(std::string wire_status, std::string message,
                           std::string id) {
  PlanResponse response;
  response.id = std::move(id);
  response.status = std::move(wire_status);
  response.error = std::move(message);
  return response;
}

namespace {

/// Renders the `entries` array of a cache message from the shared
/// per-entry serializer (the same bytes the journal stores).
std::string CacheEntriesJson(
    const std::vector<core::CacheEntryRecord>& entries) {
  std::string out = "[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ", ";
    out += persist::SerializeCacheEntry(entries[i].model, entries[i].plan);
  }
  out += "]";
  return out;
}

/// Parses the `entries` array of a cache message; the chunk cap bounds
/// allocation against hostile frames.
Status ParseCacheEntries(const JsonValue& cache,
                         std::vector<core::CacheEntryRecord>* out) {
  const JsonValue* entries = cache.Find("entries");
  if (entries == nullptr) return Status::OK();
  if (!entries->is_array()) {
    return Status::InvalidArgument("\"cache.entries\" must be an array");
  }
  if (entries->items().size() > kMaxCacheChunkEntries) {
    return Status::InvalidArgument(StrPrintf(
        "cache chunk of %zu entries exceeds the %zu-entry cap",
        entries->items().size(), kMaxCacheChunkEntries));
  }
  out->reserve(entries->items().size());
  for (const JsonValue& item : entries->items()) {
    RAQO_ASSIGN_OR_RETURN(core::CacheEntryRecord record,
                          persist::ParseCacheEntry(item));
    out->push_back(std::move(record));
  }
  return Status::OK();
}

}  // namespace

std::string SerializePlanRequest(const PlanRequest& request) {
  std::string out = "{";
  bool first = true;
  auto field = [&](const std::string& rendered) {
    if (!first) out += ", ";
    first = false;
    out += rendered;
  };
  if (!request.type.empty()) field("\"type\": " + Quoted(request.type));
  if (!request.id.empty()) field("\"id\": " + Quoted(request.id));
  if (!request.tenant.empty()) {
    field("\"tenant\": " + Quoted(request.tenant));
  }
  if (!request.sql.empty()) field("\"sql\": " + Quoted(request.sql));
  if (!request.tables.empty()) {
    std::string tables = "\"tables\": [";
    for (size_t i = 0; i < request.tables.size(); ++i) {
      if (i > 0) tables += ", ";
      tables += Quoted(request.tables[i]);
    }
    tables += "]";
    field(tables);
  }
  if (request.has_resources) {
    field("\"resources\": " + ResourceConfigJson(request.resources));
  }
  if (request.has_max_dollars) {
    field(StrPrintf("\"max_dollars\": %s",
                    JsonNumber(request.max_dollars).c_str()));
  }
  std::string knobs;
  auto knob = [&](const std::string& rendered) {
    if (!knobs.empty()) knobs += ", ";
    knobs += rendered;
  };
  if (!request.algorithm.empty()) {
    knob("\"algorithm\": " + Quoted(request.algorithm));
  }
  if (!request.search.empty()) knob("\"search\": " + Quoted(request.search));
  if (request.has_use_cache) {
    knob(StrPrintf("\"use_cache\": %s",
                   request.use_cache ? "true" : "false"));
  }
  if (request.has_time_weight) {
    knob(StrPrintf("\"time_weight\": %s",
                   JsonNumber(request.time_weight).c_str()));
  }
  if (!knobs.empty()) field("\"knobs\": {" + knobs + "}");
  if (request.deadline_ms > 0) {
    field(StrPrintf("\"deadline_ms\": %lld",
                    static_cast<long long>(request.deadline_ms)));
  }
  if (request.debug_sleep_ms > 0) {
    field(StrPrintf("\"debug_sleep_ms\": %lld",
                    static_cast<long long>(request.debug_sleep_ms)));
  }
  if (request.type == "cache_dump" || request.type == "cache_load") {
    std::string cache = StrPrintf(
        "\"cache\": {\"version\": %lld",
        static_cast<long long>(request.cache_version));
    if (request.type == "cache_dump") {
      cache += StrPrintf(", \"offset\": %lld, \"limit\": %lld",
                         static_cast<long long>(request.cache_offset),
                         static_cast<long long>(request.cache_limit));
    } else {
      cache += ", \"entries\": " + CacheEntriesJson(request.cache_entries);
    }
    cache += "}";
    field(cache);
  }
  out += "}";
  return out;
}

Result<PlanRequest> ParsePlanRequest(std::string_view json) {
  RAQO_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (!root.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  PlanRequest request;
  RAQO_RETURN_IF_ERROR(ReadString(root, "type", &request.type));
  RAQO_RETURN_IF_ERROR(ReadString(root, "id", &request.id));
  RAQO_RETURN_IF_ERROR(ReadString(root, "tenant", &request.tenant));
  RAQO_RETURN_IF_ERROR(ReadString(root, "sql", &request.sql));
  if (const JsonValue* tables = root.Find("tables"); tables != nullptr) {
    if (!tables->is_array()) {
      return Status::InvalidArgument("\"tables\" must be an array of "
                                     "table names");
    }
    for (const JsonValue& item : tables->items()) {
      if (!item.is_string()) {
        return Status::InvalidArgument("\"tables\" must contain only "
                                       "strings");
      }
      request.tables.push_back(item.string_value());
    }
  }
  if (const JsonValue* resources = root.Find("resources");
      resources != nullptr) {
    RAQO_ASSIGN_OR_RETURN(request.resources,
                          ParseResourceConfig(*resources));
    request.has_resources = true;
  }
  if (const JsonValue* budget = root.Find("max_dollars");
      budget != nullptr) {
    if (!budget->is_number()) {
      return Status::InvalidArgument("\"max_dollars\" must be a number");
    }
    request.max_dollars = budget->number_value();
    request.has_max_dollars = true;
  }
  if (const JsonValue* knobs_value = root.Find("knobs");
      knobs_value != nullptr) {
    if (!knobs_value->is_object()) {
      return Status::InvalidArgument("\"knobs\" must be an object");
    }
    const JsonValue& knobs = *knobs_value;
    RAQO_RETURN_IF_ERROR(ReadString(knobs, "algorithm", &request.algorithm));
    RAQO_RETURN_IF_ERROR(ReadString(knobs, "search", &request.search));
    if (const JsonValue* use_cache = knobs.Find("use_cache");
        use_cache != nullptr) {
      if (!use_cache->is_bool()) {
        return Status::InvalidArgument("\"use_cache\" must be a boolean");
      }
      request.has_use_cache = true;
      request.use_cache = use_cache->bool_value();
    }
    if (const JsonValue* weight = knobs.Find("time_weight");
        weight != nullptr) {
      if (!weight->is_number()) {
        return Status::InvalidArgument("\"time_weight\" must be a number");
      }
      request.has_time_weight = true;
      request.time_weight = weight->number_value();
    }
  }
  RAQO_RETURN_IF_ERROR(ReadInt(root, "deadline_ms", &request.deadline_ms));
  RAQO_RETURN_IF_ERROR(
      ReadInt(root, "debug_sleep_ms", &request.debug_sleep_ms));
  if (const JsonValue* cache = root.Find("cache"); cache != nullptr) {
    if (!cache->is_object()) {
      return Status::InvalidArgument("\"cache\" must be an object");
    }
    // A missing version parses as 0, which no server speaks — the
    // mismatch is then rejected at the service layer with
    // FAILED_PRECONDITION (a protocol-level negotiation failure, not a
    // malformed frame).
    request.cache_version = IntMember(*cache, "version", 0);
    RAQO_RETURN_IF_ERROR(ReadInt(*cache, "offset", &request.cache_offset));
    RAQO_RETURN_IF_ERROR(ReadInt(*cache, "limit", &request.cache_limit));
    RAQO_RETURN_IF_ERROR(ParseCacheEntries(*cache, &request.cache_entries));
  }
  return request;
}

std::string SerializePlanResponse(const PlanResponse& response) {
  std::string out = "{\"status\": " + Quoted(response.status);
  if (!response.id.empty()) out += ", \"id\": " + Quoted(response.id);
  if (!response.error.empty()) {
    out += ", \"error\": " + Quoted(response.error);
  }
  if (response.ok() && response.has_cache) {
    out += StrPrintf(
        ", \"cache\": {\"version\": %lld, \"total\": %lld, "
        "\"offset\": %lld, \"loaded\": %lld, \"entries\": ",
        static_cast<long long>(response.cache_version),
        static_cast<long long>(response.cache_total),
        static_cast<long long>(response.cache_offset),
        static_cast<long long>(response.cache_loaded));
    out += CacheEntriesJson(response.cache_entries);
    out += "}";
  } else if (response.ok()) {
    out += ", \"plan\": " + Quoted(response.plan);
    out += StrPrintf(", \"cost\": {\"seconds\": %s, \"dollars\": %s}",
                     JsonNumber(response.cost.seconds).c_str(),
                     JsonNumber(response.cost.dollars).c_str());
    out += ", \"joins\": [";
    for (size_t i = 0; i < response.join_resources.size(); ++i) {
      if (i > 0) out += ", ";
      out += ResourceConfigJson(response.join_resources[i]);
    }
    out += "]";
    out += StrPrintf(
        ", \"stats\": {\"wall_ms\": %s, \"plans_considered\": %lld, "
        "\"resource_configs_explored\": %lld, \"cache_hits\": %lld, "
        "\"cache_misses\": %lld",
        JsonNumber(response.stats.wall_ms).c_str(),
        static_cast<long long>(response.stats.plans_considered),
        static_cast<long long>(response.stats.resource_configs_explored),
        static_cast<long long>(response.stats.cache_hits),
        static_cast<long long>(response.stats.cache_misses));
    if (response.stats.response_cache_hit) {
      out += ", \"response_cache_hit\": true";
    }
    out += "}";
  }
  out += StrPrintf(", \"server\": {\"queue_wait_us\": %s}}",
                   JsonNumber(response.queue_wait_us).c_str());
  return out;
}

Result<PlanResponse> ParsePlanResponse(std::string_view json) {
  RAQO_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (!root.is_object()) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  PlanResponse response;
  response.status = StringMember(root, "status");
  if (response.status.empty()) {
    return Status::InvalidArgument("response carries no \"status\"");
  }
  response.id = StringMember(root, "id");
  response.error = StringMember(root, "error");
  response.plan = StringMember(root, "plan");
  if (const JsonValue* cost = root.FindObject("cost"); cost != nullptr) {
    response.cost.seconds = NumberMember(*cost, "seconds", 0.0);
    response.cost.dollars = NumberMember(*cost, "dollars", 0.0);
  }
  if (const JsonValue* joins = root.FindArray("joins"); joins != nullptr) {
    for (const JsonValue& join : joins->items()) {
      RAQO_ASSIGN_OR_RETURN(resource::ResourceConfig config,
                            ParseResourceConfig(join));
      response.join_resources.push_back(config);
    }
  }
  if (const JsonValue* stats = root.FindObject("stats"); stats != nullptr) {
    response.stats.wall_ms = NumberMember(*stats, "wall_ms", 0.0);
    response.stats.plans_considered =
        IntMember(*stats, "plans_considered", 0);
    response.stats.resource_configs_explored =
        IntMember(*stats, "resource_configs_explored", 0);
    response.stats.cache_hits = IntMember(*stats, "cache_hits", 0);
    response.stats.cache_misses = IntMember(*stats, "cache_misses", 0);
    const JsonValue* hit = stats->FindBool("response_cache_hit");
    response.stats.response_cache_hit = hit != nullptr && hit->bool_value();
  }
  if (const JsonValue* server = root.FindObject("server");
      server != nullptr) {
    response.queue_wait_us = NumberMember(*server, "queue_wait_us", 0.0);
  }
  if (const JsonValue* cache = root.FindObject("cache"); cache != nullptr) {
    response.has_cache = true;
    response.cache_version = IntMember(*cache, "version", 0);
    response.cache_total = IntMember(*cache, "total", 0);
    response.cache_offset = IntMember(*cache, "offset", 0);
    response.cache_loaded = IntMember(*cache, "loaded", 0);
    RAQO_RETURN_IF_ERROR(
        ParseCacheEntries(*cache, &response.cache_entries));
  }
  return response;
}

std::string EncodeFrame(std::string_view payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.push_back(static_cast<char>((len >> 24) & 0xFF));
  frame.push_back(static_cast<char>((len >> 16) & 0xFF));
  frame.push_back(static_cast<char>((len >> 8) & 0xFF));
  frame.push_back(static_cast<char>(len & 0xFF));
  frame.append(payload.data(), payload.size());
  return frame;
}

FrameDecode TryDecodeFrame(std::string_view buffer, size_t max_frame_bytes,
                           std::string_view* payload, size_t* frame_size) {
  if (buffer.size() < kFrameHeaderBytes) return FrameDecode::kNeedMore;
  const auto* b = reinterpret_cast<const unsigned char*>(buffer.data());
  const uint32_t len = (static_cast<uint32_t>(b[0]) << 24) |
                       (static_cast<uint32_t>(b[1]) << 16) |
                       (static_cast<uint32_t>(b[2]) << 8) |
                       static_cast<uint32_t>(b[3]);
  if (len > max_frame_bytes) return FrameDecode::kTooLarge;
  if (buffer.size() < kFrameHeaderBytes + len) return FrameDecode::kNeedMore;
  *payload = buffer.substr(kFrameHeaderBytes, len);
  *frame_size = kFrameHeaderBytes + len;
  return FrameDecode::kComplete;
}

Status WriteFrame(int fd, std::string_view payload) {
  const std::string frame = EncodeFrame(payload);
  return net::SendAll(fd, frame.data(), frame.size());
}

Result<std::string> ReadFrame(int fd, size_t max_frame_bytes) {
  unsigned char header[kFrameHeaderBytes];
  RAQO_RETURN_IF_ERROR(net::RecvAll(fd, header, sizeof(header)));
  const uint32_t len = (static_cast<uint32_t>(header[0]) << 24) |
                       (static_cast<uint32_t>(header[1]) << 16) |
                       (static_cast<uint32_t>(header[2]) << 8) |
                       static_cast<uint32_t>(header[3]);
  if (len > max_frame_bytes) {
    return Status::InvalidArgument(StrPrintf(
        "frame of %u bytes exceeds the %zu-byte limit", len,
        max_frame_bytes));
  }
  std::string payload(len, '\0');
  if (len > 0) {
    RAQO_RETURN_IF_ERROR(net::RecvAll(fd, payload.data(), payload.size()));
  }
  return payload;
}

}  // namespace raqo::server
