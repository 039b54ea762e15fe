// The planning server end to end: wire protocol round trips, framing,
// admission control, deadlines, connection limits, and the SIGTERM
// drain — all over real loopback sockets against real planner workers.
// Run under -DRAQO_SANITIZE=thread and =address; every test here must
// be clean under both (see docs/SERVER.md).

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog/tpch.h"
#include "common/json.h"
#include "common/net.h"
#include "core/plan_cache.h"
#include "core/raqo_planner.h"
#include "persist/cache_persist.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan_node.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/service.h"
#include "sim/profile_runner.h"

namespace raqo {
namespace {

using server::ErrorResponse;
using server::PlanRequest;
using server::PlanResponse;
using server::PlanningClient;
using server::PlanningServer;
using server::PlanningService;
using server::ServerOptions;

const cost::JoinCostModels& Models() {
  static const cost::JoinCostModels* models = new cost::JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  return *models;
}

const catalog::Catalog& TestCatalog() {
  static const catalog::Catalog* catalog =
      new catalog::Catalog(catalog::BuildTpchCatalog(100.0));
  return *catalog;
}

core::RaqoPlannerOptions TestPlannerOptions() {
  core::RaqoPlannerOptions options;
  options.evaluator.use_cache = true;
  options.evaluator.cache_mode = core::CacheLookupMode::kExact;
  options.clear_cache_between_queries = false;
  return options;
}

PlanningService MakeService() {
  server::PlanningServiceOptions options;
  options.planner = TestPlannerOptions();
  return PlanningService(&TestCatalog(), Models(),
                         resource::ClusterConditions::PaperDefault(),
                         resource::PricingModel(), options);
}

/// Polls `pred` for up to ~5 s.
bool WaitUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 1000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// ---------------------------------------------------------------------
// Wire protocol

TEST(ProtocolTest, RequestRoundTripsThroughJson) {
  PlanRequest request;
  request.id = "q-42 \"quoted\"";
  request.sql = "select * from orders, lineitem where o_orderkey > 17";
  request.has_max_dollars = true;
  request.max_dollars = 0.625;
  request.algorithm = "selinger";
  request.search = "hillclimb";
  request.has_use_cache = true;
  request.use_cache = false;
  request.has_time_weight = true;
  request.time_weight = 0.25;
  request.deadline_ms = 1500;
  request.debug_sleep_ms = 3;

  Result<PlanRequest> parsed =
      server::ParsePlanRequest(server::SerializePlanRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, request.id);
  EXPECT_EQ(parsed->sql, request.sql);
  EXPECT_TRUE(parsed->tables.empty());
  EXPECT_FALSE(parsed->has_resources);
  ASSERT_TRUE(parsed->has_max_dollars);
  EXPECT_EQ(parsed->max_dollars, request.max_dollars);
  EXPECT_EQ(parsed->algorithm, "selinger");
  EXPECT_EQ(parsed->search, "hillclimb");
  ASSERT_TRUE(parsed->has_use_cache);
  EXPECT_FALSE(parsed->use_cache);
  ASSERT_TRUE(parsed->has_time_weight);
  EXPECT_EQ(parsed->time_weight, 0.25);
  EXPECT_EQ(parsed->deadline_ms, 1500);
  EXPECT_EQ(parsed->debug_sleep_ms, 3);
}

TEST(ProtocolTest, TableListAndResourcesRoundTrip) {
  PlanRequest request;
  request.tables = {"orders", "lineitem", "customer"};
  request.has_resources = true;
  request.resources = resource::ResourceConfig(7.5, 12);

  Result<PlanRequest> parsed =
      server::ParsePlanRequest(server::SerializePlanRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tables, request.tables);
  ASSERT_TRUE(parsed->has_resources);
  EXPECT_EQ(parsed->resources.num_containers(), 12);
  EXPECT_EQ(parsed->resources.container_size_gb(), 7.5);
}

TEST(ProtocolTest, ResponseRoundTripsBitIdentically) {
  PlanResponse response;
  response.id = "r1";
  response.plan = "(orders ⨝ lineitem)";
  response.cost.seconds = 123.45600000000013;  // needs all 17 digits
  response.cost.dollars = 0.1 + 0.2;           // 0.30000000000000004
  const resource::ResourceConfig r(3.25, 9);
  response.join_resources = {r, r};
  response.stats.wall_ms = 1.5;
  response.stats.plans_considered = 77;
  response.stats.resource_configs_explored = 1234;
  response.stats.cache_hits = 5;
  response.stats.cache_misses = 6;
  response.queue_wait_us = 42.5;

  Result<PlanResponse> parsed =
      server::ParsePlanResponse(server::SerializePlanResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->ok());
  EXPECT_EQ(parsed->plan, response.plan);
  EXPECT_EQ(parsed->cost.seconds, response.cost.seconds);
  EXPECT_EQ(parsed->cost.dollars, response.cost.dollars);
  ASSERT_EQ(parsed->join_resources.size(), 2u);
  EXPECT_EQ(parsed->join_resources[0].num_containers(), 9);
  EXPECT_EQ(parsed->join_resources[0].container_size_gb(), 3.25);
  EXPECT_EQ(parsed->stats.plans_considered, 77);
  EXPECT_EQ(parsed->queue_wait_us, 42.5);
  EXPECT_FALSE(parsed->stats.response_cache_hit);

  // Without the response-cache flag a response serializes exactly as
  // it did before the flag existed...
  EXPECT_EQ(server::SerializePlanResponse(response),
            "{\"status\": \"OK\", \"id\": \"r1\", \"plan\": \"(orders ⨝ "
            "lineitem)\", \"cost\": {\"seconds\": 123.45600000000013, "
            "\"dollars\": 0.30000000000000004}, \"joins\": "
            "[{\"container_size_gb\": 3.25, \"num_containers\": 9}, "
            "{\"container_size_gb\": 3.25, \"num_containers\": 9}], "
            "\"stats\": {\"wall_ms\": 1.5, \"plans_considered\": 77, "
            "\"resource_configs_explored\": 1234, \"cache_hits\": 5, "
            "\"cache_misses\": 6}, \"server\": {\"queue_wait_us\": 42.5}}");
  // ...and with it the flag is the one new member of `stats`.
  response.stats.response_cache_hit = true;
  const std::string hit = server::SerializePlanResponse(response);
  EXPECT_NE(hit.find("\"cache_misses\": 6, \"response_cache_hit\": true}"),
            std::string::npos)
      << hit;
  Result<PlanResponse> parsed_hit = server::ParsePlanResponse(hit);
  ASSERT_TRUE(parsed_hit.ok()) << parsed_hit.status().ToString();
  EXPECT_TRUE(parsed_hit->stats.response_cache_hit);
  EXPECT_EQ(parsed_hit->stats.cache_misses, 6);
}

TEST(ProtocolTest, ErrorResponseCarriesStatusAndMessage) {
  PlanResponse error = ErrorResponse(server::kWireResourceExhausted,
                                     "queue full", "q7");
  Result<PlanResponse> parsed =
      server::ParsePlanResponse(server::SerializePlanResponse(error));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->ok());
  EXPECT_EQ(parsed->status, "RESOURCE_EXHAUSTED");
  EXPECT_EQ(parsed->error, "queue full");
  EXPECT_EQ(parsed->id, "q7");
}

TEST(ProtocolTest, ParseRejectsGarbage) {
  EXPECT_FALSE(server::ParsePlanRequest("not json").ok());
  EXPECT_FALSE(server::ParsePlanRequest("[1,2,3]").ok());
  EXPECT_FALSE(server::ParsePlanRequest("{\"sql\": 7}").ok());
  EXPECT_FALSE(server::ParsePlanResponse("{").ok());
}

TEST(ProtocolTest, FrameEncodesBigEndianLength) {
  const std::string frame = server::EncodeFrame("abc");
  ASSERT_EQ(frame.size(), server::kFrameHeaderBytes + 3);
  EXPECT_EQ(frame[0], '\0');
  EXPECT_EQ(frame[1], '\0');
  EXPECT_EQ(frame[2], '\0');
  EXPECT_EQ(frame[3], '\x03');
  EXPECT_EQ(frame.substr(4), "abc");
}

TEST(ProtocolTest, TryDecodeFrameHandlesPartialAndOversized) {
  const std::string frame = server::EncodeFrame("hello");
  std::string_view payload;
  size_t frame_size = 0;

  // Every strict prefix needs more bytes.
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(server::TryDecodeFrame(std::string_view(frame).substr(0, n),
                                     1024, &payload, &frame_size),
              server::FrameDecode::kNeedMore);
  }
  ASSERT_EQ(server::TryDecodeFrame(frame, 1024, &payload, &frame_size),
            server::FrameDecode::kComplete);
  EXPECT_EQ(payload, "hello");
  EXPECT_EQ(frame_size, frame.size());

  // A header advertising more than the cap is rejected before any
  // payload accumulates.
  EXPECT_EQ(server::TryDecodeFrame(frame, 4, &payload, &frame_size),
            server::FrameDecode::kTooLarge);
}

TEST(ProtocolTest, TenantRoundTripsAndStaysOffTheWireWhenEmpty) {
  PlanRequest request;
  request.id = "q1";
  request.tenant = "acme \"prod\"";
  request.tables = {"orders", "lineitem"};
  Result<PlanRequest> parsed =
      server::ParsePlanRequest(server::SerializePlanRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tenant, request.tenant);

  // No tenant -> no field: the serialized bytes of quota-free traffic
  // are unchanged from before tenants existed.
  request.tenant.clear();
  EXPECT_EQ(server::SerializePlanRequest(request).find("tenant"),
            std::string::npos);
}

TEST(ProtocolTest, PeekTopLevelStringFindsOnlyTopLevelKeys) {
  using server::PeekTopLevelString;
  EXPECT_EQ(PeekTopLevelString(R"({"id": "q7", "tenant": "acme"})", "id"),
            "q7");
  EXPECT_EQ(PeekTopLevelString(R"({"id": "q7", "tenant": "acme"})",
                               "tenant"),
            "acme");
  // Whitespace and field order don't matter.
  EXPECT_EQ(PeekTopLevelString("  {  \"tenant\"  :  \"t\"  }", "tenant"),
            "t");
  // A key mentioned inside another string value is not a key.
  EXPECT_EQ(PeekTopLevelString(
                R"({"sql": "select \"id\" from t", "id": "real"})", "id"),
            "real");
  EXPECT_EQ(PeekTopLevelString(R"({"sql": "where tenant = 'x'"})", "tenant"),
            "");
  // Nested objects and arrays are opaque at the top level.
  EXPECT_EQ(PeekTopLevelString(
                R"({"nested": {"id": "inner"}, "id": "outer"})", "id"),
            "outer");
  EXPECT_EQ(PeekTopLevelString(R"({"a": [{"id": "x"}], "id": "y"})", "id"),
            "y");
  // Escapes in the value decode exactly as a full parse would.
  EXPECT_EQ(PeekTopLevelString(R"({"id": "a\"b\\cA"})", "id"),
            "a\"b\\cA");
  // Absent, non-string, or malformed -> empty.
  EXPECT_EQ(PeekTopLevelString(R"({"id": "q"})", "tenant"), "");
  EXPECT_EQ(PeekTopLevelString(R"({"id": 7})", "id"), "");
  EXPECT_EQ(PeekTopLevelString(R"({"id": null})", "id"), "");
  EXPECT_EQ(PeekTopLevelString("not json", "id"), "");
  EXPECT_EQ(PeekTopLevelString(R"([{"id": "q"}])", "id"), "");
  EXPECT_EQ(PeekTopLevelString(R"({"id": "unterminated)", "id"), "");
}

// ---------------------------------------------------------------------
// PlanningService (request handling without sockets)

TEST(PlanningServiceTest, RejectsAmbiguousQuerySpec) {
  PlanningService service = MakeService();
  PlanRequest both;
  both.sql = "select * from orders, lineitem";
  both.tables = {"orders"};
  EXPECT_EQ(service.Handle(both).status, "INVALID_ARGUMENT");

  PlanRequest neither;
  EXPECT_EQ(service.Handle(neither).status, "INVALID_ARGUMENT");

  PlanRequest conflicting;
  conflicting.tables = {"orders", "lineitem"};
  conflicting.has_resources = true;
  conflicting.has_max_dollars = true;
  EXPECT_EQ(service.Handle(conflicting).status, "INVALID_ARGUMENT");
}

TEST(PlanningServiceTest, ReportsUnknownTablesAndKnobs) {
  PlanningService service = MakeService();
  PlanRequest unknown;
  unknown.tables = {"orders", "no_such_table"};
  EXPECT_EQ(service.Handle(unknown).status, "NOT_FOUND");

  PlanRequest bad_knob;
  bad_knob.tables = {"orders", "lineitem"};
  bad_knob.algorithm = "quantum";
  EXPECT_EQ(service.Handle(bad_knob).status, "INVALID_ARGUMENT");

  PlanRequest bad_weight;
  bad_weight.tables = {"orders", "lineitem"};
  bad_weight.has_time_weight = true;
  bad_weight.time_weight = 1.5;
  EXPECT_EQ(service.Handle(bad_weight).status, "INVALID_ARGUMENT");

  // Resource searches run on the request's worker; there is no parallel
  // search to select.
  PlanRequest parallel;
  parallel.tables = {"orders", "lineitem"};
  parallel.search = "parallel";
  EXPECT_EQ(service.Handle(parallel).status, "INVALID_ARGUMENT");
}

TEST(PlanningServiceTest, OversizedSqlIsRejectedCleanly) {
  PlanningService service = MakeService();
  PlanRequest big;
  big.sql = "select * from " + std::string(server::kMaxSqlBytes, 'x');
  PlanResponse response = service.Handle(big);
  EXPECT_EQ(response.status, "INVALID_ARGUMENT");
  EXPECT_NE(response.error.find("exceeds"), std::string::npos);
}

TEST(PlanningServiceTest, GridKnobRunsTheExactSwitchAwareSearch) {
  // "grid" must return brute force's exact answer from a fraction of
  // its cell evaluations.
  PlanningService service = MakeService();
  const catalog::Catalog& catalog = TestCatalog();
  PlanRequest request;
  request.tables = {"orders", "lineitem", "customer"};
  request.search = "grid";
  request.has_use_cache = true;
  request.use_cache = false;
  const PlanResponse response = service.Handle(request);
  ASSERT_TRUE(response.ok()) << response.status << ": " << response.error;

  core::RaqoPlannerOptions brute_options = TestPlannerOptions();
  brute_options.evaluator.use_cache = false;
  brute_options.evaluator.search = core::ResourceSearch::kBruteForce;
  core::RaqoPlanner brute(&catalog, Models(),
                          resource::ClusterConditions::PaperDefault(),
                          resource::PricingModel(), brute_options);
  std::vector<catalog::TableId> tables;
  for (const std::string& name : request.tables) {
    tables.push_back(*catalog.FindTable(name));
  }
  const Result<core::JointPlan> expected = brute.Plan(tables);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(response.plan, expected->plan->ToString(&catalog));
  EXPECT_EQ(response.cost.seconds, expected->cost.seconds);
  EXPECT_EQ(response.cost.dollars, expected->cost.dollars);
  EXPECT_LT(response.stats.resource_configs_explored,
            expected->stats.resource_configs_explored);
}

TEST(PlanningServiceTest, TimeWeightKnobAlsoRanksJoinOrders) {
  // time_weight must steer join ordering, not only each join's resource
  // search: a request must get exactly the plan a direct planner returns
  // with both weights set. Ranking join orders by time alone makes Q3,
  // Q2 and All costlier in dollars. Each query is first planned at the
  // default weight, which warms the shared cache with time-optimal
  // resources; the weight-0 request must neither read nor fill it.
  PlanningService service = MakeService();
  const catalog::Catalog& catalog = TestCatalog();
  core::RaqoPlannerOptions direct_options = TestPlannerOptions();
  direct_options.evaluator.use_cache = false;
  direct_options.evaluator.time_weight = 0.0;
  direct_options.selinger.time_weight = 0.0;
  for (catalog::TpchQuery query :
       {catalog::TpchQuery::kQ12, catalog::TpchQuery::kQ3,
        catalog::TpchQuery::kQ2, catalog::TpchQuery::kAll}) {
    const std::vector<catalog::TableId> tables =
        *catalog::TpchQueryTables(catalog, query);
    const char* name = catalog::TpchQueryName(query);
    PlanRequest warm;
    for (catalog::TableId id : tables) {
      warm.tables.push_back(catalog.table(id).name);
    }
    ASSERT_TRUE(service.Handle(warm).ok()) << name;
    const int64_t warmed = service.shared_cache()->entry_count();
    ASSERT_GT(warmed, 0) << name;

    core::RaqoPlanner direct(&catalog, Models(),
                             resource::ClusterConditions::PaperDefault(),
                             resource::PricingModel(), direct_options);
    const Result<core::JointPlan> expected = direct.Plan(tables);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (const bool use_cache : {false, true}) {
      PlanRequest request = warm;
      request.has_use_cache = true;
      request.use_cache = use_cache;
      request.has_time_weight = true;
      request.time_weight = 0.0;
      const PlanResponse response = service.Handle(request);
      ASSERT_TRUE(response.ok()) << response.status << ": " << response.error;
      EXPECT_EQ(response.plan, expected->plan->ToString(&catalog))
          << name << " use_cache=" << use_cache;
      EXPECT_EQ(response.cost.seconds, expected->cost.seconds)
          << name << " use_cache=" << use_cache;
      EXPECT_EQ(response.cost.dollars, expected->cost.dollars)
          << name << " use_cache=" << use_cache;
      EXPECT_EQ(service.shared_cache()->entry_count(), warmed) << name;
    }
  }
}

TEST(PlanningServiceTest, NonDefaultSearchLeavesTheSharedCacheExact) {
  // The hill climbs may settle on other resources than the exact default
  // search. A request that picks one must not leave its answers in the
  // shared cache for later default requests.
  PlanningService warmed = MakeService();
  PlanningService fresh = MakeService();
  const catalog::Catalog& catalog = TestCatalog();
  for (catalog::TpchQuery query :
       {catalog::TpchQuery::kQ12, catalog::TpchQuery::kQ3,
        catalog::TpchQuery::kQ2, catalog::TpchQuery::kAll}) {
    const char* name = catalog::TpchQueryName(query);
    const std::vector<catalog::TableId> tables =
        *catalog::TpchQueryTables(catalog, query);
    PlanRequest request;
    for (catalog::TableId id : tables) {
      request.tables.push_back(catalog.table(id).name);
    }
    PlanRequest accelerated = request;
    accelerated.search = "accelerated";
    ASSERT_TRUE(warmed.Handle(accelerated).ok()) << name;

    const PlanResponse got = warmed.Handle(request);
    const PlanResponse want = fresh.Handle(request);
    ASSERT_TRUE(got.ok()) << got.status << ": " << got.error;
    ASSERT_TRUE(want.ok()) << want.status << ": " << want.error;
    EXPECT_EQ(got.plan, want.plan) << name;
    EXPECT_EQ(got.cost.seconds, want.cost.seconds) << name;
    EXPECT_EQ(got.cost.dollars, want.cost.dollars) << name;
    EXPECT_EQ(got.join_resources, want.join_resources) << name;
  }
}

TEST(PlanningServiceTest, LookupCountersCountOnlySharedCacheLookups) {
  // Every resource-plan lookup a request makes is one lookup in the
  // shared cache, so the process-wide cache.lookup.{hit,miss} counters
  // move exactly as much as the shared cache's own statistics.
  PlanningService service = MakeService();
  const catalog::Catalog& catalog = TestCatalog();
  const bool metrics_were_on = obs::DefaultMetrics().enabled();
  obs::DefaultMetrics().set_enabled(true);
  obs::Counter* hit = obs::DefaultMetrics().GetCounter("cache.lookup.hit");
  obs::Counter* miss = obs::DefaultMetrics().GetCounter("cache.lookup.miss");
  const int64_t hit_before = hit->Value();
  const int64_t miss_before = miss->Value();
  const core::CacheStats shared_before = service.shared_cache_stats();
  for (int round = 0; round < 2; ++round) {
    for (catalog::TpchQuery query :
         {catalog::TpchQuery::kQ12, catalog::TpchQuery::kQ3,
          catalog::TpchQuery::kQ2, catalog::TpchQuery::kAll}) {
      const std::vector<catalog::TableId> tables =
          *catalog::TpchQueryTables(catalog, query);
      PlanRequest request;
      for (catalog::TableId id : tables) {
        request.tables.push_back(catalog.table(id).name);
      }
      ASSERT_TRUE(service.Handle(request).ok());
    }
  }
  const core::CacheStats shared_after = service.shared_cache_stats();
  const int64_t hits = hit->Value() - hit_before;
  const int64_t misses = miss->Value() - miss_before;
  obs::DefaultMetrics().set_enabled(metrics_were_on);
  EXPECT_GT(shared_after.hits - shared_before.hits, 0);
  EXPECT_GT(shared_after.misses - shared_before.misses, 0);
  EXPECT_EQ(hits, shared_after.hits - shared_before.hits);
  EXPECT_EQ(misses, shared_after.misses - shared_before.misses);
}

// ---------------------------------------------------------------------
// Response cache

/// Default knobs and one variation of each planning input, over the SQL
/// form or the table-list form of one three-table query.
std::vector<std::pair<std::string, PlanRequest>> KnobMatrix(bool sql_form) {
  PlanRequest base;
  if (sql_form) {
    base.sql =
        "select * from customer, orders, lineitem where c_custkey = "
        "o_custkey and o_orderkey = l_orderkey and l_shipdate < 1277";
  } else {
    base.tables = {"customer", "orders", "lineitem"};
  }
  std::vector<std::pair<std::string, PlanRequest>> matrix = {
      {"default", base}};
  const auto add = [&](std::string name, auto&& vary) {
    PlanRequest request = base;
    vary(request);
    matrix.emplace_back(std::move(name), std::move(request));
  };
  for (const char* search : {"grid", "hillclimb", "accelerated"}) {
    add(std::string("search=") + search,
        [&](PlanRequest& r) { r.search = search; });
  }
  add("use_cache=false", [](PlanRequest& r) {
    r.has_use_cache = true;
    r.use_cache = false;
  });
  for (const double weight : {0.0, 0.37}) {
    add("time_weight=" + std::to_string(weight), [&](PlanRequest& r) {
      r.has_time_weight = true;
      r.time_weight = weight;
    });
  }
  add("algorithm=randomized",
      [](PlanRequest& r) { r.algorithm = "randomized"; });
  add("resources", [](PlanRequest& r) {
    r.has_resources = true;
    r.resources = resource::ResourceConfig(4.0, 8);
  });
  add("max_dollars", [](PlanRequest& r) {
    r.has_max_dollars = true;
    r.max_dollars = 1000.0;
  });
  return matrix;
}

TEST(PlanningServiceTest, RepeatedRequestIsAnsweredFromResponseCache) {
  // One service sees every combination, so each must be told apart by
  // its planning inputs; its answer must be what a fresh service plans.
  PlanningService service = MakeService();
  for (const bool sql_form : {true, false}) {
    for (const auto& [name, request] : KnobMatrix(sql_form)) {
      SCOPED_TRACE(name + (sql_form ? " (sql)" : " (tables)"));
      const PlanResponse want = MakeService().Handle(request);
      ASSERT_TRUE(want.ok()) << want.status << ": " << want.error;
      for (int i = 0; i < 3; ++i) {
        PlanRequest call = request;
        call.id = "call-" + std::to_string(i);
        const PlanResponse got = service.Handle(call);
        ASSERT_TRUE(got.ok()) << got.status << ": " << got.error;
        EXPECT_EQ(got.id, call.id);
        // Stored at the second planning, answered from the third on.
        EXPECT_EQ(got.stats.response_cache_hit, i == 2) << call.id;
        EXPECT_EQ(got.plan, want.plan) << call.id;
        EXPECT_EQ(got.cost.seconds, want.cost.seconds) << call.id;
        EXPECT_EQ(got.cost.dollars, want.cost.dollars) << call.id;
        EXPECT_EQ(got.join_resources, want.join_resources) << call.id;
        EXPECT_EQ(got.stats.plans_considered, want.stats.plans_considered)
            << call.id;
      }
    }
  }
  const server::ResponseCacheStats stats = service.response_cache_stats();
  EXPECT_EQ(stats.entries, 2 * static_cast<int64_t>(KnobMatrix(true).size()));
  EXPECT_EQ(stats.hits, stats.entries);
  EXPECT_EQ(stats.misses, 2 * stats.entries);
}

TEST(PlanningServiceTest, ResponseCacheIsClearedByCacheLoad) {
  // Loaded entries may come from a peer with other models, so a node
  // must plan again rather than answer from before the load.
  PlanningService service = MakeService();
  PlanRequest request;
  request.tables = {"customer", "orders", "lineitem"};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.Handle(request).stats.response_cache_hit, i == 2);
  }

  PlanRequest rejected_load;
  rejected_load.type = "cache_load";
  rejected_load.cache_version = server::kCacheWireVersion + 1;
  ASSERT_FALSE(service.Handle(rejected_load).ok());
  const PlanResponse stored = service.Handle(request);
  EXPECT_TRUE(stored.stats.response_cache_hit);

  PlanRequest load;
  load.type = "cache_load";
  load.cache_entries = service.shared_cache()->DumpEntries();
  ASSERT_FALSE(load.cache_entries.empty());
  ASSERT_TRUE(service.Handle(load).ok());
  EXPECT_EQ(service.response_cache_stats().entries, 0);
  EXPECT_EQ(service.response_cache_stats().bytes, 0);

  const PlanResponse replanned = service.Handle(request);
  ASSERT_TRUE(replanned.ok()) << replanned.status << ": " << replanned.error;
  EXPECT_FALSE(replanned.stats.response_cache_hit);
  EXPECT_EQ(replanned.plan, stored.plan);
  EXPECT_EQ(replanned.cost.seconds, stored.cost.seconds);
  EXPECT_EQ(replanned.cost.dollars, stored.cost.dollars);
  EXPECT_EQ(replanned.join_resources, stored.join_resources);
}

TEST(PlanningServiceTest, NearestNeighbourServiceNeverAnswersFromResponseCache) {
  // A nearest-neighbour cache answers from whatever earlier requests
  // left in it, so a caching request's answer is not a function of the
  // request alone; one that plans without a cache still is.
  server::PlanningServiceOptions options;
  options.planner = TestPlannerOptions();
  options.planner.evaluator.cache_mode =
      core::CacheLookupMode::kNearestNeighbor;
  PlanningService service(&TestCatalog(), Models(),
                          resource::ClusterConditions::PaperDefault(),
                          resource::PricingModel(), options);
  PlanRequest request;
  request.tables = {"customer", "orders", "lineitem"};
  for (int i = 0; i < 3; ++i) {
    const PlanResponse response = service.Handle(request);
    ASSERT_TRUE(response.ok()) << response.status << ": " << response.error;
    EXPECT_FALSE(response.stats.response_cache_hit) << i;
  }
  server::ResponseCacheStats stats = service.response_cache_stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.hits + stats.misses, 0);

  PlanRequest uncached = request;
  uncached.has_use_cache = true;
  uncached.use_cache = false;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.Handle(uncached).stats.response_cache_hit, i == 2);
  }
  stats = service.response_cache_stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.hits, 1);
}

TEST(PlanningServiceTest, ResponseCacheStaysWithinItsByteBudget) {
  // Statements near the SQL size cap, each planned twice so it is
  // stored, until storing one evicts another.
  PlanningService service = MakeService();
  const auto statement = [](int i) {
    PlanRequest request;
    request.sql = "select * from orders, lineitem where o_orderkey = "
                  "l_orderkey" +
                  std::string(60000 + static_cast<size_t>(i), ' ');
    return request;
  };
  constexpr int kMaxStatements = 64;
  int newest = 0;
  for (; newest < kMaxStatements; ++newest) {
    ASSERT_TRUE(service.Handle(statement(newest)).ok());
    ASSERT_TRUE(service.Handle(statement(newest)).ok());
    const server::ResponseCacheStats stats = service.response_cache_stats();
    ASSERT_LE(stats.bytes,
              static_cast<int64_t>(server::kResponseCacheBudgetBytes));
    if (stats.entries <= newest) break;  // storing `newest` evicted
  }
  ASSERT_LT(newest, kMaxStatements) << "the budget never filled";
  // Each statement takes over 60,000 of the 1 MiB.
  EXPECT_GE(newest, 16);

  EXPECT_TRUE(service.Handle(statement(newest)).stats.response_cache_hit);
  EXPECT_TRUE(
      service.Handle(statement(newest - 1)).stats.response_cache_hit);
  const PlanResponse oldest = service.Handle(statement(0));
  ASSERT_TRUE(oldest.ok()) << oldest.status << ": " << oldest.error;
  EXPECT_FALSE(oldest.stats.response_cache_hit);
  EXPECT_LE(service.response_cache_stats().bytes,
            static_cast<int64_t>(server::kResponseCacheBudgetBytes));
}

// ---------------------------------------------------------------------
// End-to-end over loopback

struct TestServer {
  explicit TestServer(ServerOptions options = ServerOptions())
      : service(MakeService()) {
    options.port = 0;  // ephemeral
    server = std::make_unique<PlanningServer>(&service, options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  PlanningClient Connect() {
    Result<PlanningClient> client =
        PlanningClient::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  PlanningService service;
  std::unique_ptr<PlanningServer> server;
};

/// Fixture for behaviors that must hold at every reactor count: the
/// drain, fairness, deadline, and pipelining guarantees are properties
/// of the admission plane, which the reactor sharding must not disturb.
class ReactorServerTest : public ::testing::TestWithParam<int> {
 protected:
  ServerOptions OptionsWithReactors() const {
    ServerOptions options;
    options.num_reactors = GetParam();
    return options;
  }
};

INSTANTIATE_TEST_SUITE_P(Reactors, ReactorServerTest,
                         ::testing::Values(1, 2, 4),
                         ::testing::PrintToStringParamName());

/// Fault injector scripted by a lambda. The callbacks run on whatever
/// thread performs the I/O (reactor threads AND the test's own client
/// calls, which share the process-wide hook), so scripts filter by fd —
/// usually "pass through my client fd, fault everything else", which in
/// a one-connection test isolates exactly the server side of the socket.
class ScriptedFaultInjector : public net::FaultInjector {
 public:
  using Script = std::function<net::FaultAction(int fd, size_t len)>;
  ScriptedFaultInjector(Script on_send, Script on_recv)
      : on_send_(std::move(on_send)), on_recv_(std::move(on_recv)) {}

  net::FaultAction OnSend(int fd, size_t len) override {
    return on_send_ ? on_send_(fd, len) : net::FaultAction::PassThrough();
  }
  net::FaultAction OnRecv(int fd, size_t len) override {
    return on_recv_ ? on_recv_(fd, len) : net::FaultAction::PassThrough();
  }

 private:
  Script on_send_;
  Script on_recv_;
};

TEST(PlanningServerTest, RoundTripMatchesDirectPlannerCall) {
  TestServer ts;
  PlanningClient client = ts.Connect();

  PlanRequest request;
  request.id = "rt";
  request.sql = "select * from orders, lineitem, customer";
  Result<PlanResponse> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok()) << response->status << ": " << response->error;

  // The same planning, one function call instead of one socket away.
  const catalog::Catalog& catalog = TestCatalog();
  core::RaqoPlanner direct(&catalog, Models(),
                           resource::ClusterConditions::PaperDefault(),
                           resource::PricingModel(), TestPlannerOptions());
  std::vector<catalog::TableId> tables;
  for (const char* name : {"orders", "lineitem", "customer"}) {
    tables.push_back(*catalog.FindTable(name));
  }
  Result<core::JointPlan> expected = direct.Plan(tables);
  ASSERT_TRUE(expected.ok());

  // Bit-identical: the wire format prints doubles with %.17g, which
  // round-trips IEEE doubles exactly.
  EXPECT_EQ(response->id, "rt");
  EXPECT_EQ(response->plan, expected->plan->ToString(&catalog));
  EXPECT_EQ(response->cost.seconds, expected->cost.seconds);
  EXPECT_EQ(response->cost.dollars, expected->cost.dollars);

  std::vector<resource::ResourceConfig> expected_resources;
  expected->plan->VisitJoins([&](const plan::PlanNode& join) {
    expected_resources.push_back(
        join.resources().value_or(resource::ResourceConfig()));
  });
  ASSERT_EQ(response->join_resources.size(), expected_resources.size());
  for (size_t i = 0; i < expected_resources.size(); ++i) {
    EXPECT_EQ(response->join_resources[i], expected_resources[i]);
  }
}

TEST(PlanningServerTest, ServesResourceAndBudgetModes) {
  TestServer ts;
  PlanningClient client = ts.Connect();

  PlanRequest fixed;
  fixed.id = "fixed";
  fixed.tables = {"orders", "lineitem"};
  fixed.has_resources = true;
  fixed.resources = resource::ResourceConfig(4.0, 8);
  Result<PlanResponse> fixed_response = client.Call(fixed);
  ASSERT_TRUE(fixed_response.ok());
  ASSERT_TRUE(fixed_response->ok())
      << fixed_response->status << ": " << fixed_response->error;
  for (const resource::ResourceConfig& r : fixed_response->join_resources) {
    EXPECT_EQ(r, fixed.resources);
  }

  const catalog::Catalog& catalog = TestCatalog();
  core::RaqoPlanner direct(&catalog, Models(),
                           resource::ClusterConditions::PaperDefault(),
                           resource::PricingModel(), TestPlannerOptions());
  std::vector<catalog::TableId> tables = {*catalog.FindTable("orders"),
                                          *catalog.FindTable("lineitem")};
  Result<core::JointPlan> expected =
      direct.PlanForResources(tables, fixed.resources);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(fixed_response->plan, expected->plan->ToString(&catalog));
  EXPECT_EQ(fixed_response->cost.seconds, expected->cost.seconds);

  PlanRequest budget;
  budget.id = "budget";
  budget.tables = {"orders", "lineitem"};
  budget.has_max_dollars = true;
  budget.max_dollars = 1000.0;  // generous: must be satisfiable
  Result<PlanResponse> budget_response = client.Call(budget);
  ASSERT_TRUE(budget_response.ok());
  ASSERT_TRUE(budget_response->ok())
      << budget_response->status << ": " << budget_response->error;
  EXPECT_LE(budget_response->cost.dollars, 1000.0);
}

TEST(PlanningServerTest, ConcurrentClientsAllGetTheSequentialAnswer) {
  ServerOptions options;
  options.num_workers = 4;
  TestServer ts(options);

  const catalog::Catalog& catalog = TestCatalog();
  core::RaqoPlanner direct(&catalog, Models(),
                           resource::ClusterConditions::PaperDefault(),
                           resource::PricingModel(), TestPlannerOptions());
  std::vector<catalog::TableId> tables = {*catalog.FindTable("orders"),
                                          *catalog.FindTable("lineitem"),
                                          *catalog.FindTable("customer")};
  Result<core::JointPlan> expected = direct.Plan(tables);
  ASSERT_TRUE(expected.ok());
  const std::string expected_plan = expected->plan->ToString(&catalog);

  constexpr int kClients = 8;
  constexpr int kCallsEach = 3;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Result<PlanningClient> client =
          PlanningClient::Connect("127.0.0.1", ts.server->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int call = 0; call < kCallsEach; ++call) {
        PlanRequest request;
        request.id = "c" + std::to_string(t) + "." + std::to_string(call);
        request.sql = "select * from orders, lineitem, customer";
        Result<PlanResponse> response = client->Call(request);
        if (!response.ok() || !response->ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (response->id != request.id || response->plan != expected_plan ||
            response->cost.seconds != expected->cost.seconds) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  const server::ServerStats stats = ts.server->stats();
  EXPECT_GE(stats.connections_accepted, kClients);
  EXPECT_GE(stats.requests_admitted, kClients * kCallsEach);
}

TEST(PlanningServerTest, QueueOverflowAnswersResourceExhausted) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.enable_test_hooks = true;
  TestServer ts(options);

  Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fd.ok());

  // #1 occupies the single worker, #2 the single queue slot, #3 must be
  // rejected immediately instead of growing the queue.
  PlanRequest slow;
  slow.id = "slow";
  slow.tables = {"orders", "lineitem"};
  slow.debug_sleep_ms = 400;
  ASSERT_TRUE(
      server::WriteFrame(fd->get(), SerializePlanRequest(slow)).ok());
  ASSERT_TRUE(WaitUntil(
      [&] { return ts.server->stats().requests_executing == 1; }));

  PlanRequest queued = slow;
  queued.id = "queued";
  queued.debug_sleep_ms = 0;
  ASSERT_TRUE(
      server::WriteFrame(fd->get(), SerializePlanRequest(queued)).ok());
  ASSERT_TRUE(WaitUntil([&] { return ts.server->stats().queue_depth == 1; }));

  PlanRequest overflow = queued;
  overflow.id = "overflow";
  ASSERT_TRUE(
      server::WriteFrame(fd->get(), SerializePlanRequest(overflow)).ok());

  // Three responses; the rejection races ahead of the planned ones, so
  // collect all and match by id — the rejection echoes the id of the
  // exact request that was refused (peeked before any parse).
  int ok_count = 0;
  int exhausted_count = 0;
  for (int i = 0; i < 3; ++i) {
    Result<std::string> payload = server::ReadFrame(fd->get(), 64u << 20);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    Result<PlanResponse> response = server::ParsePlanResponse(*payload);
    ASSERT_TRUE(response.ok());
    if (response->ok()) {
      ++ok_count;
      EXPECT_TRUE(response->id == "slow" || response->id == "queued");
    } else {
      ++exhausted_count;
      EXPECT_EQ(response->status, "RESOURCE_EXHAUSTED");
      EXPECT_EQ(response->id, "overflow");
      EXPECT_NE(response->error.find("queue full"), std::string::npos);
    }
  }
  EXPECT_EQ(ok_count, 2);
  EXPECT_EQ(exhausted_count, 1);
  EXPECT_EQ(ts.server->stats().rejected_queue_full, 1);
}

TEST_P(ReactorServerTest, ExpiredQueuedRequestIsCancelled) {
  ServerOptions options = OptionsWithReactors();
  options.num_workers = 1;
  options.enable_test_hooks = true;
  TestServer ts(options);

  Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fd.ok());

  PlanRequest slow;
  slow.id = "slow";
  slow.tables = {"orders", "lineitem"};
  slow.debug_sleep_ms = 300;
  ASSERT_TRUE(
      server::WriteFrame(fd->get(), SerializePlanRequest(slow)).ok());
  ASSERT_TRUE(WaitUntil(
      [&] { return ts.server->stats().requests_executing == 1; }));

  // Queued behind 300 ms of work with a 1 ms deadline: by the time the
  // worker picks it up the deadline is long gone, so it is cancelled
  // without ever running the planner.
  PlanRequest late = slow;
  late.id = "late";
  late.debug_sleep_ms = 0;
  late.deadline_ms = 1;
  ASSERT_TRUE(
      server::WriteFrame(fd->get(), SerializePlanRequest(late)).ok());

  for (int i = 0; i < 2; ++i) {
    Result<std::string> payload = server::ReadFrame(fd->get(), 64u << 20);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    Result<PlanResponse> response = server::ParsePlanResponse(*payload);
    ASSERT_TRUE(response.ok());
    if (response->id == "slow") {
      EXPECT_TRUE(response->ok());
    } else {
      EXPECT_EQ(response->id, "late");
      EXPECT_EQ(response->status, "DEADLINE_EXCEEDED");
      EXPECT_TRUE(response->plan.empty());
    }
  }
  EXPECT_EQ(ts.server->stats().rejected_deadline, 1);
}

TEST(PlanningServerTest, MalformedRequestKeepsConnectionUsable) {
  TestServer ts;
  Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fd.ok());

  ASSERT_TRUE(server::WriteFrame(fd->get(), "this is not json").ok());
  Result<std::string> payload = server::ReadFrame(fd->get(), 64u << 20);
  ASSERT_TRUE(payload.ok());
  Result<PlanResponse> error = server::ParsePlanResponse(*payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->status, "INVALID_ARGUMENT");

  // A bad request poisons nothing: the next one plans normally.
  PlanRequest request;
  request.id = "after";
  request.tables = {"orders", "lineitem"};
  ASSERT_TRUE(
      server::WriteFrame(fd->get(), SerializePlanRequest(request)).ok());
  payload = server::ReadFrame(fd->get(), 64u << 20);
  ASSERT_TRUE(payload.ok());
  Result<PlanResponse> response = server::ParsePlanResponse(*payload);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->ok()) << response->status << ": " << response->error;
  EXPECT_EQ(response->id, "after");
}

TEST(PlanningServerTest, OversizedFrameIsRejectedAndConnectionClosed) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  TestServer ts(options);

  Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fd.ok());

  // Header advertises 2 MiB; the server answers from the header alone,
  // never buffering the (unsent) payload.
  const unsigned char header[4] = {0x00, 0x20, 0x00, 0x00};
  ASSERT_TRUE(net::SendAll(fd->get(), header, sizeof(header)).ok());
  Result<std::string> payload = server::ReadFrame(fd->get(), 64u << 20);
  ASSERT_TRUE(payload.ok());
  Result<PlanResponse> response = server::ParsePlanResponse(*payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, "INVALID_ARGUMENT");
  EXPECT_NE(response->error.find("frame exceeds"), std::string::npos);

  // ... and the connection is closed afterwards.
  Result<std::string> eof = server::ReadFrame(fd->get(), 64u << 20);
  EXPECT_FALSE(eof.ok());
}

TEST(PlanningServerTest, ConnectionLimitTurnsAwayExtraClients) {
  ServerOptions options;
  options.max_connections = 1;
  TestServer ts(options);

  PlanningClient first = ts.Connect();
  PlanRequest request;
  request.id = "first";
  request.tables = {"orders", "lineitem"};
  Result<PlanResponse> response = first.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->ok());

  Result<net::UniqueFd> second =
      net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(second.ok());  // the TCP handshake still completes
  Result<std::string> payload = server::ReadFrame(second->get(), 64u << 20);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  Result<PlanResponse> turned_away = server::ParsePlanResponse(*payload);
  ASSERT_TRUE(turned_away.ok());
  EXPECT_EQ(turned_away->status, "UNAVAILABLE");
  EXPECT_EQ(ts.server->stats().connections_rejected, 1);
}

TEST_P(ReactorServerTest, SigtermDrainFinishesInFlightWork) {
  ServerOptions options = OptionsWithReactors();
  options.num_workers = 2;
  options.enable_test_hooks = true;
  TestServer ts(options);
  server::InstallShutdownSignalHandlers(ts.server.get());

  Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fd.ok());
  PlanRequest slow;
  slow.id = "in-flight";
  slow.tables = {"orders", "lineitem"};
  slow.debug_sleep_ms = 200;
  ASSERT_TRUE(
      server::WriteFrame(fd->get(), SerializePlanRequest(slow)).ok());
  ASSERT_TRUE(WaitUntil(
      [&] { return ts.server->stats().requests_executing == 1; }));

  // SIGTERM mid-request: the handler only flips the drain flag, the
  // in-flight plan still completes and flushes before the server stops.
  ASSERT_EQ(std::raise(SIGTERM), 0);
  ASSERT_TRUE(WaitUntil([&] { return ts.server->draining(); }));

  Result<std::string> payload = server::ReadFrame(fd->get(), 64u << 20);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  Result<PlanResponse> response = server::ParsePlanResponse(*payload);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->ok()) << response->status << ": " << response->error;
  EXPECT_EQ(response->id, "in-flight");

  ts.server->Wait();
  server::InstallShutdownSignalHandlers(nullptr);

  // Once drained, the port no longer accepts connections.
  EXPECT_FALSE(net::ConnectTcp("127.0.0.1", ts.server->port()).ok());
  EXPECT_EQ(ts.server->stats().open_connections, 0);
}

TEST_P(ReactorServerTest, DrainRejectsNewRequestsOnLiveConnections) {
  ServerOptions options = OptionsWithReactors();
  options.num_workers = 1;
  options.enable_test_hooks = true;
  TestServer ts(options);

  Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fd.ok());
  PlanRequest slow;
  slow.id = "survivor";
  slow.tables = {"orders", "lineitem"};
  slow.debug_sleep_ms = 300;
  ASSERT_TRUE(
      server::WriteFrame(fd->get(), SerializePlanRequest(slow)).ok());
  ASSERT_TRUE(WaitUntil(
      [&] { return ts.server->stats().requests_executing == 1; }));

  ts.server->Shutdown();
  ASSERT_TRUE(WaitUntil([&] { return ts.server->draining(); }));

  // The connection outlives the drain while its request is in flight,
  // but no new work is admitted on it.
  PlanRequest refused = slow;
  refused.id = "refused";
  refused.debug_sleep_ms = 0;
  ASSERT_TRUE(
      server::WriteFrame(fd->get(), SerializePlanRequest(refused)).ok());

  bool saw_unavailable = false;
  bool saw_survivor = false;
  for (int i = 0; i < 2; ++i) {
    Result<std::string> payload = server::ReadFrame(fd->get(), 64u << 20);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    Result<PlanResponse> response = server::ParsePlanResponse(*payload);
    ASSERT_TRUE(response.ok());
    if (response->status == "UNAVAILABLE") {
      saw_unavailable = true;
    } else if (response->id == "survivor") {
      EXPECT_TRUE(response->ok());
      saw_survivor = true;
    }
  }
  EXPECT_TRUE(saw_unavailable);
  EXPECT_TRUE(saw_survivor);
  ts.server->Wait();
}

TEST(PlanningServerTest, DrainFlushesTelemetryToDisk) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "raqo_server_telemetry")
          .string();
  std::filesystem::create_directories(dir);

  obs::DefaultTracer().set_enabled(true);
  {
    ServerOptions options;
    options.telemetry_dir = dir;
    TestServer ts(options);
    PlanningClient client = ts.Connect();
    PlanRequest request;
    request.id = "telemetry";
    request.tables = {"orders", "lineitem"};
    Result<PlanResponse> response = client.Call(request);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->ok());
    client.Close();
    ts.server->Shutdown();
    ts.server->Wait();
  }
  obs::DefaultTracer().set_enabled(false);

  // Both exports exist and are valid JSON carrying the server series.
  for (const char* name : {"/metrics.json", "/trace.json"}) {
    std::ifstream in(dir + name);
    ASSERT_TRUE(in.good()) << name;
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<JsonValue> parsed = ParseJson(buffer.str());
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status().ToString();
  }
  std::ifstream in(dir + std::string("/metrics.json"));
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("server.request_us"), std::string::npos);
  EXPECT_NE(buffer.str().find("server.accept"), std::string::npos);
}

// ---------------------------------------------------------------------
// Framing edge cases

TEST(PlanningServerTest, ManyFramesInOneTcpSegmentAllGetAnswered) {
  ServerOptions options;
  options.num_workers = 2;
  TestServer ts(options);
  Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fd.ok());

  // One send(2) carrying 10 complete frames: the read loop must extract
  // every frame from the single segment, not just the first.
  constexpr int kFrames = 10;
  std::string batch;
  for (int i = 0; i < kFrames; ++i) {
    PlanRequest request;
    request.id = "batch-" + std::to_string(i);
    request.tables = {"orders", "lineitem"};
    batch += server::EncodeFrame(server::SerializePlanRequest(request));
  }
  ASSERT_TRUE(net::SendAll(fd->get(), batch.data(), batch.size()).ok());

  std::vector<bool> seen(kFrames, false);
  for (int i = 0; i < kFrames; ++i) {
    Result<std::string> payload = server::ReadFrame(fd->get(), 64u << 20);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    Result<PlanResponse> response = server::ParsePlanResponse(*payload);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->ok()) << response->status << ": "
                                << response->error;
    ASSERT_EQ(response->id.rfind("batch-", 0), 0u);
    const int index = std::stoi(response->id.substr(6));
    ASSERT_GE(index, 0);
    ASSERT_LT(index, kFrames);
    EXPECT_FALSE(seen[index]) << "duplicate response " << response->id;
    seen[index] = true;
  }
}

TEST(PlanningServerTest, FrameArrivingByteAtATimeIsReassembled) {
  TestServer ts;
  Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fd.ok());
  net::SetTcpNoDelay(fd->get());

  PlanRequest request;
  request.id = "dribble";
  request.tables = {"orders", "lineitem"};
  const std::string frame =
      server::EncodeFrame(server::SerializePlanRequest(request));
  // Each byte is its own send; the server sees a long run of partial
  // frames (kNeedMore) before the last byte completes it.
  for (char byte : frame) {
    ASSERT_TRUE(net::SendAll(fd->get(), &byte, 1).ok());
  }

  Result<std::string> payload = server::ReadFrame(fd->get(), 64u << 20);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  Result<PlanResponse> response = server::ParsePlanResponse(*payload);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->ok()) << response->status << ": " << response->error;
  EXPECT_EQ(response->id, "dribble");
}

TEST_P(ReactorServerTest, PipelinedRequestsComeBackInOrderWithTheirIds) {
  ServerOptions options = OptionsWithReactors();
  options.num_workers = 1;  // one worker => strictly serial execution
  TestServer ts(options);
  Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fd.ok());

  constexpr int kPipelined = 6;
  for (int i = 0; i < kPipelined; ++i) {
    PlanRequest request;
    request.id = "pipe-" + std::to_string(i);
    request.tables = {"orders", "lineitem"};
    ASSERT_TRUE(
        server::WriteFrame(fd->get(), SerializePlanRequest(request)).ok());
  }
  // Same connection + one worker: responses arrive in request order,
  // each correlated by its echoed id.
  for (int i = 0; i < kPipelined; ++i) {
    Result<std::string> payload = server::ReadFrame(fd->get(), 64u << 20);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    Result<PlanResponse> response = server::ParsePlanResponse(*payload);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->ok());
    EXPECT_EQ(response->id, "pipe-" + std::to_string(i));
  }
}

// ---------------------------------------------------------------------
// Multi-tenant quotas and fairness

TEST(PlanningServerTest, TenantInflightCapRejectsWithIdAndSelfHeals) {
  ServerOptions options;
  options.num_workers = 1;
  options.enable_test_hooks = true;
  options.tenant_quotas["capped"].max_inflight = 1;
  TestServer ts(options);
  Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fd.ok());

  PlanRequest slow;
  slow.id = "holder";
  slow.tenant = "capped";
  slow.tables = {"orders", "lineitem"};
  slow.debug_sleep_ms = 300;
  ASSERT_TRUE(
      server::WriteFrame(fd->get(), SerializePlanRequest(slow)).ok());
  ASSERT_TRUE(WaitUntil(
      [&] { return ts.server->stats().requests_executing == 1; }));

  // A second request while one is in flight breaches the cap.
  PlanRequest extra = slow;
  extra.id = "over-cap";
  extra.debug_sleep_ms = 0;
  ASSERT_TRUE(
      server::WriteFrame(fd->get(), SerializePlanRequest(extra)).ok());

  Result<std::string> payload = server::ReadFrame(fd->get(), 64u << 20);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  Result<PlanResponse> rejected = server::ParsePlanResponse(*payload);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, "RESOURCE_EXHAUSTED");
  EXPECT_EQ(rejected->id, "over-cap");
  EXPECT_NE(rejected->error.find("in-flight cap"), std::string::npos);

  payload = server::ReadFrame(fd->get(), 64u << 20);
  ASSERT_TRUE(payload.ok());
  Result<PlanResponse> held = server::ParsePlanResponse(*payload);
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(held->ok());
  EXPECT_EQ(held->id, "holder");

  // The cap frees up once the holder settles.
  PlanRequest after = extra;
  after.id = "after";
  ASSERT_TRUE(
      server::WriteFrame(fd->get(), SerializePlanRequest(after)).ok());
  payload = server::ReadFrame(fd->get(), 64u << 20);
  ASSERT_TRUE(payload.ok());
  Result<PlanResponse> ok = server::ParsePlanResponse(*payload);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->ok()) << ok->status << ": " << ok->error;
  EXPECT_EQ(ok->id, "after");

  const auto tenants = ts.server->tenant_stats();
  ASSERT_EQ(tenants.count("capped"), 1u);
  EXPECT_EQ(tenants.at("capped").admitted, 2);
  EXPECT_EQ(tenants.at("capped").rejected_inflight, 1);
  EXPECT_EQ(tenants.at("capped").responses_ok, 2);
  EXPECT_EQ(tenants.at("capped").inflight, 0);
  EXPECT_EQ(ts.server->stats().rejected_tenant_inflight, 1);
}

TEST(PlanningServerTest, TenantBudgetExhaustionRejectsFurtherRequests) {
  ServerOptions options;
  options.tenant_quotas["paid"].max_dollars = 1e-9;  // one plan blows it
  PlanRequest request;
  request.tables = {"orders", "lineitem"};
  // Room for two and a half answers to the test's statement.
  const double dollars = MakeService().Handle(request).cost.dollars;
  ASSERT_GT(dollars, 0.0);
  options.tenant_quotas["metered"].max_dollars = 2.5 * dollars;
  TestServer ts(options);
  PlanningClient client = ts.Connect();

  request.id = "first";
  request.tenant = "paid";
  Result<PlanResponse> first = client.Call(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->ok()) << first->status << ": " << first->error;
  ASSERT_GT(first->cost.dollars, 1e-9);

  // The first success was charged against the budget, so the tenant is
  // now broke; an identical request is refused at admission.
  request.id = "second";
  Result<PlanResponse> second = client.Call(request);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->status, "RESOURCE_EXHAUSTED");
  EXPECT_EQ(second->id, "second");
  EXPECT_NE(second->error.find("budget"), std::string::npos);

  // An unrelated tenant is unaffected.
  request.id = "other";
  request.tenant = "free";
  Result<PlanResponse> other = client.Call(request);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->ok());

  // The statement has now been planned twice, so the response cache
  // answers it from here on; every answer is still charged.
  request.tenant = "metered";
  for (int i = 0; i < 3; ++i) {
    request.id = "metered-" + std::to_string(i);
    Result<PlanResponse> metered = client.Call(request);
    ASSERT_TRUE(metered.ok()) << metered.status().ToString();
    ASSERT_TRUE(metered->ok()) << metered->status << ": " << metered->error;
    EXPECT_TRUE(metered->stats.response_cache_hit) << request.id;
    EXPECT_EQ(metered->cost.dollars, dollars) << request.id;
  }
  request.id = "metered-broke";
  Result<PlanResponse> broke = client.Call(request);
  ASSERT_TRUE(broke.ok()) << broke.status().ToString();
  EXPECT_EQ(broke->status, "RESOURCE_EXHAUSTED");

  const auto tenants = ts.server->tenant_stats();
  ASSERT_EQ(tenants.count("paid"), 1u);
  EXPECT_EQ(tenants.at("paid").rejected_budget, 1);
  EXPECT_EQ(tenants.at("paid").dollars_spent, first->cost.dollars);
  ASSERT_EQ(tenants.count("metered"), 1u);
  EXPECT_EQ(tenants.at("metered").responses_ok, 3);
  EXPECT_EQ(tenants.at("metered").rejected_budget, 1);
  EXPECT_EQ(tenants.at("metered").dollars_spent, dollars + dollars + dollars);
  EXPECT_EQ(ts.server->stats().rejected_tenant_budget, 2);
}

TEST(PlanningServerTest, TenantTableFullRejectsNewTenantNames) {
  ServerOptions options;
  options.max_tenants = 1;  // tenants are tracked lazily, on first use
  TestServer ts(options);
  PlanningClient client = ts.Connect();

  PlanRequest request;
  request.id = "known";
  request.tenant = "first-tenant";
  request.tables = {"orders", "lineitem"};
  Result<PlanResponse> first = client.Call(request);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->ok());

  request.id = "flooder";
  request.tenant = "second-tenant";
  Result<PlanResponse> second = client.Call(request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, "RESOURCE_EXHAUSTED");
  EXPECT_EQ(second->id, "flooder");
  EXPECT_NE(second->error.find("tenant table full"), std::string::npos);

  // Known tenants keep working even with the table full.
  request.id = "still-known";
  request.tenant = "first-tenant";
  Result<PlanResponse> again = client.Call(request);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->ok());
  EXPECT_EQ(ts.server->stats().rejected_tenant_table_full, 1);
}

TEST(PlanningServerTest, RoundRobinDequeueInterleavesTenantBacklogs) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 16;
  options.enable_test_hooks = true;
  TestServer ts(options);

  Result<net::UniqueFd> flood = net::ConnectTcp("127.0.0.1",
                                                ts.server->port());
  ASSERT_TRUE(flood.ok());
  Result<net::UniqueFd> light = net::ConnectTcp("127.0.0.1",
                                                ts.server->port());
  ASSERT_TRUE(light.ok());

  // Six 30 ms requests pile up behind the single worker...
  constexpr int kFlood = 6;
  constexpr int kSleepMs = 30;
  for (int i = 0; i < kFlood; ++i) {
    PlanRequest request;
    request.id = "flood-" + std::to_string(i);
    request.tenant = "flood";
    request.tables = {"orders", "lineitem"};
    request.debug_sleep_ms = kSleepMs;
    ASSERT_TRUE(
        server::WriteFrame(flood->get(), SerializePlanRequest(request))
            .ok());
  }
  ASSERT_TRUE(WaitUntil(
      [&] { return ts.server->stats().queue_depth >= kFlood - 1; }));

  // ... then a light tenant's single request arrives. Round-robin puts
  // its sub-queue next in the ring, so it runs after at most one more
  // flood request — not behind the whole backlog (FIFO would charge it
  // the full ~150 ms of queued flood work).
  PlanRequest quick;
  quick.id = "light";
  quick.tenant = "light";
  quick.tables = {"orders", "lineitem"};
  ASSERT_TRUE(
      server::WriteFrame(light->get(), SerializePlanRequest(quick)).ok());

  Result<std::string> payload = server::ReadFrame(light->get(), 64u << 20);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  Result<PlanResponse> response = server::ParsePlanResponse(*payload);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->ok()) << response->status << ": " << response->error;
  EXPECT_EQ(response->id, "light");
  // At most the in-flight flood request plus one dequeued ahead of it,
  // with slack for scheduling: far below the 5 * 30 ms FIFO wait.
  EXPECT_LT(response->queue_wait_us, 3.0 * kSleepMs * 1000.0);

  for (int i = 0; i < kFlood; ++i) {
    Result<std::string> drained = server::ReadFrame(flood->get(), 64u << 20);
    ASSERT_TRUE(drained.ok());
  }
}

TEST_P(ReactorServerTest, FloodingTenantDoesNotDegradeLightTenant) {
  ServerOptions options = OptionsWithReactors();
  options.num_workers = 2;
  options.max_queue = 4;
  options.enable_test_hooks = true;
  // The flood tenant may hold one worker at most; the other worker
  // stays available, so the light tenant's queue wait is bounded.
  options.tenant_quotas["flood"].max_inflight = 1;
  TestServer ts(options);

  const auto light_call = [&](PlanningClient& client, int i) -> double {
    PlanRequest request;
    request.id = "light-" + std::to_string(i);
    request.tenant = "light";
    request.tables = {"orders", "lineitem"};
    request.debug_sleep_ms = 1;
    Result<PlanResponse> response = client.Call(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) return 0.0;
    EXPECT_TRUE(response->ok()) << response->status << ": "
                                << response->error;
    return response->queue_wait_us;
  };

  // Uncontended baseline.
  PlanningClient light = ts.Connect();
  constexpr int kLightCalls = 15;
  double baseline_us = 0.0;
  for (int i = 0; i < kLightCalls; ++i) {
    baseline_us += light_call(light, i);
  }
  baseline_us /= kLightCalls;

  // Flood: bursts of pipelined 10 ms requests, 10x the light tenant's
  // one-at-a-time load. The in-flight cap turns the excess into
  // immediate rejections instead of queued work.
  std::atomic<bool> stop{false};
  std::atomic<int> flood_ok{0};
  std::atomic<int> flood_rejected{0};
  std::thread flooder([&] {
    Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1",
                                               ts.server->port());
    ASSERT_TRUE(fd.ok());
    int sequence = 0;
    while (!stop.load(std::memory_order_acquire)) {
      constexpr int kBurst = 10;
      for (int i = 0; i < kBurst; ++i) {
        PlanRequest request;
        request.id = "flood-" + std::to_string(sequence++);
        request.tenant = "flood";
        request.tables = {"orders", "lineitem"};
        request.debug_sleep_ms = 10;
        ASSERT_TRUE(
            server::WriteFrame(fd->get(), SerializePlanRequest(request))
                .ok());
      }
      for (int i = 0; i < kBurst; ++i) {
        Result<std::string> payload = server::ReadFrame(fd->get(),
                                                        64u << 20);
        ASSERT_TRUE(payload.ok()) << payload.status().ToString();
        Result<PlanResponse> response =
            server::ParsePlanResponse(*payload);
        ASSERT_TRUE(response.ok());
        (response->ok() ? flood_ok : flood_rejected).fetch_add(1);
      }
    }
  });

  // Light tenant under flood.
  ASSERT_TRUE(WaitUntil([&] { return flood_rejected.load() > 0; }));
  double contended_us = 0.0;
  for (int i = 0; i < kLightCalls; ++i) {
    contended_us += light_call(light, kLightCalls + i);
  }
  contended_us /= kLightCalls;

  stop.store(true, std::memory_order_release);
  flooder.join();

  // The acceptance bar: never queue-full-rejected, and the mean queue
  // wait stays within 2x of uncontended (a small absolute floor absorbs
  // scheduler noise on sub-millisecond baselines).
  const auto tenants = ts.server->tenant_stats();
  ASSERT_EQ(tenants.count("light"), 1u);
  EXPECT_EQ(tenants.at("light").rejected_queue_full, 0);
  EXPECT_EQ(tenants.at("light").rejected_inflight, 0);
  EXPECT_EQ(tenants.at("light").responses_ok, 2 * kLightCalls);
  EXPECT_LE(contended_us, std::max(2.0 * baseline_us, 2000.0))
      << "baseline " << baseline_us << " us, contended " << contended_us
      << " us";

  // The flood really was a flood: its excess was rejected by quota, not
  // absorbed into shared queues.
  EXPECT_GT(flood_ok.load(), 0);
  EXPECT_GT(flood_rejected.load(), 0);
  ASSERT_EQ(tenants.count("flood"), 1u);
  EXPECT_GT(tenants.at("flood").rejected_inflight, 0);
}

TEST(PlanningServerTest, DrainFlushesPerTenantMetrics) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "raqo_tenant_telemetry")
          .string();
  std::filesystem::create_directories(dir);
  {
    ServerOptions options;
    options.telemetry_dir = dir;
    options.tenant_quotas["acme"].max_dollars = 1e-9;
    TestServer ts(options);
    PlanningClient client = ts.Connect();
    PlanRequest request;
    request.id = "t1";
    request.tenant = "acme";
    request.tables = {"orders", "lineitem"};
    Result<PlanResponse> ok = client.Call(request);
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(ok->ok());
    request.id = "t2";
    Result<PlanResponse> broke = client.Call(request);
    ASSERT_TRUE(broke.ok());
    EXPECT_EQ(broke->status, "RESOURCE_EXHAUSTED");
    client.Close();
    ts.server->Shutdown();
    ts.server->Wait();
  }

  std::ifstream in(dir + std::string("/metrics.json"));
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<JsonValue> parsed = ParseJson(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (const char* name :
       {"server.tenant.acme.admitted", "server.tenant.acme.rejected",
        "server.tenant.acme.dollars_spent",
        "server.rejected.tenant_budget"}) {
    EXPECT_NE(buffer.str().find(name), std::string::npos) << name;
  }
}

// ---------------------------------------------------------------------
// Client options and response-drop accounting

TEST(PlanningServerTest, ClientRecvTimeoutSurfacesDeadlineExceeded) {
  ServerOptions options;
  options.num_workers = 1;
  options.enable_test_hooks = true;
  TestServer ts(options);

  server::ClientOptions client_options;
  client_options.recv_timeout_ms = 100;
  Result<PlanningClient> client = PlanningClient::Connect(
      "127.0.0.1", ts.server->port(), client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  PlanRequest request;
  request.id = "stuck";
  request.tables = {"orders", "lineitem"};
  request.debug_sleep_ms = 2000;  // far past the client's patience
  Result<PlanResponse> response = client->Call(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsDeadlineExceeded())
      << response.status().ToString();
  // The timed-out connection is closed so a late frame can never be
  // read as the answer to a later call.
  EXPECT_FALSE(client->connected());
}

TEST(PlanningServerTest, ClientStampsItsTenantOnEveryRequest) {
  TestServer ts;
  server::ClientOptions client_options;
  client_options.tenant = "stamped";
  Result<PlanningClient> client = PlanningClient::Connect(
      "127.0.0.1", ts.server->port(), client_options);
  ASSERT_TRUE(client.ok());

  PlanRequest request;
  request.id = "q";
  request.tables = {"orders", "lineitem"};
  Result<PlanResponse> response = client->Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->ok());
  EXPECT_EQ(ts.server->tenant_stats().count("stamped"), 1u);
}

TEST(PlanningServerTest, UndeliverableResponsesCountAsDroppedNotSent) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_write_buffer_bytes = 1;  // no response can ever be buffered
  TestServer ts(options);

  Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fd.ok());
  // One send for both frames: the server must read and admit both before
  // the first completion closes the connection, or the second frame is
  // never read and only one response is ever dropped.
  std::string both;
  for (const char* id : {"drop-1", "drop-2"}) {
    PlanRequest request;
    request.id = id;
    request.tables = {"orders", "lineitem"};
    both += server::EncodeFrame(SerializePlanRequest(request));
  }
  ASSERT_TRUE(net::SendAll(fd->get(), both.data(), both.size()).ok());

  // The first completion exceeds the 1-byte cap: dropped, connection
  // closed. The second completes against a vanished connection: also
  // dropped. Neither may inflate responses_sent.
  ASSERT_TRUE(WaitUntil(
      [&] { return ts.server->stats().responses_dropped == 2; }));
  const server::ServerStats stats = ts.server->stats();
  EXPECT_EQ(stats.responses_sent, 0);
  EXPECT_EQ(stats.responses_dropped, 2);
  EXPECT_EQ(stats.requests_admitted, 2);
}

// ---------------------------------------------------------------------
// Multi-reactor sharding

TEST_P(ReactorServerTest, LoopbackStaysBitIdenticalToDirectPlannerCalls) {
  ServerOptions options = OptionsWithReactors();
  options.num_workers = 2;
  TestServer ts(options);
  EXPECT_EQ(ts.server->num_reactors(), GetParam());

  // The ground truth, one function call instead of one socket away.
  const catalog::Catalog& catalog = TestCatalog();
  core::RaqoPlanner direct(&catalog, Models(),
                           resource::ClusterConditions::PaperDefault(),
                           resource::PricingModel(), TestPlannerOptions());
  std::vector<catalog::TableId> tables;
  for (const char* name : {"orders", "lineitem", "customer"}) {
    tables.push_back(*catalog.FindTable(name));
  }
  Result<core::JointPlan> expected = direct.Plan(tables);
  ASSERT_TRUE(expected.ok());
  const std::string expected_plan = expected->plan->ToString(&catalog);

  // Several connections, so with more than one reactor the kernel
  // spreads them across the SO_REUSEPORT listeners — whichever
  // reactor serves the request, the wire response must match the direct
  // call bit for bit (%.17g doubles round-trip IEEE exactly, and the
  // planner itself is deterministic; see docs/CONCURRENCY.md).
  constexpr int kConnections = 6;
  for (int c = 0; c < kConnections; ++c) {
    PlanningClient client = ts.Connect();
    PlanRequest request;
    request.id = "det-" + std::to_string(c);
    request.sql = "select * from orders, lineitem, customer";
    Result<PlanResponse> response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok())
        << response->status << ": " << response->error;
    EXPECT_EQ(response->id, request.id);
    EXPECT_EQ(response->plan, expected_plan);
    EXPECT_EQ(response->cost.seconds, expected->cost.seconds);
    EXPECT_EQ(response->cost.dollars, expected->cost.dollars);
  }

  // Per-reactor accounting adds up to the global view.
  const std::vector<server::ReactorStats> reactors =
      ts.server->reactor_stats();
  ASSERT_EQ(reactors.size(), static_cast<size_t>(GetParam()));
  int64_t accepted = 0;
  for (const server::ReactorStats& r : reactors) {
    accepted += r.connections_accepted;
  }
  EXPECT_EQ(accepted, ts.server->stats().connections_accepted);
}

TEST(PlanningServerTest, SingleReactorNeverUsesReuseportSharding) {
  ServerOptions options;
  options.num_reactors = 1;
  TestServer ts(options);
  // One reactor is the pre-sharding server: one plain listener, no
  // SO_REUSEPORT, one I/O thread.
  EXPECT_EQ(ts.server->num_reactors(), 1);
  ASSERT_EQ(ts.server->reactor_stats().size(), 1u);
}

// ---------------------------------------------------------------------
// Fault injection (net::Send / net::Recv hooks)

TEST(FaultInjectionTest, ShortAndInterruptedWritesStillDeliverWholeFrames) {
  ServerOptions options;
  options.num_workers = 1;
  TestServer ts(options);
  Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fd.ok());
  const int client_fd = fd->get();

  // Server-side sends rotate EAGAIN -> EINTR -> 7-byte short write, so a
  // several-hundred-byte response frame needs dozens of syscalls, an
  // EPOLLOUT re-arm on every EAGAIN, and a retry on every EINTR — the
  // partial-write machinery that normally only fires under load.
  std::atomic<int> faulted_sends{0};
  ScriptedFaultInjector injector(
      [&](int target, size_t) {
        if (target == client_fd) return net::FaultAction::PassThrough();
        switch (faulted_sends.fetch_add(1) % 3) {
          case 0:
            return net::FaultAction::Fail(EAGAIN);
          case 1:
            return net::FaultAction::Fail(EINTR);
          default:
            return net::FaultAction::Short(7);
        }
      },
      nullptr);
  net::ScopedFaultInjector scoped(&injector);

  constexpr int kPipelined = 3;
  for (int i = 0; i < kPipelined; ++i) {
    PlanRequest request;
    request.id = "frag-" + std::to_string(i);
    request.tables = {"orders", "lineitem"};
    ASSERT_TRUE(
        server::WriteFrame(fd->get(), SerializePlanRequest(request)).ok());
  }
  for (int i = 0; i < kPipelined; ++i) {
    Result<std::string> payload = server::ReadFrame(fd->get(), 64u << 20);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    Result<PlanResponse> response = server::ParsePlanResponse(*payload);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->ok())
        << response->status << ": " << response->error;
    EXPECT_EQ(response->id, "frag-" + std::to_string(i));
  }
  // The frames really were shredded: far more sends than frames.
  EXPECT_GT(faulted_sends.load(), 3 * kPipelined);
  EXPECT_EQ(ts.server->stats().responses_dropped, 0);
}

TEST(FaultInjectionTest, MidFrameResetDropsInFlightResponseAndCleansUp) {
  ServerOptions options;
  options.num_workers = 1;
  options.enable_test_hooks = true;
  TestServer ts(options);
  Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fd.ok());
  const int client_fd = fd->get();

  // Occupy the worker, then reset the connection out from under it.
  PlanRequest slow;
  slow.id = "doomed";
  slow.tables = {"orders", "lineitem"};
  slow.debug_sleep_ms = 300;
  ASSERT_TRUE(
      server::WriteFrame(fd->get(), SerializePlanRequest(slow)).ok());
  ASSERT_TRUE(WaitUntil(
      [&] { return ts.server->stats().requests_executing == 1; }));

  std::atomic<bool> armed{true};
  ScriptedFaultInjector injector(
      nullptr, [&](int target, size_t) {
        if (target == client_fd ||
            !armed.load(std::memory_order_acquire)) {
          return net::FaultAction::PassThrough();
        }
        return net::FaultAction::Fail(ECONNRESET);
      });
  net::ScopedFaultInjector scoped(&injector);

  // A mid-frame byte triggers the server's recv, which now reports the
  // peer reset: the connection must be torn down immediately, and the
  // in-flight completion must land in responses_dropped — never lost,
  // never delivered to a stale fd.
  const char half_a_header = '\0';
  ASSERT_TRUE(net::SendAll(fd->get(), &half_a_header, 1).ok());
  ASSERT_TRUE(WaitUntil(
      [&] { return ts.server->stats().open_connections == 0; }));
  ASSERT_TRUE(WaitUntil(
      [&] { return ts.server->stats().responses_dropped == 1; }));
  armed.store(false, std::memory_order_release);

  const server::ServerStats stats = ts.server->stats();
  EXPECT_EQ(stats.responses_sent, 0);
  EXPECT_EQ(stats.requests_admitted, 1);
  // Admission state settled: the tenant is not stuck "in flight".
  const auto tenants = ts.server->tenant_stats();
  ASSERT_EQ(tenants.count(""), 1u);
  EXPECT_EQ(tenants.at("").inflight, 0);
}

TEST(FaultInjectionTest, PersistentBackpressureTripsWriteBufferCap) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_write_buffer_bytes = 1024;
  TestServer ts(options);
  Result<net::UniqueFd> fd = net::ConnectTcp("127.0.0.1", ts.server->port());
  ASSERT_TRUE(fd.ok());
  const int client_fd = fd->get();

  // Every server-side send returns EAGAIN, as if the client never read a
  // byte: responses accumulate in the write buffer until the cap trips
  // and the connection is dropped — bounded memory, not an OOM.
  ScriptedFaultInjector injector(
      [&](int target, size_t) {
        return target == client_fd ? net::FaultAction::PassThrough()
                                   : net::FaultAction::Fail(EAGAIN);
      },
      nullptr);
  net::ScopedFaultInjector scoped(&injector);

  for (int i = 0; i < 4; ++i) {
    PlanRequest request;
    request.id = "pressure-" + std::to_string(i);
    request.tables = {"orders", "lineitem"};
    ASSERT_TRUE(
        server::WriteFrame(fd->get(), SerializePlanRequest(request)).ok());
  }
  ASSERT_TRUE(WaitUntil(
      [&] { return ts.server->stats().responses_dropped >= 1; }));
  ASSERT_TRUE(WaitUntil(
      [&] { return ts.server->stats().open_connections == 0; }));
}

// ---------------------------------------------------------------------
// Protocol fuzzing (seeded, so every failure reproduces)

TEST(ProtocolFuzzTest, PeekTopLevelStringSurvivesRandomBytes) {
  std::mt19937 rng(20260808);
  // Biased toward JSON structure so the scanner's interesting branches
  // (quotes, escapes, nesting) are hit constantly, not once in a blue
  // moon of uniform noise.
  const std::string alphabet = "{}[]\":\\,idtenan 0127.eE+-\n\tq\xff\x00";
  std::string buf;
  for (int iter = 0; iter < 20000; ++iter) {
    const size_t len = rng() % 48;
    buf.clear();
    for (size_t i = 0; i < len; ++i) {
      buf.push_back(rng() % 4 == 0
                        ? static_cast<char>(rng() % 256)
                        : alphabet[rng() % alphabet.size()]);
    }
    // Must never crash, scan out of bounds (ASan), or return something
    // longer than its input.
    EXPECT_LE(server::PeekTopLevelString(buf, "id").size(), buf.size());
    EXPECT_LE(server::PeekTopLevelString(buf, "tenant").size(), buf.size());
  }

  // Mutations of a real request payload: structurally almost-valid JSON.
  const std::string seed = SerializePlanRequest([] {
    PlanRequest request;
    request.id = "fuzz";
    request.tenant = "acme";
    request.tables = {"orders", "lineitem"};
    return request;
  }());
  for (int iter = 0; iter < 20000; ++iter) {
    std::string mutated = seed;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < flips; ++i) {
      mutated[rng() % mutated.size()] = static_cast<char>(rng() % 256);
    }
    EXPECT_LE(server::PeekTopLevelString(mutated, "id").size(),
              mutated.size());
    EXPECT_LE(server::PeekTopLevelString(mutated, "tenant").size(),
              mutated.size());
  }
}

TEST(ProtocolFuzzTest, MutatedTruncatedAndSplicedFramesNeverWedgeTheServer) {
  ServerOptions options;
  options.num_workers = 2;
  options.max_frame_bytes = 1 << 16;
  TestServer ts(options);

  PlanRequest seed_request;
  seed_request.id = "seed";
  seed_request.tables = {"orders", "lineitem"};
  const std::string frame =
      server::EncodeFrame(SerializePlanRequest(seed_request));

  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 60; ++iter) {
    Result<net::UniqueFd> fd =
        net::ConnectTcp("127.0.0.1", ts.server->port());
    ASSERT_TRUE(fd.ok()) << "iteration " << iter << ": "
                         << fd.status().ToString();
    std::string bytes = frame;
    switch (iter % 3) {
      case 0: {  // byte flips, header included: garbage length prefixes
        const int flips = 1 + static_cast<int>(rng() % 8);
        for (int i = 0; i < flips; ++i) {
          bytes[rng() % bytes.size()] = static_cast<char>(rng() % 256);
        }
        break;
      }
      case 1:  // truncation: the server is left holding a partial frame
        bytes.resize(rng() % bytes.size());
        break;
      default:  // splice: a frame restarts mid-frame
        bytes = bytes.substr(0, 1 + rng() % (bytes.size() - 1)) + frame;
        break;
    }
    // Fire and abandon: the abrupt close on a half-parsed stream is part
    // of the attack. Send errors (server already closed a poisoned
    // connection) are expected, not failures.
    (void)net::SendAll(fd->get(), bytes.data(), bytes.size());

    if (iter % 10 == 9) {
      // The server must still answer clean traffic correctly mid-storm.
      PlanningClient client = ts.Connect();
      PlanRequest request;
      request.id = "clean-" + std::to_string(iter);
      request.tables = {"orders", "lineitem"};
      Result<PlanResponse> response = client.Call(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_TRUE(response->ok())
          << response->status << ": " << response->error;
      EXPECT_EQ(response->id, request.id);
    }
  }
  // Still alive, and the drain still completes cleanly after the storm.
  ts.server->Shutdown();
  ts.server->Wait();
  EXPECT_EQ(ts.server->stats().open_connections, 0);
}

TEST(ProtocolFuzzTest, CorruptPayloadNeverMisFramesTheNextRequest) {
  ServerOptions options;
  options.num_workers = 1;  // serial execution => ordered responses
  TestServer ts(options);

  PlanRequest seed_request;
  seed_request.id = "mutant";
  seed_request.tables = {"orders", "lineitem"};
  const std::string seed = SerializePlanRequest(seed_request);

  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 40; ++iter) {
    Result<net::UniqueFd> fd =
        net::ConnectTcp("127.0.0.1", ts.server->port());
    ASSERT_TRUE(fd.ok());

    // A correctly framed but byte-corrupted payload, then a valid
    // request on the same connection. However the server disposes of
    // the mutant (plans it, rejects it, fails the parse), it must
    // consume exactly one frame: the tail request always comes back
    // intact, with its own id.
    std::string mutated = seed;
    const int flips = 1 + static_cast<int>(rng() % 6);
    for (int i = 0; i < flips; ++i) {
      mutated[rng() % mutated.size()] = static_cast<char>(rng() % 256);
    }
    PlanRequest tail;
    tail.id = "tail-" + std::to_string(iter);
    tail.tables = {"orders", "lineitem"};
    const std::string both = server::EncodeFrame(mutated) +
                             server::EncodeFrame(SerializePlanRequest(tail));
    ASSERT_TRUE(net::SendAll(fd->get(), both.data(), both.size()).ok());

    bool saw_tail = false;
    for (int i = 0; i < 2; ++i) {
      Result<std::string> payload = server::ReadFrame(fd->get(), 64u << 20);
      ASSERT_TRUE(payload.ok())
          << "iteration " << iter << ": " << payload.status().ToString();
      Result<PlanResponse> response = server::ParsePlanResponse(*payload);
      ASSERT_TRUE(response.ok());
      if (response->id == tail.id) {
        EXPECT_TRUE(response->ok())
            << response->status << ": " << response->error;
        saw_tail = true;
      }
    }
    EXPECT_TRUE(saw_tail) << "iteration " << iter;
  }
}

// ---------------------------------------------------------------------
// Cache dump/load frames and durable restart

core::CachedResourcePlan TestCachePlan(double key, double larger,
                                       double cost) {
  core::CachedResourcePlan plan;
  plan.key_gb = key;
  plan.larger_gb = larger;
  plan.cost = cost;
  plan.config = resource::ResourceConfig(4.0, 8.0);
  return plan;
}

/// Canonical byte form of a cache's whole content — equality of two of
/// these is the "replica is bit-identical" acceptance bar.
std::string CanonicalCacheDump(const core::ResourcePlanCache& cache) {
  std::string out;
  for (const core::CacheEntryRecord& entry : cache.DumpEntries()) {
    out += persist::SerializeCacheEntry(entry.model, entry.plan);
    out += '\n';
  }
  return out;
}

TEST(ProtocolTest, CacheDumpRequestRoundTrips) {
  PlanRequest request;
  request.id = "dump-7";
  request.type = "cache_dump";
  request.cache_offset = 1024;
  request.cache_limit = 128;

  Result<PlanRequest> parsed =
      server::ParsePlanRequest(server::SerializePlanRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, "cache_dump");
  EXPECT_EQ(parsed->cache_version, server::kCacheWireVersion);
  EXPECT_EQ(parsed->cache_offset, 1024);
  EXPECT_EQ(parsed->cache_limit, 128);
}

TEST(ProtocolTest, CacheLoadRequestRoundTripsEntriesByteForByte) {
  PlanRequest request;
  request.type = "cache_load";
  request.cache_entries.push_back(
      {"smj \"q\"", TestCachePlan(0.1 + 0.2, 123.45600000000013, 1e-300)});
  request.cache_entries.push_back({"bhj", TestCachePlan(42.0, 99.5, 7.25)});

  Result<PlanRequest> parsed =
      server::ParsePlanRequest(server::SerializePlanRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->cache_entries.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    // The wire uses the same entry codec as the journal, so equality is
    // checkable at the byte level, doubles included.
    EXPECT_EQ(persist::SerializeCacheEntry(parsed->cache_entries[i].model,
                                           parsed->cache_entries[i].plan),
              persist::SerializeCacheEntry(request.cache_entries[i].model,
                                           request.cache_entries[i].plan));
  }
}

TEST(ProtocolTest, CacheResponseRoundTrips) {
  PlanResponse response;
  response.id = "dump-7";
  response.has_cache = true;
  response.cache_version = server::kCacheWireVersion;
  response.cache_total = 42;
  response.cache_offset = 17;
  response.cache_entries.push_back({"smj", TestCachePlan(1.5, 8.0, 3.0)});

  Result<PlanResponse> parsed =
      server::ParsePlanResponse(server::SerializePlanResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->ok());
  EXPECT_TRUE(parsed->has_cache);
  EXPECT_EQ(parsed->cache_version, server::kCacheWireVersion);
  EXPECT_EQ(parsed->cache_total, 42);
  EXPECT_EQ(parsed->cache_offset, 17);
  ASSERT_EQ(parsed->cache_entries.size(), 1u);
  EXPECT_EQ(parsed->cache_entries[0].model, "smj");
  EXPECT_EQ(parsed->cache_entries[0].plan.key_gb, 1.5);
}

TEST(ProtocolTest, OversizedCacheChunkIsRejectedAtParse) {
  PlanRequest request;
  request.type = "cache_load";
  for (size_t i = 0; i <= server::kMaxCacheChunkEntries; ++i) {
    request.cache_entries.push_back(
        {"smj", TestCachePlan(static_cast<double>(i), 8.0, 1.0)});
  }
  // One entry over the cap: the parse itself must refuse, before any
  // server-side allocation proportional to the claimed chunk.
  Result<PlanRequest> parsed =
      server::ParsePlanRequest(server::SerializePlanRequest(request));
  EXPECT_FALSE(parsed.ok());
}

TEST(PlanningServerTest, CacheVersionMismatchIsRejected) {
  TestServer ts;
  PlanningClient client = ts.Connect();

  PlanRequest request;
  request.id = "vmm";
  request.type = "cache_dump";
  request.cache_version = server::kCacheWireVersion + 7;
  Result<PlanResponse> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok());
  EXPECT_EQ(response->status, server::kWireFailedPrecondition);
  EXPECT_EQ(response->id, "vmm");
}

TEST(PlanningServerTest, UnknownRequestTypeIsRejected) {
  TestServer ts;
  PlanningClient client = ts.Connect();

  PlanRequest request;
  request.id = "bogus";
  request.type = "cache_explode";
  Result<PlanResponse> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok());
  EXPECT_EQ(response->status, server::kWireInvalidArgument);
}

TEST(PlanningServerTest, ColdReplicaWarmsFromPeerOverTheWire) {
  TestServer warm;
  TestServer cold;
  PlanningClient warm_client = warm.Connect();
  PlanningClient cold_client = cold.Connect();

  // Populate the warm node's shared cache with real planning work.
  PlanRequest plan_request;
  plan_request.id = "warmup";
  plan_request.tables = {"orders", "lineitem", "customer"};
  Result<PlanResponse> planned = warm_client.Call(plan_request);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ASSERT_TRUE(planned->ok()) << planned->status << ": " << planned->error;
  ASSERT_GT(warm.service.shared_cache()->entry_count(), 0);

  // Chunk size 1 forces the pagination loop through every entry.
  Result<int64_t> copied =
      server::WarmCacheFromPeer(warm_client, cold_client, 1);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_EQ(*copied, warm.service.shared_cache()->entry_count());

  // The replica's cache is byte-identical to the peer's...
  EXPECT_EQ(CanonicalCacheDump(*cold.service.shared_cache()),
            CanonicalCacheDump(*warm.service.shared_cache()));

  // ...and immediately useful: the same query on the cold node hits it.
  Result<PlanResponse> replayed = cold_client.Call(plan_request);
  ASSERT_TRUE(replayed.ok());
  ASSERT_TRUE(replayed->ok()) << replayed->status << ": "
                              << replayed->error;
  EXPECT_GT(cold.service.shared_cache_stats().hits, 0);
  EXPECT_EQ(replayed->plan, planned->plan);
}

TEST(PlanningServerTest, PersistDirSurvivesServerRestart) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "raqo_server_persist")
          .string();
  std::filesystem::remove_all(dir);
  ServerOptions options;
  options.persist_dir = dir;
  options.persist_fsync = persist::FsyncPolicy::kEachRecord;

  PlanRequest plan_request;
  plan_request.id = "before-restart";
  plan_request.tables = {"orders", "lineitem", "customer"};

  std::string before;
  int64_t entries_before = 0;
  {
    TestServer ts(options);
    PlanningClient client = ts.Connect();
    Result<PlanResponse> planned = client.Call(plan_request);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    ASSERT_TRUE(planned->ok()) << planned->status << ": "
                               << planned->error;
    entries_before = ts.service.shared_cache()->entry_count();
    ASSERT_GT(entries_before, 0);
    before = CanonicalCacheDump(*ts.service.shared_cache());
    ts.server->Shutdown();
    ts.server->Wait();
  }

  // A "restarted node": fresh service, fresh cache, same data dir.
  TestServer ts(options);
  ASSERT_NE(ts.server->persistence(), nullptr);
  const persist::RecoveryStats recovered =
      ts.server->persistence()->recovery_stats();
  EXPECT_EQ(recovered.snapshot_entries + recovered.journal_records,
            entries_before);
  EXPECT_FALSE(recovered.torn_tail);
  EXPECT_EQ(CanonicalCacheDump(*ts.service.shared_cache()), before);

  // Pre-restart hit rate is available immediately: the first query after
  // recovery hits the cache instead of re-deriving its plans.
  PlanningClient client = ts.Connect();
  PlanRequest again = plan_request;
  again.id = "after-restart";
  Result<PlanResponse> replayed = client.Call(again);
  ASSERT_TRUE(replayed.ok());
  ASSERT_TRUE(replayed->ok()) << replayed->status << ": "
                              << replayed->error;
  EXPECT_GT(ts.service.shared_cache_stats().hits, 0);

  ts.server->Shutdown();
  ts.server->Wait();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace raqo
