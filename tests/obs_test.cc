// The observability layer: metrics registry exactness under
// concurrency, histogram bucket boundaries, span nesting and ring-buffer
// bounds, JSON export validity, and — most importantly — the invariant
// that instrumentation observes planning without changing it: the same
// workload planned with the layer fully on and fully off must produce
// bit-identical plans. Run under -DRAQO_SANITIZE=thread to let TSan
// check the lock-free hot paths.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/random_schema.h"
#include "common/stopwatch.h"
#include "core/concurrent_workload_runner.h"
#include "core/plan_cache.h"
#include "core/workload_runner.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/profile_runner.h"

namespace raqo {
namespace {

// ---------------------------------------------------------------------
// A minimal recursive-descent JSON validator: enough to assert the
// exporters emit syntactically valid JSON without a third-party parser.

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!ParseValue()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Eat(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool ParseValue() {
    switch (Peek()) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
        return ParseLiteral("true");
      case 'f':
        return ParseLiteral("false");
      case 'n':
        return ParseLiteral("null");
      default:
        return ParseNumber();
    }
  }

  bool ParseObject() {
    if (!Eat('{')) return false;
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      SkipWs();
      if (!ParseString()) return false;
      SkipWs();
      if (!Eat(':')) return false;
      SkipWs();
      if (!ParseValue()) return false;
      SkipWs();
      if (Eat('}')) return true;
      if (!Eat(',')) return false;
    }
  }

  bool ParseArray() {
    if (!Eat('[')) return false;
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      SkipWs();
      if (!ParseValue()) return false;
      SkipWs();
      if (Eat(']')) return true;
      if (!Eat(',')) return false;
    }
  }

  bool ParseString() {
    if (!Eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_++]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Eat('.')) {
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(
                               text_[pos_ - 1]));
  }

  bool ParseLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

TEST(JsonValidatorTest, AcceptsAndRejectsWhatItShould) {
  EXPECT_TRUE(JsonValidator(R"({"a": [1, -2.5e3, "x\n", null, true]})")
                  .Valid());
  EXPECT_FALSE(JsonValidator(R"({"a": })").Valid());
  EXPECT_FALSE(JsonValidator(R"({"a": 1,})").Valid());
  EXPECT_FALSE(JsonValidator(R"("unterminated)").Valid());
  EXPECT_FALSE(JsonValidator("{} trailing").Valid());
}

// ---------------------------------------------------------------------
// Metrics

TEST(MetricsTest, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  obs::Histogram h({1.0, 2.0, 5.0});
  // At a bound -> that bucket (inclusive); just above -> next bucket.
  h.Record(0.5);   // bucket 0 (<= 1)
  h.Record(1.0);   // bucket 0, boundary inclusive
  h.Record(1.001); // bucket 1
  h.Record(2.0);   // bucket 1, boundary inclusive
  h.Record(5.0);   // bucket 2, boundary inclusive
  h.Record(5.001); // overflow
  h.Record(1e9);   // overflow
  const std::vector<int64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 2);
  EXPECT_EQ(h.Count(), 7);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 5.001 + 1e9);
}

TEST(MetricsTest, CountersAndHistogramsAreExactUnderConcurrency) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test.hits");
  obs::Histogram* histogram = registry.GetHistogram("test.lat", {10.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        histogram->Record(i % 2 == 0 ? 1.0 : 100.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Relaxed atomics may reorder, but no increment may ever be lost.
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(histogram->Count(), int64_t{kThreads} * kPerThread);
  const std::vector<int64_t> counts = histogram->BucketCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], int64_t{kThreads} * kPerThread / 2);
  EXPECT_EQ(counts[1], int64_t{kThreads} * kPerThread / 2);
}

TEST(MetricsTest, RegistryReturnsStablePointersAndSortedSnapshots) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("zeta");
  EXPECT_EQ(registry.GetCounter("zeta"), a);  // find-or-create is stable
  registry.GetCounter("alpha")->Add(3);
  a->Add(7);
  registry.GetGauge("g")->Set(2.5);
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "alpha");  // sorted by name
  EXPECT_EQ(snapshot.counters[0].second, 3);
  EXPECT_EQ(snapshot.counters[1].first, "zeta");
  EXPECT_EQ(snapshot.counters[1].second, 7);
  registry.ResetAll();
  EXPECT_EQ(a->Value(), 0);  // same object, zeroed
  a->Add(1);
  EXPECT_EQ(registry.Snapshot().counters[1].second, 1);
}

TEST(MetricsTest, StopwatchElapsedMicrosAgreesWithMillis) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double us = watch.ElapsedMicros();
  const double ms = watch.ElapsedMillis();
  EXPECT_GE(us, 2000.0);
  // Micros read first, so it can only be the smaller of the two scales.
  EXPECT_LE(us, ms * 1000.0 + 1.0);
}

// ---------------------------------------------------------------------
// Tracing

TEST(TraceTest, SpansNestByThreadAndFinishInLifoOrder) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    obs::Span outer = tracer.StartSpan("outer");
    outer.SetAttr("k", "v");
    {
      obs::Span inner = tracer.StartSpan("inner");
      obs::Span leaf = tracer.StartSpan("leaf");
      leaf.End();
      // inner and leaf both nest under what was open when they started.
      EXPECT_NE(inner.id(), 0u);
      EXPECT_NE(leaf.id(), inner.id());
    }
    obs::Span sibling = tracer.StartSpan("sibling");
  }
  std::vector<obs::FinishedSpan> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Finish order (= ring order): leaf, inner, sibling, outer.
  EXPECT_EQ(spans[0].name, "leaf");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[3].name, "outer");
  const obs::FinishedSpan& outer = spans[3];
  EXPECT_EQ(outer.parent_id, 0u);  // root
  EXPECT_EQ(spans[1].parent_id, outer.id);
  EXPECT_EQ(spans[0].parent_id, spans[1].id);  // leaf under inner
  EXPECT_EQ(spans[2].parent_id, outer.id);     // sibling under outer again
  ASSERT_EQ(outer.attrs.size(), 1u);
  EXPECT_EQ(outer.attrs[0].key, "k");
  // Children start no earlier and end no later than the parent.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GE(spans[i].start_us, outer.start_us);
    EXPECT_LE(spans[i].start_us + spans[i].dur_us,
              outer.start_us + outer.dur_us + 1e-3);
  }
}

TEST(TraceTest, DisabledTracerIsInertAndRecordsNothing) {
  obs::Tracer tracer;
  obs::Span span = tracer.StartSpan("ignored");
  EXPECT_FALSE(span.recording());
  span.SetAttr("k", 1.0);  // must be a safe no-op
  span.End();
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.total_finished(), 0);
}

TEST(TraceTest, RingBufferBoundsMemoryAndKeepsNewestSpans) {
  obs::TracerOptions options;
  options.ring_capacity = 4;
  obs::Tracer tracer(options);
  tracer.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    obs::Span span = tracer.StartSpan("s");
    span.SetAttr("i", static_cast<int64_t>(i));
  }
  std::vector<obs::FinishedSpan> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(tracer.total_finished(), 10);
  EXPECT_EQ(tracer.dropped(), 6);
  // Oldest-first snapshot of the newest four spans: i = 6, 7, 8, 9.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(spans[static_cast<size_t>(i)].attrs.size(), 1u);
    EXPECT_EQ(spans[static_cast<size_t>(i)].attrs[0].value,
              std::to_string(i + 6));
  }
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0);
}

TEST(TraceTest, ConcurrentSpansKeepDistinctIdsAndPerThreadParents) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::Span outer = tracer.StartSpan("outer");
        obs::Span inner = tracer.StartSpan("inner");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<obs::FinishedSpan> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), size_t{kThreads} * kPerThread * 2);
  std::set<uint64_t> ids;
  std::map<uint64_t, const obs::FinishedSpan*> by_id;
  for (const obs::FinishedSpan& s : spans) {
    EXPECT_TRUE(ids.insert(s.id).second) << "duplicate span id";
    by_id[s.id] = &s;
  }
  for (const obs::FinishedSpan& s : spans) {
    if (s.name != "inner") continue;
    // Every inner span's parent is an outer span on the same thread —
    // nesting never leaks across threads.
    auto parent = by_id.find(s.parent_id);
    ASSERT_NE(parent, by_id.end());
    EXPECT_EQ(parent->second->name, "outer");
    EXPECT_EQ(parent->second->tid, s.tid);
  }
}

// ---------------------------------------------------------------------
// JSON export

TEST(JsonExportTest, MetricsSnapshotRendersValidJson) {
  obs::MetricsRegistry registry;
  registry.GetCounter("with \"quotes\" and \\slashes\\")->Add(1);
  registry.GetGauge("newline\nname")->Set(-0.125);
  obs::Histogram* h = registry.GetHistogram("lat", {1.0, 10.0});
  h->Record(0.5);
  h->Record(99.0);
  const std::string json = obs::MetricsToJson(registry.Snapshot());
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"le\": \"inf\""), std::string::npos);
}

TEST(JsonExportTest, SpansRenderValidChromeTraceJson) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    obs::Span outer = tracer.StartSpan("planner.query");
    outer.SetAttr("query", "q\"1\"");  // must be escaped
    outer.SetAttr("cost", 1.5);
    outer.SetAttr("count", static_cast<int64_t>(42));
    obs::Span inner = tracer.StartSpan("cache.lookup");
  }
  const std::string json =
      obs::SpansToChromeTraceJson(tracer.Snapshot());
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  // Chrome trace_event essentials: an event array of complete events
  // with microsecond timestamps and thread metadata.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"planner.query\""), std::string::npos);
  EXPECT_NE(json.find("\"q\\\"1\\\"\""), std::string::npos);
}

TEST(JsonExportTest, JsonNumberHandlesNonFiniteValues) {
  EXPECT_EQ(obs::JsonNumber(1.0), "1");
  EXPECT_EQ(obs::JsonNumber(-2.5), "-2.5");
  EXPECT_EQ(obs::JsonNumber(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(obs::JsonNumber(std::nan("")), "null");
}

// ---------------------------------------------------------------------
// Cache statistics satellites

TEST(CacheStatsTest, DerivedRatesAndExchangeBasedReset) {
  core::ResourcePlanCache cache(core::CacheLookupMode::kExact, 0.0);
  core::CachedResourcePlan plan;
  plan.key_gb = 1.0;
  plan.config = resource::ResourceConfig(4.0, 8);
  cache.Insert("smj", plan);
  EXPECT_TRUE(cache.Lookup("smj", 1.0).has_value());
  EXPECT_FALSE(cache.Lookup("smj", 2.0).has_value());
  EXPECT_FALSE(cache.Lookup("smj", 3.0).has_value());
  core::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.lookups(), 3);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(core::CacheStats{}.hit_rate(), 0.0);  // no div-by-zero

  // ResetStats drains and returns in one step.
  const core::CacheStats drained = cache.ResetStats();
  EXPECT_EQ(drained.hits, 1);
  EXPECT_EQ(drained.misses, 2);
  EXPECT_EQ(cache.stats().lookups(), 0);
}

TEST(CacheStatsTest, ConcurrentResetNeverLosesALookup) {
  // The old read-then-store reset had a window where a concurrent
  // increment vanished; the exchange-based reset must account for every
  // single lookup either in a drained snapshot or in the final stats.
  core::ResourcePlanCache cache(core::CacheLookupMode::kExact, 0.0,
                                core::CacheIndexKind::kSortedArray,
                                /*shards=*/4);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        cache.Lookup("smj", 123.0);  // always a miss
      }
    });
  }
  int64_t drained = 0;
  go.store(true);
  for (int i = 0; i < 1000; ++i) drained += cache.ResetStats().lookups();
  for (std::thread& t : threads) t.join();
  drained += cache.ResetStats().lookups();
  EXPECT_EQ(drained, int64_t{kThreads} * kPerThread);
}

TEST(CacheStatsTest, ShardStatsAccountForEveryLookupAndInsert) {
  // Each Lookup counts once, in the stripe of its key — also a
  // nearest-neighbour lookup, which reads every stripe.
  for (const core::CacheLookupMode mode :
       {core::CacheLookupMode::kExact,
        core::CacheLookupMode::kNearestNeighbor}) {
    SCOPED_TRACE(core::CacheLookupModeName(mode));
    core::ResourcePlanCache cache(mode, 0.5,
                                  core::CacheIndexKind::kSortedArray,
                                  /*shards=*/4);
    constexpr int kEntries = 64;
    for (int i = 0; i < kEntries; ++i) {
      core::CachedResourcePlan plan;
      plan.key_gb = static_cast<double>(i);
      cache.Insert("smj", plan);
    }
    for (int i = 0; i < kEntries; ++i) {
      EXPECT_TRUE(cache.Lookup("smj", static_cast<double>(i)).has_value());
      // A neighbour hit in nearest-neighbour mode, a miss in exact mode.
      EXPECT_EQ(cache.Lookup("smj", i + 0.25).has_value(),
                mode == core::CacheLookupMode::kNearestNeighbor);
      EXPECT_FALSE(cache.Lookup("bhj", static_cast<double>(i)).has_value());
    }
    EXPECT_FALSE(cache.Lookup("smj", 1000.0).has_value());

    const std::vector<core::ShardStats> stats = cache.shard_stats();
    ASSERT_EQ(stats.size(), 4u);
    size_t entries = 0;
    int64_t lookups = 0;
    int64_t inserts = 0;
    for (const core::ShardStats& s : stats) {
      entries += s.entries;
      lookups += s.lookups;
      inserts += s.inserts;
      EXPECT_GE(s.lock_wait_ns, 0);
    }
    EXPECT_EQ(entries, static_cast<size_t>(kEntries));
    EXPECT_EQ(lookups, 3 * kEntries + 1);
    EXPECT_EQ(lookups, cache.stats().lookups());
    EXPECT_EQ(inserts, kEntries);
  }
}

// ---------------------------------------------------------------------
// End-to-end: the instrumented pipeline

const cost::JoinCostModels& Models() {
  static const cost::JoinCostModels* models = new cost::JoinCostModels(
      *sim::TrainModelsFromSimulator(sim::EngineProfile::Hive()));
  return *models;
}

std::vector<core::WorkloadQuery> SmallWorkload(const catalog::Catalog& cat) {
  std::vector<core::WorkloadQuery> workload;
  for (int i = 0; i < 12; ++i) {
    core::WorkloadQuery query;
    query.label = "q" + std::to_string(i);
    query.tables = *catalog::RandomQueryTables(
        cat, 2 + i % 4, 900 + static_cast<uint64_t>(i));
    workload.push_back(std::move(query));
  }
  return workload;
}

core::RaqoPlannerOptions CachedExactOptions() {
  core::RaqoPlannerOptions options;
  options.algorithm = core::PlannerAlgorithm::kSelinger;
  options.evaluator.use_cache = true;
  options.evaluator.cache_mode = core::CacheLookupMode::kExact;
  options.clear_cache_between_queries = false;
  return options;
}

/// Flips the whole observability layer, returning the previous state so
/// tests restore the process-wide defaults they mutate.
std::pair<bool, bool> SetObservability(bool metrics, bool tracing) {
  const std::pair<bool, bool> before{obs::DefaultMetrics().enabled(),
                                     obs::DefaultTracer().enabled()};
  obs::DefaultMetrics().set_enabled(metrics);
  obs::DefaultTracer().set_enabled(tracing);
  return before;
}

TEST(CacheStatsTest, InsertRecordsSpanHistogramAndLayoutEntryBytes) {
  const auto before = SetObservability(true, true);
  obs::DefaultTracer().Clear();
  obs::Histogram* timed =
      obs::DefaultMetrics().GetHistogram("cache.insert.wall_us");
  const int64_t timed_before = timed->Count();
  core::ResourcePlanCache exact(core::CacheLookupMode::kExact, 0.0);
  core::ResourcePlanCache nearest(core::CacheLookupMode::kNearestNeighbor,
                                  0.5);
  core::CachedResourcePlan plan;
  plan.key_gb = 1.0;
  plan.larger_gb = 2.0;
  exact.Insert("smj", plan);
  exact.Insert("smj", plan);  // an overwrite is timed too
  plan.larger_gb = 3.0;
  exact.Insert("smj", plan);
  nearest.Insert("smj", plan);
  const std::vector<obs::FinishedSpan> spans = obs::DefaultTracer().Snapshot();
  const double bytes_gauge =
      obs::DefaultMetrics().GetGauge("cache.bytes")->Value();
  SetObservability(false, false);
  exact.Insert("bhj", plan);  // dark: neither timed nor traced
  const int64_t timed_inserts = timed->Count() - timed_before;
  SetObservability(before.first, before.second);
  obs::DefaultTracer().Clear();

  EXPECT_EQ(timed_inserts, 4);
  int64_t insert_spans = 0;
  for (const obs::FinishedSpan& span : spans) {
    if (span.name == "cache.insert") ++insert_spans;
  }
  EXPECT_EQ(insert_spans, 4);
  // Exact mode: the plan plus the two PairTable slots it owns at half
  // load. The similarity modes' sorted array: the plan alone.
  constexpr int64_t kPlanBytes = sizeof(core::CachedResourcePlan);
  EXPECT_EQ(exact.entry_count(), 3);
  EXPECT_EQ(exact.approx_bytes(), 3 * (kPlanBytes + 8));
  EXPECT_EQ(nearest.approx_bytes(), kPlanBytes);
  EXPECT_EQ(bytes_gauge, static_cast<double>(nearest.approx_bytes()));
}

TEST(InstrumentedPipelineTest, ObservabilityDoesNotChangeChosenPlans) {
  catalog::RandomSchemaOptions schema;
  schema.num_tables = 10;
  schema.seed = 17;
  catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
  const std::vector<core::WorkloadQuery> workload = SmallWorkload(cat);

  auto run = [&] {
    core::ConcurrentRunnerOptions concurrency;
    concurrency.num_threads = 4;
    core::ConcurrentWorkloadRunner service(
        &cat, Models(), resource::ClusterConditions::PaperDefault(),
        resource::PricingModel(), CachedExactOptions(), concurrency);
    return service.Run(workload);
  };

  const auto before = SetObservability(false, false);
  const Result<core::WorkloadReport> dark = run();
  SetObservability(true, true);
  obs::DefaultTracer().Clear();
  const Result<core::WorkloadReport> lit = run();
  SetObservability(before.first, before.second);
  obs::DefaultTracer().Clear();

  ASSERT_TRUE(dark.ok());
  ASSERT_TRUE(lit.ok());
  ASSERT_EQ(lit->queries.size(), dark->queries.size());
  for (size_t i = 0; i < dark->queries.size(); ++i) {
    EXPECT_EQ(lit->queries[i].cost.seconds, dark->queries[i].cost.seconds);
    EXPECT_EQ(lit->queries[i].cost.dollars, dark->queries[i].cost.dollars);
    EXPECT_EQ(lit->queries[i].plan, dark->queries[i].plan);
    ASSERT_EQ(lit->queries[i].join_resources.size(),
              dark->queries[i].join_resources.size());
    for (size_t j = 0; j < dark->queries[i].join_resources.size(); ++j) {
      EXPECT_EQ(lit->queries[i].join_resources[j],
                dark->queries[i].join_resources[j]);
    }
  }
}

TEST(InstrumentedPipelineTest, ConcurrentInstrumentedRunProducesCoherentTelemetry) {
  // The TSan target: every observability hot path (counters, histograms,
  // span ring, per-shard stats) exercised from four planner threads at
  // once. Correctness assertions are on the telemetry itself.
  catalog::RandomSchemaOptions schema;
  schema.num_tables = 8;
  schema.seed = 23;
  catalog::Catalog cat = *catalog::BuildRandomCatalog(schema);
  const std::vector<core::WorkloadQuery> workload = SmallWorkload(cat);

  const auto before = SetObservability(true, true);
  obs::DefaultMetrics().ResetAll();
  obs::DefaultTracer().Clear();

  core::ConcurrentRunnerOptions concurrency;
  concurrency.num_threads = 4;
  core::ConcurrentWorkloadRunner service(
      &cat, Models(), resource::ClusterConditions::PaperDefault(),
      resource::PricingModel(), CachedExactOptions(), concurrency);
  const Result<core::WorkloadReport> report = service.Run(workload);

  const std::vector<obs::FinishedSpan> spans = obs::DefaultTracer().Snapshot();
  const obs::MetricsSnapshot metrics = obs::DefaultMetrics().Snapshot();
  SetObservability(before.first, before.second);
  obs::DefaultTracer().Clear();

  ASSERT_TRUE(report.ok());

  // One runner.query and one planner.query span per workload entry.
  int64_t runner_spans = 0;
  int64_t planner_spans = 0;
  for (const obs::FinishedSpan& s : spans) {
    if (s.name == "runner.query") ++runner_spans;
    if (s.name == "planner.query") ++planner_spans;
  }
  EXPECT_EQ(runner_spans, static_cast<int64_t>(workload.size()));
  EXPECT_EQ(planner_spans, static_cast<int64_t>(workload.size()));

  // The exporters handle the real telemetry, not just synthetic spans.
  EXPECT_TRUE(JsonValidator(obs::MetricsToJson(metrics)).Valid());
  EXPECT_TRUE(JsonValidator(obs::SpansToChromeTraceJson(spans)).Valid());

  // Counter cross-check: the runner counted every query.
  int64_t runner_queries = 0;
  for (const auto& [name, value] : metrics.counters) {
    if (name == "runner.queries") runner_queries = value;
  }
  EXPECT_EQ(runner_queries, static_cast<int64_t>(workload.size()));

  // Shared-cache shard stats account for the service's lookups.
  const core::CacheStats cache = service.shared_cache_stats();
  const std::vector<core::ShardStats> shards =
      service.shared_cache_shard_stats();
  ASSERT_EQ(shards.size(), core::kDefaultCacheStripes);
  int64_t shard_lookups = 0;
  for (const core::ShardStats& s : shards) shard_lookups += s.lookups;
  // Every Lookup counts in exactly one stripe.
  EXPECT_EQ(cache.lookups(), shard_lookups);
  EXPECT_GT(shard_lookups, 0);
}

}  // namespace
}  // namespace raqo
