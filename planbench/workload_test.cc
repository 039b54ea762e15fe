// Tests of the benchmark's statement generator. Built and run by run.py
// before every measurement (and registered with CTest):
//
//   ctest --test-dir .bench_build/planbench
//
// Exits non-zero when any check fails.

#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "catalog/tpch.h"
#include "query/sql_parser.h"
#include "workload.h"

namespace {

using planbench::Workload;

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

/// Every statement of one connection's timed phase, concatenated.
std::string StreamText(Workload workload, uint64_t seed, int connection) {
  planbench::StatementStream stream(workload, seed, connection);
  std::string all;
  std::string sql;
  for (int64_t i = 0; i < planbench::RequestsPerConnection(workload); ++i) {
    stream.Next(&sql);
    all += sql;
    all += '\n';
  }
  return all;
}

void SameSeedGivesIdenticalStream() {
  for (Workload w : {Workload::kHotRepeat, Workload::kColdNovel}) {
    Check(StreamText(w, 7, 0) == StreamText(w, 7, 0),
          "one seed gives a byte-identical statement stream");
  }
  Check(StreamText(Workload::kColdNovel, 7, 0) !=
            StreamText(Workload::kColdNovel, 8, 0),
        "another seed gives another cold_novel stream");
  Check(StreamText(Workload::kColdNovel, 7, 0) !=
            StreamText(Workload::kColdNovel, 7, 1),
        "connections of one seed draw independent streams");
}

void HotRepeatEmitsOnlyWarmStatements() {
  const std::vector<std::string> hot = planbench::HotStatements();
  const std::set<std::string> warm(hot.begin(), hot.end());
  Check(warm.size() == planbench::kNumShapes,
        "the warm pass holds 7 distinct statements");
  // The mix's shares, one per shape in HotStatements() order.
  const int64_t kPercent[planbench::kNumShapes] = {20, 20, 15, 15, 15, 10, 5};
  const int64_t n = planbench::RequestsPerConnection(Workload::kHotRepeat);
  bool only_warm = true;
  bool exact_mix = true;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (int c = 0; c < planbench::kConnections; ++c) {
      std::map<std::string, int64_t> counts;
      planbench::StatementStream stream(Workload::kHotRepeat, seed, c);
      std::string sql;
      for (int64_t i = 0; i < n; ++i) {
        stream.Next(&sql);
        ++counts[sql];
        only_warm = only_warm && warm.count(sql) == 1;
      }
      for (int s = 0; s < planbench::kNumShapes; ++s) {
        exact_mix = exact_mix && counts[hot[s]] == kPercent[s] * n / 100;
      }
    }
  }
  Check(only_warm, "hot_repeat emits only the 7 warm statements");
  Check(exact_mix, "every connection sends each shape at its exact share");
  Check(planbench::RepeatFraction(Workload::kHotRepeat, 1) == 1.0,
        "every hot_repeat request repeats a statement already sent");
}

void ColdNovelRarelyRepeats() {
  bool all_below = true;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const double frac = planbench::RepeatFraction(Workload::kColdNovel, seed);
    std::printf("      cold_novel seed %llu: repeat_frac %.4f\n",
                (unsigned long long)seed, frac);
    all_below = all_below && frac < 0.05;
  }
  Check(all_below, "cold_novel repeat_frac stays below 0.05");
}

void StatementsParseAgainstTpch() {
  const raqo::catalog::Catalog catalog =
      raqo::catalog::BuildTpchCatalog(100.0);
  bool ok = true;
  auto accept = [&](const std::string& sql) {
    raqo::Result<raqo::query::ParsedQuery> parsed =
        raqo::query::ParseJoinQuery(catalog, sql);
    ok = ok && parsed.ok() &&
         raqo::query::ApplyFilters(catalog, *parsed).ok();
  };
  for (const std::string& sql : planbench::HotStatements()) accept(sql);
  planbench::StatementStream stream(Workload::kColdNovel, 1, 0);
  std::string sql;
  for (int i = 0; i < 200; ++i) {
    stream.Next(&sql);
    accept(sql);
  }
  Check(ok, "generated statements parse and filter against TPC-H");
}

}  // namespace

int main() {
  SameSeedGivesIdenticalStream();
  HotRepeatEmitsOnlyWarmStatements();
  ColdNovelRarelyRepeats();
  StatementsParseAgainstTpch();
  std::printf("%s\n", failures == 0 ? "all generator tests passed"
                                    : "generator tests FAILED");
  return failures == 0 ? 0 : 1;
}
