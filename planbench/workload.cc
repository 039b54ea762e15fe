#include "workload.h"

#include <cstdio>
#include <unordered_set>
#include <utility>

namespace planbench {

namespace {

struct Shape {
  int percent;          ///< share of the mix
  const char* from;     ///< FROM list
  const char* joins;    ///< TPC-H foreign-key equi-joins
  bool has_orders;      ///< takes the o_orderdate filter
};

constexpr Shape kShapes[kNumShapes] = {
    {20, "orders, lineitem", "o_orderkey = l_orderkey", true},
    {20, "customer, orders, lineitem",
     "c_custkey = o_custkey and o_orderkey = l_orderkey", true},
    {15, "part, partsupp, supplier, lineitem",
     "p_partkey = ps_partkey and s_suppkey = ps_suppkey and "
     "p_partkey = l_partkey and s_suppkey = l_suppkey",
     false},
    {15, "nation, customer, orders, lineitem",
     "n_nationkey = c_nationkey and c_custkey = o_custkey and "
     "o_orderkey = l_orderkey",
     true},
    {15, "region, nation, customer, orders, lineitem",
     "r_regionkey = n_regionkey and n_nationkey = c_nationkey and "
     "c_custkey = o_custkey and o_orderkey = l_orderkey",
     true},
    {10, "supplier, part, nation, customer, orders, lineitem",
     "s_nationkey = n_nationkey and n_nationkey = c_nationkey and "
     "c_custkey = o_custkey and o_orderkey = l_orderkey and "
     "p_partkey = l_partkey and s_suppkey = l_suppkey",
     true},
    // The eight-table tail keeps p99 inside one statement's latency band.
    {5,
     "region, nation, supplier, customer, part, partsupp, orders, lineitem",
     "r_regionkey = n_regionkey and s_nationkey = n_nationkey and "
     "n_nationkey = c_nationkey and p_partkey = ps_partkey and "
     "s_suppkey = ps_suppkey and c_custkey = o_custkey and "
     "o_orderkey = l_orderkey and p_partkey = l_partkey and "
     "s_suppkey = l_suppkey",
     true},
};

// Filter constants, in days since 1992-01-01 (the TPC-H catalog's date
// columns span [0, 2525] for l_shipdate and [0, 2405] for o_orderdate).
// cold_novel draws from these ranges, so no filter empties a table.
constexpr int64_t kShipdateMin = 30;
constexpr int64_t kShipdateMax = 2525;
constexpr int64_t kOrderdateMin = 0;
constexpr int64_t kOrderdateMax = 2375;
// hot_repeat's fixed constants: the midpoints of the cold ranges.
constexpr int64_t kHotShipdate = 1277;
constexpr int64_t kHotOrderdate = 1187;

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "hot_repeat") {
    *out = Workload::kHotRepeat;
  } else if (name == "cold_novel") {
    *out = Workload::kColdNovel;
  } else {
    return false;
  }
  return true;
}

// Multiples of the deck's 100 cards, so each run holds the mix exactly.
int64_t RequestsPerConnection(Workload workload) {
  return workload == Workload::kHotRepeat ? 10000 : 1000;
}

void FormatStatement(int shape, int64_t shipdate_lt, int64_t orderdate_gt,
                     std::string* out) {
  const Shape& s = kShapes[shape];
  char filters[96];
  if (s.has_orders) {
    std::snprintf(filters, sizeof(filters),
                  " and l_shipdate < %lld and o_orderdate > %lld",
                  static_cast<long long>(shipdate_lt),
                  static_cast<long long>(orderdate_gt));
  } else {
    std::snprintf(filters, sizeof(filters), " and l_shipdate < %lld",
                  static_cast<long long>(shipdate_lt));
  }
  out->assign("select * from ");
  out->append(s.from);
  out->append(" where ");
  out->append(s.joins);
  out->append(filters);
}

std::vector<std::string> HotStatements() {
  std::vector<std::string> statements(kNumShapes);
  for (int s = 0; s < kNumShapes; ++s) {
    FormatStatement(s, kHotShipdate, kHotOrderdate, &statements[s]);
  }
  return statements;
}

StatementStream::StatementStream(Workload workload, uint64_t seed,
                                 int connection)
    : workload_(workload),
      rng_(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(connection)) {
  for (int s = 0; s < kNumShapes; ++s) {
    deck_.insert(deck_.end(), kShapes[s].percent, s);
  }
  next_card_ = deck_.size();
}

void StatementStream::Next(std::string* sql) {
  if (next_card_ == deck_.size()) {
    for (size_t i = deck_.size() - 1; i > 0; --i) {
      std::swap(deck_[i], deck_[static_cast<size_t>(
                              rng_.UniformInt(0, static_cast<int64_t>(i)))]);
    }
    next_card_ = 0;
  }
  const int shape = deck_[next_card_++];
  if (workload_ == Workload::kHotRepeat) {
    FormatStatement(shape, kHotShipdate, kHotOrderdate, sql);
    return;
  }
  const int64_t shipdate = rng_.UniformInt(kShipdateMin, kShipdateMax);
  const int64_t orderdate = rng_.UniformInt(kOrderdateMin, kOrderdateMax);
  FormatStatement(shape, shipdate, orderdate, sql);
}

double RepeatFraction(Workload workload, uint64_t seed) {
  std::unordered_set<std::string> seen;
  for (std::string& hot : HotStatements()) seen.insert(std::move(hot));
  int64_t timed = 0;
  int64_t repeats = 0;
  std::string sql;
  for (int c = 0; c < kConnections; ++c) {
    StatementStream stream(workload, seed, c);
    for (int64_t i = 0; i < RequestsPerConnection(workload); ++i) {
      stream.Next(&sql);
      ++timed;
      if (!seen.insert(sql).second) ++repeats;
    }
  }
  return static_cast<double>(repeats) / static_cast<double>(timed);
}

}  // namespace planbench
