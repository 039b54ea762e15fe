// Seeded SQL statement generator of the planning-server benchmark. The
// server receives only the statement text; everything the benchmark
// varies (the shape mix and the filter constants) is drawn here.
// README.md gives the mix and the reason for each workload.

#ifndef PLANBENCH_WORKLOAD_H_
#define PLANBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace planbench {

enum class Workload {
  /// Seven fixed statements, each planned once by the warm pass; every
  /// timed request is a shared-cache hit.
  kHotRepeat,
  /// Fresh filter constants per request: filtered sizes are new, so most
  /// resource searches run.
  kColdNovel,
};

/// "hot_repeat" / "cold_novel"; false on any other name.
bool ParseWorkload(std::string_view name, Workload* out);

/// Closed-loop connections of the timed phase (half of a 4-vCPU host).
inline constexpr int kConnections = 2;

/// Statement shapes of the mix; also the number of warm statements.
inline constexpr int kNumShapes = 7;

/// Requests each connection sends in one timed phase.
int64_t RequestsPerConnection(Workload workload);

/// Renders shape `shape` with filters `l_shipdate < shipdate_lt` and,
/// when the shape joins orders, `o_orderdate > orderdate_gt`. Reuses
/// `out`'s capacity.
void FormatStatement(int shape, int64_t shipdate_lt, int64_t orderdate_gt,
                     std::string* out);

/// The warm pass: one statement per shape at the fixed hot constants.
/// hot_repeat's timed phase draws only from these.
std::vector<std::string> HotStatements();

/// The statement stream of one connection: a private RNG seeded from the
/// benchmark seed and the connection index, so each connection's stream
/// is fixed by the seed whatever the interleaving. Shapes are dealt from
/// a deck of 100 holding the mix's shares, reshuffled when empty, so
/// every run plans exactly the same number of each shape; the seed
/// varies their order and (cold_novel) the filter constants.
class StatementStream {
 public:
  StatementStream(Workload workload, uint64_t seed, int connection);

  /// Writes the next statement into `sql`, reusing its capacity.
  void Next(std::string* sql);

 private:
  Workload workload_;
  raqo::Rng rng_;
  std::vector<int> deck_;
  size_t next_card_;
};

/// Share of a run's timed requests whose exact text was already sent in
/// the run (warm pass included). Counts first occurrences, so it does
/// not depend on how the connections interleave.
double RepeatFraction(Workload workload, uint64_t seed);

}  // namespace planbench

#endif  // PLANBENCH_WORKLOAD_H_
