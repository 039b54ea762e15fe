#ifndef RAQO_CORE_WORKLOAD_RUNNER_H_
#define RAQO_CORE_WORKLOAD_RUNNER_H_

#include <string>
#include <vector>

#include "core/raqo_planner.h"

namespace raqo::core {

/// One query of a planning workload.
struct WorkloadQuery {
  std::string label;
  std::vector<catalog::TableId> tables;
};

/// Per-query planning outcome within a workload run.
struct QueryRunReport {
  std::string label;
  cost::CostVector cost;
  /// Compact rendering of the chosen plan (table ids), e.g.
  /// "SMJ(BHJ(t0, t2), t5)"; lets callers compare plans across runs
  /// without holding the plan trees.
  std::string plan;
  /// Resource configuration of every join, in the plan's post-order
  /// (VisitJoins order) — the joint half of the joint plan.
  std::vector<resource::ResourceConfig> join_resources;
  double wall_ms = 0.0;
  int64_t resource_configs_explored = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

/// Aggregate outcome of a workload run. The `total_*` fields are always
/// exactly the sums of the per-query reports (an invariant the test
/// suite checks).
struct WorkloadReport {
  std::vector<QueryRunReport> queries;
  double total_wall_ms = 0.0;
  int64_t total_resource_configs_explored = 0;
  int64_t total_cache_hits = 0;
  int64_t total_cache_misses = 0;
  /// End-to-end elapsed wall-clock time of the whole run.
  double wall_clock_ms = 0.0;
};

/// Drives a sequence of queries through one RAQO planner, the way an
/// enterprise workload hits an optimizer service. With across-query
/// caching enabled (planner option `clear_cache_between_queries=false`),
/// "successive queries can leverage the older cache" — the Figure 15(b)
/// across-query scenario, packaged as an API.
class WorkloadRunner {
 public:
  /// The planner is borrowed and must outlive the runner; its caching
  /// configuration governs cross-query reuse.
  explicit WorkloadRunner(RaqoPlanner* planner);

  /// Plans every query in order; fails fast on the first planning error.
  Result<WorkloadReport> Run(const std::vector<WorkloadQuery>& workload);

 private:
  RaqoPlanner* planner_;
};

}  // namespace raqo::core

#endif  // RAQO_CORE_WORKLOAD_RUNNER_H_
