#include "core/workload_runner.h"

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/trace.h"

namespace raqo::core {

namespace {

/// Fills the plan/join_resources fields of a report entry from a planned
/// joint plan.
void DescribePlanInReport(const JointPlan& plan, QueryRunReport* entry) {
  entry->plan = plan.plan->ToString();
  plan.plan->VisitJoins([&](const plan::PlanNode& join) {
    if (join.resources().has_value()) {
      entry->join_resources.push_back(*join.resources());
    }
  });
}

/// Sums the per-query entries of `report` into its `total_*` fields.
void AccumulateReportTotals(WorkloadReport* report) {
  for (const QueryRunReport& entry : report->queries) {
    report->total_wall_ms += entry.wall_ms;
    report->total_resource_configs_explored +=
        entry.resource_configs_explored;
    report->total_cache_hits += entry.cache_hits;
    report->total_cache_misses += entry.cache_misses;
  }
}

}  // namespace

WorkloadRunner::WorkloadRunner(RaqoPlanner* planner) : planner_(planner) {
  RAQO_CHECK(planner != nullptr);
}

Result<WorkloadReport> WorkloadRunner::Run(
    const std::vector<WorkloadQuery>& workload) {
  if (workload.empty()) {
    return Status::InvalidArgument("workload is empty");
  }
  Stopwatch watch;
  WorkloadReport report;
  for (size_t i = 0; i < workload.size(); ++i) {
    const WorkloadQuery& query = workload[i];
    obs::Span span;
    if (obs::TracingOn()) {
      span = obs::DefaultTracer().StartSpan("runner.query");
      span.SetAttr("query", query.label);
      span.SetAttr("index", static_cast<int64_t>(i));
    }
    RAQO_ASSIGN_OR_RETURN(JointPlan plan, planner_->Plan(query.tables));
    span.End();
    QueryRunReport entry;
    entry.label = query.label;
    entry.cost = plan.cost;
    DescribePlanInReport(plan, &entry);
    entry.wall_ms = plan.stats.wall_ms;
    entry.resource_configs_explored = plan.stats.resource_configs_explored;
    // Plan() resets the cache *statistics* before every query (only the
    // cache contents persist across queries), so these are per-query.
    entry.cache_hits = plan.stats.cache_hits;
    entry.cache_misses = plan.stats.cache_misses;
    report.queries.push_back(std::move(entry));
  }
  AccumulateReportTotals(&report);
  report.wall_clock_ms = watch.ElapsedMillis();
  return report;
}

}  // namespace raqo::core
