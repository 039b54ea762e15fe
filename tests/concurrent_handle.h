// Test helpers for planning a workload concurrently the way the planning
// server does: N threads calling PlanningService::Handle on one service.
// The results are compared with what one RaqoPlanner answers when it
// plans the same queries one after another.

#ifndef RAQO_TESTS_CONCURRENT_HANDLE_H_
#define RAQO_TESTS_CONCURRENT_HANDLE_H_

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "core/raqo_planner.h"
#include "core/workload_runner.h"
#include "server/service.h"

namespace raqo {

/// One table-list plan request per query, with the query's label as id.
inline std::vector<server::PlanRequest> TableListRequests(
    const catalog::Catalog& catalog,
    const std::vector<core::WorkloadQuery>& workload) {
  std::vector<server::PlanRequest> requests(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    requests[i].id = workload[i].label;
    for (catalog::TableId table : workload[i].tables) {
      requests[i].tables.push_back(catalog.table(table).name);
    }
  }
  return requests;
}

/// Answers every request on `threads` threads (the caller's plus
/// threads - 1 it starts) that take requests from one atomic cursor.
/// Responses come back in request order.
inline std::vector<server::PlanResponse> HandleOnThreads(
    const server::PlanningService& service,
    const std::vector<server::PlanRequest>& requests, int threads) {
  std::vector<server::PlanResponse> responses(requests.size());
  std::atomic<size_t> cursor{0};
  const auto work = [&] {
    for (size_t i = cursor++; i < requests.size(); i = cursor++) {
      responses[i] = service.Handle(requests[i]);
    }
  };
  std::vector<std::thread> helpers;
  for (int t = 1; t < threads; ++t) helpers.emplace_back(work);
  work();
  for (std::thread& helper : helpers) helper.join();
  return responses;
}

/// Plans the workload in order on one planner, rendering each answer the
/// way PlanningService renders a response.
inline std::vector<server::PlanResponse> PlanSequentially(
    core::RaqoPlanner& planner, const catalog::Catalog& catalog,
    const std::vector<core::WorkloadQuery>& workload) {
  std::vector<server::PlanResponse> answers;
  for (const core::WorkloadQuery& query : workload) {
    Result<core::JointPlan> plan = planner.Plan(query.tables);
    EXPECT_TRUE(plan.ok()) << query.label << ": "
                           << plan.status().ToString();
    if (!plan.ok()) return answers;
    server::PlanResponse& answer = answers.emplace_back();
    answer.id = query.label;
    answer.plan = plan->plan->ToString(&catalog);
    answer.cost = plan->cost;
    answer.stats.resource_configs_explored =
        plan->stats.resource_configs_explored;
    plan->plan->VisitJoins([&](const plan::PlanNode& join) {
      answer.join_resources.push_back(
          join.resources().value_or(resource::ResourceConfig()));
    });
  }
  return answers;
}

/// Expects the same plan, cost and per-join resources, answer by answer.
inline void ExpectSamePlans(const std::vector<server::PlanResponse>& actual,
                            const std::vector<server::PlanResponse>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(expected[i].id);
    ASSERT_TRUE(actual[i].ok()) << actual[i].error;
    EXPECT_EQ(actual[i].id, expected[i].id);
    EXPECT_EQ(actual[i].plan, expected[i].plan);
    EXPECT_EQ(actual[i].cost.seconds, expected[i].cost.seconds);
    EXPECT_EQ(actual[i].cost.dollars, expected[i].cost.dollars);
    EXPECT_EQ(actual[i].join_resources, expected[i].join_resources);
  }
}

}  // namespace raqo

#endif  // RAQO_TESTS_CONCURRENT_HANDLE_H_
