#ifndef RAQO_OPTIMIZER_COST_EVALUATOR_H_
#define RAQO_OPTIMIZER_COST_EVALUATOR_H_

#include <cstdint>
#include <limits>
#include <optional>

#include "common/result.h"
#include "cost/cost_vector.h"
#include "plan/plan_node.h"
#include "resource/resource_config.h"

namespace raqo::optimizer {

/// Broadcast-join feasibility bound of both evaluators: the build side
/// must satisfy ss <= kBhjCapacityFactor * container size, mirroring the
/// OOM boundary of the execution engine.
inline constexpr double kBhjCapacityFactor = 1.14;

/// Describes one candidate join operator to be costed.
struct JoinContext {
  plan::JoinImpl impl = plan::JoinImpl::kSortMergeJoin;
  /// Estimated input sizes in bytes.
  double left_bytes = 0.0;
  double right_bytes = 0.0;

  /// A bound request: the join DP asks for a lower bound, in each
  /// component, of every cost CostJoin could return for this context, so
  /// it can cost a subset's candidates best-first and skip those that
  /// cannot win (docs/PERF.md, section 5). The answer's `cost` is the
  /// bound and its `resources` are empty; Unsupported means no bound,
  /// and any other error is the one CostJoin would return for the
  /// context. A bound request searches nothing, looks nothing up,
  /// inserts nothing and is not counted in operator_cost_calls(). An
  /// answer depends on the flag: a wrapper that memoizes CostJoin must
  /// key on it or forward bound requests unmemoized.
  bool bound_only = false;

  double smaller_bytes() const {
    return left_bytes < right_bytes ? left_bytes : right_bytes;
  }
  double larger_bytes() const {
    return left_bytes < right_bytes ? right_bytes : left_bytes;
  }
  double smaller_gb() const {
    return smaller_bytes() / (1024.0 * 1024.0 * 1024.0);
  }
  double larger_gb() const {
    return larger_bytes() / (1024.0 * 1024.0 * 1024.0);
  }
};

/// Cost of one join operator plus the resource configuration chosen for
/// it (when the evaluator performs resource planning).
struct OperatorCost {
  cost::CostVector cost;
  std::optional<resource::ResourceConfig> resources;
};

/// The extension point of Section VI-C: query planners cost candidate
/// sub-plans exclusively through this interface, so swapping a
/// fixed-resource evaluator (traditional QO) for a resource-planning one
/// (RAQO) upgrades any planner without touching its enumeration logic.
///
/// Implementations may return ResourceExhausted when an operator cannot
/// run at all (e.g. a broadcast build side that fits in no allowed
/// container); planners treat such candidates as invalid and skip them.
class PlanCostEvaluator {
 public:
  virtual ~PlanCostEvaluator() = default;

  /// Costs one join operator, or bounds it under
  /// JoinContext::bound_only; updates the exploration counters.
  Result<OperatorCost> CostJoin(const JoinContext& context) {
    if (!context.bound_only) ++operator_cost_calls_;
    return CostJoinImpl(context);
  }

  /// Number of CostJoin invocations since the last reset, bound requests
  /// aside.
  int64_t operator_cost_calls() const { return operator_cost_calls_; }

  /// Number of resource configurations examined since the last reset
  /// (the paper's "#Resource-Iterations" metric; 0 for evaluators that do
  /// no resource planning... the fixed-resource baseline counts 1 per
  /// call since it prices exactly one configuration).
  int64_t resource_configs_explored() const {
    return resource_configs_explored_;
  }

  void ResetCounters() {
    operator_cost_calls_ = 0;
    resource_configs_explored_ = 0;
  }

 protected:
  virtual Result<OperatorCost> CostJoinImpl(const JoinContext& context) = 0;

  /// Saturating accumulation: a long-lived service evaluator summing
  /// near-saturated brute-force counts must not wrap into negatives.
  void AddResourceConfigsExplored(int64_t n) {
    if (resource_configs_explored_ >
        std::numeric_limits<int64_t>::max() - n) {
      resource_configs_explored_ = std::numeric_limits<int64_t>::max();
    } else {
      resource_configs_explored_ += n;
    }
  }

 private:
  int64_t operator_cost_calls_ = 0;
  int64_t resource_configs_explored_ = 0;
};

}  // namespace raqo::optimizer

#endif  // RAQO_OPTIMIZER_COST_EVALUATOR_H_
