#include "optimizer/planner_result.h"

#include "common/strings.h"

namespace raqo::optimizer {

const ParetoEntry* MultiObjectiveResult::CheapestEntry() const {
  const ParetoEntry* best = nullptr;
  for (const ParetoEntry& e : frontier) {
    if (best == nullptr || e.cost.dollars < best->cost.dollars) best = &e;
  }
  return best;
}

Result<const ParetoEntry*> MultiObjectiveResult::FastestWithin(
    double max_dollars) const {
  const ParetoEntry* best = nullptr;
  for (const ParetoEntry& e : frontier) {
    if (e.cost.dollars <= max_dollars &&
        (best == nullptr || e.cost.seconds < best->cost.seconds)) {
      best = &e;
    }
  }
  if (best == nullptr) {
    const ParetoEntry* cheapest = CheapestEntry();
    return Status::NotFound(StrPrintf(
        "no plan fits the $%.4f budget; the cheapest frontier plan costs "
        "$%.4f",
        max_dollars, cheapest != nullptr ? cheapest->cost.dollars : 0.0));
  }
  return best;
}

}  // namespace raqo::optimizer
