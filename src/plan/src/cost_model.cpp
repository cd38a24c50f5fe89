#include "msoc/plan/cost_model.hpp"

#include <cmath>
#include <utility>

#include "msoc/common/error.hpp"

namespace msoc::plan {

void CostWeights::validate() const {
  require(time >= 0.0 && area >= 0.0, "cost weights must be non-negative");
  require(std::fabs(time + area - 1.0) < 1e-9,
          "cost weights must sum to 1");
}

CombinationCost price(const mswrap::Partition& partition, std::string label,
                      double c_area, Cycles test_time, Cycles t_max,
                      const CostWeights& weights) {
  // Any all-share schedule is feasible for every partition (it satisfies
  // a superset of the serialization constraints), so no partition may
  // cost more than T_max.  The packer guarantees this via its serialized
  // fallback; a violation here means that guarantee regressed.
  check_invariant(test_time <= t_max,
                  "partition " + label +
                      " packed worse than the all-share baseline");
  CombinationCost cost;
  cost.partition = partition;
  cost.label = std::move(label);
  cost.test_time = test_time;
  cost.c_time = c_time(test_time, t_max);
  cost.c_area = c_area;
  cost.total = weights.total(cost.c_time, cost.c_area);
  return cost;
}

}  // namespace msoc::plan
