#include "msoc/plan/cost_model.hpp"

#include <cmath>
#include <utility>
#include <vector>

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

void PlanningProblem::validate() const {
  require(soc != nullptr, "planning problem needs an SOC");
  require(tam_width >= 1, "TAM width must be >= 1");
  require(soc->analog_count() >= 1,
          "mixed-signal planning needs at least one analog core");
  weights.validate();
}

CostModel::CostModel(const PlanningProblem& problem)
    : problem_((problem.validate(), problem)),  // before the packer reads it
      names_(mswrap::core_names(problem_.soc->analog_cores())),
      packer_(*problem_.soc, problem_.tam_width, problem_.packing) {
  // Compute the T_max baseline up front: every evaluation normalizes by
  // it, and doing it here keeps evaluate() lock-cheap and safe to call
  // concurrently.  The packer keeps the schedule as every evaluation's
  // serialized fallback.
  t_max_ = packer_.all_share().makespan();
  check_invariant(t_max_ > 0, "T_max must be positive");
  std::vector<std::size_t> all(cores().size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  time_cache_[mswrap::Partition(std::vector<std::vector<std::size_t>>{all})] =
      t_max_;
}

int CostModel::tam_runs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tam_runs_;
}

double CostModel::preliminary_cost(
    const mswrap::SharingEvaluation& evaluation) const {
  return problem_.weights.total(evaluation.analog_lb_normalized,
                                evaluation.area_cost);
}

tam::Schedule CostModel::schedule_for(
    const mswrap::Partition& partition) const {
  return packer_.schedule(mswrap::to_analog_partition(cores(), partition));
}

Cycles CostModel::run_tam(const mswrap::Partition& partition) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = time_cache_.find(partition);
    if (it != time_cache_.end()) return it->second;
  }
  // The TAM run happens outside the lock — it is the expensive part and
  // the whole point of evaluating combinations in parallel.  Two threads
  // racing on the SAME partition would both compute the (identical)
  // schedule; only the first insert counts toward tam_runs_, so the
  // paper's N stays exact either way.
  const tam::Schedule schedule = schedule_for(partition);
  tam::require_valid(schedule);
  const Cycles time = schedule.makespan();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (time_cache_.emplace(partition, time).second) ++tam_runs_;
  return time;
}

CombinationCost CostModel::evaluate(const mswrap::Partition& partition) {
  const Cycles test_time = run_tam(partition);
  return price(partition, partition.to_string(names_),
               problem_.area_model.area_cost(cores(), partition), test_time,
               t_max(), problem_.weights);
}

}  // namespace msoc::plan
