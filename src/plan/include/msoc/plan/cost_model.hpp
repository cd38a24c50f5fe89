#pragma once
// The paper's test-cost model (Eq. 2 and Eq. 3).
//
//   C = w_T * C_time + w_A * C_A                          (Eq. 2)
//
// C_time = 100 * T(W, partition) / T_max(W), where T_max is the SOC test
// time when ALL analog cores share a single wrapper — the most
// constrained schedule, used as the normalization baseline.  C_A is the
// Eq.(1) area-overhead cost from the mswrap layer.
//
// The preliminary cost (Eq. 3) replaces the expensive C_time with the
// free analog lower bound:  Prelim = w_T * LB_norm + w_A * C_A.  It is
// what the Cost_Optimizer heuristic prunes on.

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "msoc/common/units.hpp"
#include "msoc/mswrap/area_model.hpp"
#include "msoc/mswrap/partition.hpp"
#include "msoc/mswrap/sharing.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/packing.hpp"
#include "msoc/tam/schedule.hpp"

namespace msoc::plan {

/// Weights of Eq. 2; must be non-negative and sum to 1.
struct CostWeights {
  double time = 0.5;
  double area = 0.5;

  void validate() const;

  /// w_T * c_time + w_A * c_area: Eq. 2 over C_time, Eq. 3 over the
  /// normalized analog lower bound.
  [[nodiscard]] double total(double c_time, double c_area) const {
    return time * c_time + area * c_area;
  }
};

/// C_time of Eq. 2: 100 * T / T_max.
[[nodiscard]] inline double c_time(Cycles test_time, Cycles t_max) {
  return 100.0 * static_cast<double>(test_time) / static_cast<double>(t_max);
}

/// Everything the planner needs to evaluate combinations on one SOC.
struct PlanningProblem {
  const soc::Soc* soc = nullptr;
  int tam_width = 32;
  CostWeights weights;
  mswrap::WrapperAreaModel area_model;
  mswrap::SharingPolicy policy;
  mswrap::EnumerationOptions enumeration;
  tam::PackingOptions packing;

  void validate() const;
};

/// Full evaluation of one sharing combination.
struct CombinationCost {
  mswrap::Partition partition;
  std::string label;
  Cycles test_time = 0;    ///< Schedule makespan from the TAM optimizer.
  double c_time = 0.0;     ///< 100 * T / T_max.
  double c_area = 0.0;     ///< Eq.(1).
  double total = 0.0;      ///< Eq.(2).
};

/// Eq. 2 for one combination packed in `test_time` against the
/// all-share baseline `t_max`.  A LogicError when test_time > t_max:
/// the packer's serialized fallback guarantees no partition packs
/// worse than the all-share arrangement.
[[nodiscard]] CombinationCost price(const mswrap::Partition& partition,
                                    std::string label, double c_area,
                                    Cycles test_time, Cycles t_max,
                                    const CostWeights& weights);

/// Evaluates combinations against one PlanningProblem, memoizing the
/// expensive TAM-optimizer runs and the T_max baseline: the reference
/// that plan::FrontierEngine, which builds no CostModel, must match.
///
/// Thread safety: evaluate() and run_tam's memo table are guarded by an
/// internal mutex, the packer is safe to share, and the T_max baseline
/// is computed eagerly at construction, so concurrent evaluate() calls
/// on distinct partitions are safe and produce exactly the serial
/// results (a pack is a pure function of its arguments).  Construction
/// itself is not concurrent-safe; build the model before fanning out.
class CostModel {
 public:
  explicit CostModel(const PlanningProblem& problem);

  /// SOC test time with all analog cores on one wrapper (computed at
  /// construction — it is the C_time normalization every evaluation
  /// needs).
  [[nodiscard]] Cycles t_max() const noexcept { return t_max_; }

  /// Eq. 3 preliminary cost from statically-known quantities.
  [[nodiscard]] double preliminary_cost(
      const mswrap::SharingEvaluation& evaluation) const;

  /// Full Eq. 2 evaluation (runs the TAM optimizer; memoized).
  [[nodiscard]] CombinationCost evaluate(const mswrap::Partition& partition);

  /// Number of distinct TAM-optimizer invocations so far.  The all-share
  /// baseline is excluded: its schedule is the normalization constant the
  /// model needs anyway (this matches the paper's evaluation counting).
  [[nodiscard]] int tam_runs() const;

  [[nodiscard]] const std::vector<soc::AnalogCore>& cores() const {
    return problem_.soc->analog_cores();
  }
  [[nodiscard]] const PlanningProblem& problem() const { return problem_; }

  /// The schedule behind an already-evaluated combination.
  [[nodiscard]] tam::Schedule schedule_for(
      const mswrap::Partition& partition) const;

 private:
  [[nodiscard]] Cycles run_tam(const mswrap::Partition& partition);

  PlanningProblem problem_;
  std::vector<std::string> names_;
  tam::Packer packer_;
  Cycles t_max_ = 0;
  mutable std::mutex mutex_;  ///< Guards tam_runs_ and time_cache_.
  int tam_runs_ = 0;
  std::map<mswrap::Partition, Cycles> time_cache_;
};

}  // namespace msoc::plan
