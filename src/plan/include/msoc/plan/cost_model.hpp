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

#include <string>

#include "msoc/common/units.hpp"
#include "msoc/mswrap/partition.hpp"

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

}  // namespace msoc::plan
