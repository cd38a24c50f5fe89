#pragma once
// The reference Cost_Optimizer (paper Fig. 3) and its exhaustive
// baseline: the oracle plan::FrontierEngine must match bit for bit.
//
// Deliberately naive.  Every combination is priced with plan::price
// over its own tam::schedule_soc pack, serially and in enumeration
// order; the one-wrapper (all-share) combination costs T_max without a
// pack and, as in the paper, never counts as an evaluation.  The
// reference knows nothing of the engine's staged pipeline, its
// lower-bound ordering or its skips, which is what makes agreement
// between the two evidence rather than a tautology.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/mswrap/sharing.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/packing.hpp"
#include "msoc/tam/schedule.hpp"

namespace msoc::test::fig3 {

struct Result {
  plan::CombinationCost best;
  Cycles t_max = 0;
  int evaluations = 0;         ///< Packs beyond T_max: the paper's N.
  int total_combinations = 0;  ///< Feasible combinations: N_tot.
  /// Heuristic only: one flag per shape group, in shape order.
  std::vector<bool> eliminated;
};

/// Prices combinations at one width, each distinct partition packed once.
/// Reads the weights, area model, policy, enumeration and packing of
/// `options`; its widths, power ladder and cache are ignored.
class Pricer {
 public:
  Pricer(const soc::Soc& soc, int width, const plan::FrontierOptions& options)
      : soc_(soc),
        width_(width),
        options_(options),
        t_max_(tam::schedule_soc(soc, width, tam::all_share_partition(soc),
                                 options.packing)
                   .makespan()) {}

  [[nodiscard]] Cycles t_max() const { return t_max_; }
  [[nodiscard]] int evaluations() const { return evaluations_; }

  const plan::CombinationCost& operator()(const mswrap::SharingEvaluation& e) {
    const auto known = priced_.find(e.partition);
    if (known != priced_.end()) return known->second;
    Cycles time = t_max_;
    if (e.partition.groups().size() > 1) {
      const tam::Schedule schedule = tam::schedule_soc(
          soc_, width_,
          mswrap::to_analog_partition(soc_.analog_cores(), e.partition),
          options_.packing);
      tam::require_valid(schedule);
      time = schedule.makespan();
      ++evaluations_;
    }
    return priced_
        .emplace(e.partition, plan::price(e.partition, e.label, e.area_cost,
                                          time, t_max_, options_.weights))
        .first->second;
  }

 private:
  const soc::Soc& soc_;
  int width_;
  const plan::FrontierOptions& options_;
  Cycles t_max_;
  int evaluations_ = 0;
  std::map<mswrap::Partition, plan::CombinationCost> priced_;
};

/// The combinations the sharing policy admits, in enumeration order.
inline std::vector<mswrap::SharingEvaluation> feasible_combinations(
    const soc::Soc& soc, const plan::FrontierOptions& options) {
  std::vector<mswrap::SharingEvaluation> feasible;
  for (mswrap::SharingEvaluation& e : mswrap::evaluate_combinations(
           soc.analog_cores(), options.area_model, options.policy,
           options.enumeration)) {
    if (e.feasible) feasible.push_back(std::move(e));
  }
  require(!feasible.empty(), "no feasible sharing combination");
  return feasible;
}

/// Keeps the first strict minimum, as the engine does.
inline void consider(Result& result, bool& have_best,
                     const plan::CombinationCost& cost) {
  if (!have_best || cost.total < result.best.total) {
    result.best = cost;
    have_best = true;
  }
}

/// Evaluates every combination; optimal under the cost model.
inline Result exhaustive(const soc::Soc& soc, int width,
                         const plan::FrontierOptions& options = {}) {
  const std::vector<mswrap::SharingEvaluation> combos =
      feasible_combinations(soc, options);
  Pricer price(soc, width, options);
  Result result;
  result.total_combinations = static_cast<int>(combos.size());
  bool have_best = false;
  for (const mswrap::SharingEvaluation& e : combos) {
    consider(result, have_best, price(e));
  }
  result.t_max = price.t_max();
  result.evaluations = price.evaluations();
  return result;
}

/// Fig. 3 with elimination slack options.epsilon.
inline Result heuristic(const soc::Soc& soc, int width,
                        const plan::FrontierOptions& options = {}) {
  require(options.epsilon >= 0.0, "epsilon must be non-negative");
  const std::vector<mswrap::SharingEvaluation> combos =
      feasible_combinations(soc, options);
  Pricer price(soc, width, options);
  Result result;
  result.total_combinations = static_cast<int>(combos.size());

  // Line 1: group by degree of sharing (partition shape).
  std::map<std::vector<std::size_t>,
           std::vector<const mswrap::SharingEvaluation*>>
      by_shape;
  for (const mswrap::SharingEvaluation& e : combos) {
    by_shape[e.partition.shape()].push_back(&e);
  }

  // Lines 2-13: each group's first Eq. 3 minimum, priced with a pack.
  std::vector<const mswrap::SharingEvaluation*> reps;
  std::vector<double> rep_total;
  double min_rep = std::numeric_limits<double>::infinity();
  for (const auto& [shape, members] : by_shape) {
    const mswrap::SharingEvaluation* rep = nullptr;
    double best_prelim = std::numeric_limits<double>::infinity();
    for (const mswrap::SharingEvaluation* e : members) {
      const double prelim =
          options.weights.total(e->analog_lb_normalized, e->area_cost);
      if (prelim < best_prelim) {
        best_prelim = prelim;
        rep = e;
      }
    }
    reps.push_back(rep);
    rep_total.push_back(price(*rep).total);
    min_rep = std::min(min_rep, rep_total.back());
  }

  // Lines 14-19: eliminate groups beyond epsilon of the cheapest
  // representative; an eliminated representative still competes, every
  // surviving member is priced.
  bool have_best = false;
  std::size_t g = 0;
  for (const auto& [shape, members] : by_shape) {
    const bool eliminated = rep_total[g] > min_rep + options.epsilon;
    result.eliminated.push_back(eliminated);
    if (eliminated) {
      consider(result, have_best, price(*reps[g]));
    } else {
      for (const mswrap::SharingEvaluation* e : members) {
        consider(result, have_best, price(*e));
      }
    }
    ++g;
  }
  result.t_max = price.t_max();
  result.evaluations = price.evaluations();
  return result;
}

}  // namespace msoc::test::fig3
