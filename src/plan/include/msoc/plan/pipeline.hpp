#pragma once
// Stage 1 of the planning pipeline behind plan::FrontierEngine
// (docs/architecture.md, "The staged planning pipeline"):
//
//   Stage 1 — PartitionSpace (here): enumerate the sharing combinations
//   once per SOC, with each combination's Eq. 3 preliminary cost,
//   analog lower bound, Fig. 3 shape groups, and BOTH content-addressed
//   cache keys (full-digest for powered cells, power-stripped for
//   unconstrained ones).  Nothing here depends on width or budget.
//
//   Stage 2 — FrontierEngine::Cell (frontier.cpp): resolve partition
//   makespans for one (width, budget) cell from the current store, a
//   replan baseline store (clean cells only), or one parallel fan-out
//   of fresh TAM packs.
//
//   Stage 3 — the rest of FrontierEngine: Fig. 3 elimination,
//   lower-bound pruning, winner reduction, and per-rung Pareto /
//   monotonicity marking over the resolved makespans.
//
// Stage 2 sees stage 1 only through the cells' cache keys, which is
// why its results survive SOC revisions whose digests are clean
// (FrontierEngine::replan).

#include <string>
#include <vector>

#include "msoc/plan/cost_model.hpp"
#include "msoc/soc/delta.hpp"
#include "msoc/soc/soc.hpp"

namespace msoc::plan {

/// One enumerated sharing combination with its width-independent
/// precomputation (stage 1 product).
struct PartitionCell {
  mswrap::SharingEvaluation evaluation;
  double prelim = 0.0;    ///< Eq. 3.
  Cycles analog_lb = 0;   ///< Busiest-wrapper usage (width-independent).
  std::string key_full;     ///< partition_key over full core digests.
  std::string key_packing;  ///< ... over power-stripped digests.

  /// The cache key of a `powered` pack (peak OR sliding-window budget):
  /// those see power annotations, unconstrained ones provably cannot,
  /// so the latter key on the stripped digests and stay valid across
  /// power-annotation-only revisions.
  [[nodiscard]] const std::string& key_for(bool powered) const {
    return powered ? key_full : key_packing;
  }
};

/// Fig. 3 shape group over PartitionSpace cells.
struct PartitionGroup {
  std::vector<std::size_t> members;  ///< Cell indices, enumeration order.
  std::size_t representative = 0;    ///< Best Eq. 3 member.
};

/// Stage 1: the enumerated partition space of one SOC under one set of
/// weights — combination cells, their shape groups, and the all-share
/// baseline partition every cost normalizes by.
class PartitionSpace {
 public:
  /// Enumerates and groups; throws InfeasibleError when no sharing
  /// combination is feasible.
  PartitionSpace(const soc::Soc& soc, const CostWeights& weights,
                 const mswrap::WrapperAreaModel& area_model,
                 const mswrap::SharingPolicy& policy,
                 const mswrap::EnumerationOptions& enumeration);

  std::vector<PartitionCell> cells;
  std::vector<PartitionGroup> groups;
  mswrap::Partition all_share;       ///< Every analog core on one wrapper.
  std::string all_share_key_full;
  std::string all_share_key_packing;

  [[nodiscard]] const std::string& all_share_key_for(bool powered) const {
    return powered ? all_share_key_full : all_share_key_packing;
  }

  /// Per-cell reuse permission against a baseline delta: a cell is
  /// CLEAN when the digital context and every member analog core of
  /// its partition are untouched in the digest flavor the budget class
  /// keys on (`packing` flavor for unconstrained cells).  Dirty cells
  /// must be re-packed; clean ones may read the baseline store.
  [[nodiscard]] std::vector<bool> classify_clean(
      const soc::Soc& soc, const soc::DigestDelta& delta,
      bool packing_flavor) const;
};

}  // namespace msoc::plan
