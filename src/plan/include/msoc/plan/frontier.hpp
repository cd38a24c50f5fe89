#pragma once
// Pareto-frontier planning engine: the library's one implementation of
// the paper's Cost_Optimizer (Fig. 3) and its exhaustive baseline, run
// over a whole (TAM width, power budget) grid in one call.  A one-width
// engine answers the paper's per-width question (Table 4, msoc_plan
// --width); tests/reference_fig3.hpp holds the naive serial reference
// it must match bit for bit.
//
// Every deployment question around the paper's Tables 3-4 is a curve —
// how do test time and cost move as the width budget moves — and a
// per-width optimizer would re-derive everything from scratch at each
// width.  The engine runs the staged pipeline (docs/architecture.md):
// stage 1 enumerates the partition space once per SOC
// (PartitionSpace, msoc/plan/pipeline.hpp), stage 2 resolves
// digest-keyed partition makespans per (width, power) cell (the
// private FrontierEngine::Cell), and stage 3 — the engine itself —
// walks the budget grid sharing everything width-independent:
//
//   * the sharing-combination enumeration, each combination's Eq. 3
//     preliminary cost, area cost, analog lower bound, and the
//     per-group representative choice (weights fixed per engine);
//   * every digital core's Pareto staircase, computed once at the
//     widest budget (tam::ParetoTables) and sliced once per cell by
//     the cell's tam::Packer, which also packs the cell's all-share
//     T_max at most once;
//   * optionally a persistent ResultCache of TAM makespans keyed by
//     soc::digest(), so repeated sweeps, CI benches and msoc_plan
//     invocations skip solved cells entirely.
//
// Because stage 2 is keyed purely by core-digest content, the engine
// can also RE-plan: replan(baseline_digest) diffs the current SOC
// against a previously-flushed store's digest inventory and re-packs
// only the cells whose digests went dirty, splicing every clean cell
// from the baseline store — bit-identical to a cold run(), by the
// same argument that makes the cache sound (docs/reproduction.md,
// "ECO re-plan workflow").
//
// On top of the Fig. 3 elimination it skips TAM runs by a cost lower
// bound — w_T * 100 * max(analog LB, makespan LB(W, budget)) /
// T_max(W) + w_A * C_A, every term known without a TAM run
// (tam::makespan_lower_bound).  Representatives are evaluated one at a
// time in ascending order of that bound; one whose bound exceeds the
// cheapest evaluated total plus epsilon is skipped, since its group
// would be eliminated anyway.  A surviving member is skipped when its
// bound strictly exceeds the cheapest representative.  The bound never
// exceeds the Eq. 2 total and the winner is selected by strict <, so
// skipping can never change the reported optimum: per-width results
// are bit-identical to the reference's, just cheaper.  Members'
// evaluations fan out over the common ThreadPool; every skip is
// decided serially before a fan-out, so results (including evaluation
// and skip counts) are bit-identical for every jobs value.

#include <optional>
#include <string>
#include <vector>

#include "msoc/plan/cost_model.hpp"
#include "msoc/plan/pipeline.hpp"
#include "msoc/plan/result_cache.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/packing.hpp"

namespace msoc::plan {

struct FrontierOptions {
  /// Width budgets to solve (duplicates collapse; solved ascending).
  std::vector<int> widths = {16, 24, 32, 48, 64};
  /// Power budgets to solve, each resolved against the SOC the way
  /// tam::PackingOptions::max_power is: < 0 = inherit Soc::max_power,
  /// 0 = unconstrained, > 0 explicit.  After resolution duplicates
  /// collapse; rungs are solved unconstrained first, then tightening
  /// (descending) budgets.  The default ladder is one inherit rung, so
  /// an undeclared SOC reproduces the pre-power engine exactly.
  std::vector<double> max_powers = {-1.0};
  CostWeights weights;
  /// Evaluate every combination instead of the Fig. 3 heuristic.
  bool exhaustive = false;
  /// Heuristic elimination slack (ignored when exhaustive).
  double epsilon = 0.0;
  /// Evaluation threads per width (<= 0 = hardware concurrency);
  /// results are bit-identical for every value.
  int jobs = 1;
  /// Optional persistent makespan cache (borrowed).  The engine opens
  /// the SOC's digest, reads the snapshot, and records every makespan
  /// it computes; call cache->flush() to persist.  Entries that parse
  /// but contradict a freshly-packed baseline are discarded and
  /// recomputed — a cache can make runs slower to repair, never fail.
  ResultCache* cache = nullptr;
  /// Optional precomputed Pareto staircases (borrowed; must cover this
  /// SOC at >= max(widths)).  Callers running several engines on one
  /// SOC — run_sweep's weight series — share one table; the engine
  /// computes its own when null.
  const tam::ParetoTables* pareto_tables = nullptr;

  mswrap::WrapperAreaModel area_model;
  mswrap::SharingPolicy policy;
  mswrap::EnumerationOptions enumeration;
  tam::PackingOptions packing;

  /// The ladder and budget rules every engine and sweep checks before
  /// solving anything; throws InfeasibleError.
  void validate() const;
};

/// One (width, power) budget cell's outcome.
struct FrontierPoint {
  int tam_width = 0;
  double max_power = 0.0;     ///< Effective power budget; 0 = unlimited.
  /// Effective sliding-window budget (every window_cycles-cycle window
  /// averages <= window_limit); both 0 = unwindowed.  One window per
  /// run (resolved from packing options / the SOC), crossed with the
  /// power ladder.
  Cycles window_cycles = 0;
  double window_limit = 0.0;
  CombinationCost best;
  Cycles t_max = 0;
  int evaluations = 0;        ///< TAM-optimizer runs at this width.
  int total_combinations = 0;
  int cache_hits = 0;         ///< Combinations answered from the cache.
  int reused = 0;             ///< Combinations spliced from the replan
                              ///< baseline store (replan() only).
  /// Representatives and members whose TAM run the lower bound
  /// skipped; on a cold run evaluations + pruned is the paper's N.
  int pruned = 0;
  /// On the (width, test time) Pareto frontier: no narrower feasible
  /// budget achieves an equal-or-shorter test time.
  bool pareto = false;
  double wall_ms = 0.0;
  std::string error;          ///< Set when this width is infeasible.

  /// An unsolved cell at `width` under the resolved `max_power` and
  /// `window` (inactive = unwindowed).
  [[nodiscard]] static FrontierPoint cell(int width, double max_power,
                                          const soc::PowerWindow& window);

  [[nodiscard]] bool ok() const { return error.empty(); }
};

struct FrontierResult {
  std::string soc_name;
  std::string digest;         ///< soc::digest_hex of the SOC.
  std::string algorithm;      ///< "exhaustive" or "cost_optimizer".
  double w_time = 0.0;
  /// One point per (power rung, width): rungs in solve order, widths
  /// ascending within each rung.
  std::vector<FrontierPoint> points;
  int evaluations = 0;        ///< Total TAM-optimizer runs.
  int cache_hits = 0;
  int pruned = 0;
  /// Replan provenance: the baseline store's SOC digest when this
  /// result came from replan() with a usable baseline, else empty.
  std::string replanned_from;
  int reused = 0;             ///< Total baseline-store splices.
  /// Partitions whose digests went dirty vs the baseline (replan()
  /// with a usable baseline only; the worst rung's count).
  int dirty_partitions = 0;
  /// Test time never increases with width over the feasible points of
  /// EVERY power rung — the sanity the paper's Tables 3-4 rely on.
  bool time_monotone = true;
  double wall_ms = 0.0;       ///< Whole run, setup included.

  /// The point solved for `width` under the resolved budget
  /// `max_power`; a LogicError when the run had no such cell.
  [[nodiscard]] const FrontierPoint& point(int width, double max_power) const;

  /// "msoc-frontier-v1" JSON document, "msoc-frontier-v2" (adding
  /// per-point max_power) when any rung is power-constrained,
  /// "msoc-frontier-v3" (adding replanned_from / reused /
  /// dirty_partitions) when the result came from a replan, or
  /// "msoc-frontier-v4" (adding per-point window_cycles/window_limit)
  /// when the run enforced a sliding-window budget.  Unwindowed
  /// non-replan documents are byte-identical to the pre-replan
  /// engine's.
  [[nodiscard]] std::string to_json() const;
  /// RFC-4180 CSV, one row per (power rung, width) cell; a max_power
  /// column appears when any rung is power-constrained,
  /// window_cycles/window_limit columns when the run was windowed, a
  /// reused column when the result came from a replan.
  [[nodiscard]] std::string to_csv() const;
};

/// Table 4's %R: the share of `total_combinations` not packed when a
/// run packed `evaluations` of them, in percent; 0 for an empty space.
[[nodiscard]] double evaluation_reduction_percent(int evaluations,
                                                  int total_combinations);

/// Reusable frontier solver for one SOC.  The SOC and the options'
/// cache are borrowed and must outlive the engine; run() may be called
/// repeatedly (e.g. cold/warm timing) and is itself single-threaded at
/// the API level — internal evaluation fan-out is governed by
/// options.jobs.
class FrontierEngine {
 public:
  FrontierEngine(const soc::Soc& soc, FrontierOptions options);

  FrontierEngine(const FrontierEngine&) = delete;
  FrontierEngine& operator=(const FrontierEngine&) = delete;

  [[nodiscard]] FrontierResult run();

  /// Incremental re-plan against the store flushed for
  /// `baseline_digest` (a previous revision of this SOC).  Diffs the
  /// baseline store's digest inventory against the current SOC and
  /// re-packs ONLY the partitions containing a dirty core digest;
  /// clean partitions splice their makespans from the baseline store
  /// and are re-recorded under the current digest.  Bit-identical to a
  /// cold run() — baseline entries are reused only where the makespan
  /// is provably the same function of the surviving content.  Falls
  /// back to a plain run() (with a warning, replanned_from empty) when
  /// the engine has no cache or the baseline has no v4 store carrying
  /// an inventory (stores in the v1-v3 layout are not read).
  [[nodiscard]] FrontierResult replan(const std::string& baseline_digest);

  [[nodiscard]] const std::string& digest() const noexcept {
    return digest_;
  }

 private:
  /// Stage 2 state of one (width, budget) cell (frontier.cpp).
  struct Cell;

  [[nodiscard]] FrontierPoint solve_point(int width, double max_power);
  [[nodiscard]] FrontierPoint solve_point_attempt(int width,
                                                  double max_power,
                                                  bool trust_cache);
  [[nodiscard]] FrontierResult run_grid();

  const soc::Soc& soc_;
  FrontierOptions options_;
  std::string digest_;
  std::string fingerprint_;
  std::vector<std::string> names_;
  std::optional<PartitionSpace> space_;  ///< Engaged by the ctor.
  tam::ParetoTables own_pareto_tables_;        ///< Empty when borrowed.
  const tam::ParetoTables* pareto_tables_ = nullptr;
  std::vector<int> widths_;  ///< Ascending, unique.
  std::vector<double> powers_;  ///< Resolved rungs, solve order.
  /// Resolved sliding-window budget (inactive = unwindowed run).
  soc::PowerWindow window_;

  /// Replan state, engaged only inside replan() with a usable
  /// baseline: the baseline digest and the per-cell reuse permissions
  /// in both digest flavors (full for constrained rungs, power-
  /// stripped for unconstrained ones).
  std::string replan_baseline_;
  std::optional<std::vector<bool>> clean_full_;
  std::optional<std::vector<bool>> clean_packing_;
};

}  // namespace msoc::plan
