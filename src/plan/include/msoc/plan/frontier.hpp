#pragma once
// Pareto-frontier planning engine: the full (TAM width, test time,
// Eq. 2 cost) curve for one SOC in one call, instead of independent
// per-width Cost_Optimizer runs.
//
// Every deployment question around the paper's Tables 3-4 is a curve —
// how do test time and cost move as the width budget moves — and the
// per-width optimizer re-derives everything from scratch at each
// width.  The engine is the assembly stage of the staged pipeline
// (msoc/plan/pipeline.hpp, docs/architecture.md): stage 1 enumerates
// the partition space once per SOC (PartitionSpace), stage 2 resolves
// digest-keyed partition makespans per (width, power) cell
// (PartitionEvaluator), and the engine walks the budget grid sharing
// everything width-independent:
//
//   * the sharing-combination enumeration, each combination's Eq. 3
//     preliminary cost, area cost, analog lower bound, and the
//     per-group representative choice (weights fixed per engine);
//   * every digital core's Pareto staircase, computed once at the
//     widest budget and sliced per width (tam::ParetoTables);
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
// On top of the Fig. 3 elimination it prunes surviving-group members
// whose cost lower bound — w_T * 100 * max(analog LB, digital LB(W)) /
// T_max(W) + w_A * C_A, every term known without a TAM run — strictly
// exceeds the cheapest evaluated representative.  The bound is a true
// lower bound on the Eq. 2 total and the winner is selected by strict
// <, so pruning can never change the reported optimum: per-width
// results are bit-identical to optimize_cost_heuristic /
// optimize_exhaustive, just cheaper.  Evaluations fan out over the
// common ThreadPool; all pruning thresholds are fixed before the
// fan-out, so results (including evaluation counts) are bit-identical
// for every jobs value.

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
  int pruned = 0;             ///< Members skipped by the lower bound.
  /// On the (width, test time) Pareto frontier: no narrower feasible
  /// budget achieves an equal-or-shorter test time.
  bool pareto = false;
  double wall_ms = 0.0;
  std::string error;          ///< Set when this width is infeasible.

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
  int max_analog_width_ = 0;
  double peak_test_power_ = 0.0;

  /// Replan state, engaged only inside replan() with a usable
  /// baseline: the baseline digest and the per-cell reuse permissions
  /// in both digest flavors (full for constrained rungs, power-
  /// stripped for unconstrained ones).
  std::string replan_baseline_;
  std::optional<std::vector<bool>> clean_full_;
  std::optional<std::vector<bool>> clean_packing_;
};

}  // namespace msoc::plan
