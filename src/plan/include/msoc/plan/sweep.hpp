#pragma once
// Batch plan-evaluation sweeps: one case per {SOC x TAM width x power
// budget x cost weights} cell, exportable as CSV and as machine-readable
// JSON (schema "msoc-sweep-v1", documented in docs/formats.md).  Each
// (SOC, weight) series is one plan::FrontierEngine run walking every
// width, so enumeration, Eq. 3 preliminaries and Pareto staircases are
// shared across widths, and a borrowed ResultCache lets repeated sweeps
// skip solved cells entirely.  The sweep keeps those FrontierResults
// and writes its documents from their points.  This is the ITC'02-style
// multi-scenario harness the CLI's --sweep flag and the
// bench/sweep_perf driver drive on every commit.

#include <string>
#include <vector>

#include "msoc/plan/frontier.hpp"
#include "msoc/soc/soc.hpp"

namespace msoc::plan {

/// What to sweep.  SOCs are owned by value so configs built from the
/// embedded benchmarks or from loaded .soc files are self-contained.
struct SweepConfig {
  std::vector<soc::Soc> socs;
  std::vector<double> time_weights = {0.25, 0.5, 0.75};
  /// The engine options every series runs with: width and power
  /// ladders, packing (sliding window included), algorithm, epsilon and
  /// the borrowed msoc-cache-v4 result cache.  Three fields are the
  /// sweep's own business: `weights` comes from each series' time
  /// weight, `pareto_tables` is computed once per SOC and lent to its
  /// series, and `jobs` is the sweep's total thread budget (<= 0 =
  /// hardware concurrency).  (SOC x weight) series fan out over a pool
  /// and leftover budget goes to the engines' evaluation fan-out; both
  /// levels are deterministic, so results never depend on it.
  ///
  /// With a cache the sweep opens its SOCs' digests up front, records
  /// into the overlay, and flushes at the end.  Lookups see only the
  /// state loaded at sweep start, so a warm re-run skips every solved
  /// cell while per-case evaluation counts stay scheduling-independent.
  /// The result's cache statistics are DELTAS over this run (a
  /// long-lived cache's lifetime counters would leak other runs'
  /// traffic into the document).
  FrontierOptions frontier;
  /// Incremental re-plan baseline: when non-empty, every series calls
  /// FrontierEngine::replan against the store flushed for this SOC
  /// digest (a previous revision), re-packing only partitions whose
  /// core digests went dirty.  Requires a cache and exactly one SOC.
  std::string replan_from;

  /// Number of cases the cross product produces.
  [[nodiscard]] std::size_t case_count() const;
};

/// A sweep's outcome: one FrontierResult per (SOC, weight) series, read
/// case by case in cross-product order.  Infeasible cells (e.g. a TAM
/// narrower than an analog wrapper) are error points; a series whose
/// SOC cannot be planned at all (InfeasibleError or ParseError from its
/// engine) holds one error point per cell instead, budgets and window
/// resolved as the engine would.  Library invariant violations
/// (LogicError) are NOT soft: they propagate out of run_sweep and fail
/// the whole sweep.
struct SweepResult {
  /// SOC-major: series[s * weights + t] is SOC s at time weight t.
  std::vector<FrontierResult> series;
  /// The config's width ladder and, per SOC, its power rungs resolved
  /// against that SOC, both in config order with duplicates kept.
  /// Case (s, w, p, t) is series[s * weights + t]'s point at
  /// (widths[w], budgets[s][p]).
  std::vector<int> widths;
  std::vector<std::vector<double>> budgets;
  double total_wall_ms = 0.0;  ///< Whole sweep, fan-out included.
  int jobs = 1;                ///< Worker threads the sweep actually used.
  bool exhaustive = false;
  double epsilon = 0.0;
  /// Result-cache statistics, populated when the sweep ran with a
  /// cache (cache_used true; all zero otherwise).
  bool cache_used = false;
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long cache_records = 0;
  int cache_corrupt_files = 0;
  /// Replan provenance (replan sweeps only): the baseline digest, the
  /// total baseline-store splices, and the worst series' dirty count.
  std::string replanned_from;
  int reused = 0;
  int dirty_partitions = 0;

  /// Calls visit(series, point) once per case, in cross-product order:
  /// socs x widths x powers x weights.
  template <typename Visit>
  void for_each_case(Visit&& visit) const {
    if (budgets.empty()) return;
    const std::size_t weights = series.size() / budgets.size();
    for (std::size_t s = 0; s < budgets.size(); ++s) {
      for (const int width : widths) {
        for (const double budget : budgets[s]) {
          for (std::size_t t = 0; t < weights; ++t) {
            const FrontierResult& frontier = series[s * weights + t];
            visit(frontier, frontier.point(width, budget));
          }
        }
      }
    }
  }

  /// RFC-4180 CSV with a header row (a max_power column appears when
  /// any case ran power-constrained, window_cycles/window_limit
  /// columns when any case ran windowed, a reused column for replan
  /// sweeps).
  [[nodiscard]] std::string to_csv() const;

  /// "msoc-sweep-v1" JSON document; "msoc-sweep-v2" (adding per-case
  /// max_power) when any case ran power-constrained; "msoc-sweep-v3"
  /// (adding the cache statistics block and, for replan sweeps, the
  /// replan provenance) whenever the sweep used a result cache;
  /// "msoc-sweep-v4" (adding per-case window_cycles/window_limit)
  /// when any case ran under a sliding-window budget.  Cacheless
  /// unwindowed sweeps keep emitting the v1/v2 documents byte-for-byte.
  [[nodiscard]] std::string to_json() const;
};

/// Runs every case of the cross product.  Case order in the result is
/// deterministic (socs x widths x powers x weights, in config order)
/// regardless of jobs; wall_ms fields are the only nondeterministic
/// outputs.
[[nodiscard]] SweepResult run_sweep(const SweepConfig& config);

/// The default benchmark sweep behind `msoc_plan --sweep`: the built-in
/// mixed-signal SOCs (p93791m and d695m) across the paper's TAM widths
/// and weight settings.
[[nodiscard]] SweepConfig default_benchmark_sweep();

}  // namespace msoc::plan
