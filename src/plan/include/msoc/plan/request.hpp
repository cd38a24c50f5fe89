#pragma once
// One planning request, whichever way it arrives.  msoc_plan tokenizes
// argv into a PlanRequest; the planning daemon decodes an msoc-rpc-v1
// envelope into one (from_json).  Both sides run the same validate()
// and hand the request to the same execute(), so a daemon reply and a
// standalone run are one computation over one set of typed fields
// (docs/architecture.md, "One request path"; docs/formats.md,
// "msoc-rpc-v1").
//
// Every planning field is optional: absent means "the default msoc_plan
// uses", and to_json() writes exactly the fields that are set, so
// from_json(to_json(r)) == r.  Integer fields are 64-bit so that an
// out-of-range value (a --width past INT_MAX, a window length past
// 2^53) reaches validate() intact and is rejected there with the same
// message on both paths.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "msoc/plan/frontier.hpp"
#include "msoc/plan/sweep.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/schedule.hpp"

namespace msoc::plan {

class ResultCache;

enum class PlanOp { kPing, kStats, kShutdown, kPlan, kSweep, kFrontier };

/// The op's wire name ("ping", ..., "frontier").
[[nodiscard]] const char* op_name(PlanOp op);

/// The built-in benchmark SOC `name` (p93791m, d695m, p93791, d695).
/// Throws InfeasibleError naming the choices for any other name.
[[nodiscard]] soc::Soc make_builtin_soc(const std::string& name);

struct PlanRequest {
  PlanOp op = PlanOp::kPlan;
  std::optional<std::string> bench;     ///< Built-in benchmark SOC name.
  std::optional<std::string> soc_text;  ///< .soc content (instead of bench).
  /// One TAM width: the single plan's width (default 32), or a one-rung
  /// ladder for sweep/frontier.
  std::optional<std::int64_t> width;
  /// Width ladder for sweep/frontier (default 16,24,32,48,64); a plan
  /// request rejects it.
  std::optional<std::vector<std::int64_t>> widths;
  /// Power budgets (0 = unconstrained; absent = the SOC's MaxPower).
  std::optional<std::vector<double>> max_powers;
  /// Sliding-window budget: window_limit 0 forces unwindowed planning,
  /// a positive limit needs window_cycles; absent = the SOC's
  /// PowerWindow.
  std::optional<double> window_limit;
  std::optional<std::int64_t> window_cycles;
  std::optional<double> w_time;  ///< Default 0.5 (sweep: 0.25,0.5,0.75).
  std::optional<bool> exhaustive;
  std::optional<double> epsilon;
  std::optional<std::int64_t> jobs;  ///< Default 1; 0 = all cores.
  std::optional<std::string> replan_from;  ///< Baseline SOC digest.

  /// Decodes and validates one msoc-rpc-v1 request envelope.
  [[nodiscard]] static PlanRequest from_json(std::string_view json);

  /// Every range and combination rule; throws InfeasibleError with a
  /// message naming the field and its valid range.
  void validate() const;

  /// The msoc-rpc-v1 envelope carrying exactly the set fields, .soc
  /// text included; also the daemon's memo/coalescing key.  Equal
  /// requests give equal bytes; an explicit default and an absent field
  /// differ (never wrong, just a colder memo).
  /// Precondition: validate() passed (non-finite numbers have no JSON
  /// spelling).
  [[nodiscard]] std::string to_json() const;

  /// True for plan, sweep and frontier.
  [[nodiscard]] bool planning() const;

  /// The built-in SOCs a request without soc_text plans: its bench, or
  /// p93791m (plan, frontier) / p93791m and d695m (sweep).
  [[nodiscard]] std::vector<std::string> bench_names() const;

  /// The widths to solve: widths, {width}, {32} for a plan, or the
  /// default 16,24,32,48,64.
  [[nodiscard]] std::vector<int> width_ladder() const;

  friend bool operator==(const PlanRequest&, const PlanRequest&) = default;
};

/// What execute() produced: the document and CSV a daemon reply
/// carries, plus the typed result behind them.  Every op runs through
/// FrontierEngine; a plan request is a cacheless one-case sweep whose
/// cell reports the paper's N (packs plus members the bound skipped).
struct PlanOutcome {
  std::string document;  ///< msoc-frontier-v* or msoc-sweep-v* JSON.
  /// Result-table CSV (frontier, sweep) or schedule CSV (plan).
  std::string csv;
  std::optional<FrontierResult> frontier;  ///< Frontier requests.
  /// Sweep requests, and plan requests as that one-case sweep.
  std::optional<SweepResult> sweep;
  /// Plan requests: the winner packed once more.
  std::optional<tam::Schedule> schedule;
};

/// Validates and runs a planning request over `socs` (one SOC for plan
/// and frontier, one or more for sweep).  `cache` is borrowed and may be
/// null; it is flushed before returning.  A replan_from request needs a
/// cache (the baseline store lives there).
[[nodiscard]] PlanOutcome execute(const PlanRequest& request,
                                  const std::vector<soc::Soc>& socs,
                                  ResultCache* cache);

}  // namespace msoc::plan
