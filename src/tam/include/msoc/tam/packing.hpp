#pragma once
// Flexible-width TAM optimization via rectangle packing (after Iyengar,
// Chakrabarty & Marinissen, VTS 2002), extended for wrapped analog cores.
//
// Digital cores are flexible rectangles: any Pareto-optimal (width, time)
// point of their wrapper-design staircase.  Analog cores are rigid
// rectangles: fixed width (their wrapper's TAM interface) and fixed time.
// Analog cores sharing one wrapper must be tested serially — the packer
// keeps their rectangles disjoint in time while still allowing digital
// tests to run in the gaps.
//
// The packer is a deterministic greedy: items are placed in descending
// area order; each item picks the (width, start) pair minimizing its
// completion time over the current wire usage — and, when the SOC (or
// PackingOptions) declares a power budget, over instantaneous and
// sliding-window power too: no placement may push the power sum of
// everything running past the budget.  One tam::Timeline
// (timeline.hpp) owns those envelopes, all coalescing skylines, and
// wrapper busy windows are coalescing interval sets (interval_set.hpp),
// so every admission probe costs O(log n + segments crossed) instead of
// a full walk of the timeline, and starts at the width's watermark.
//
// schedule_soc races three placement orders, each with a narrow- and a
// wide-on-tie width preference, and keeps the shortest repaired
// schedule.  A race candidate that must reproduce an earlier one is
// skipped: an order with an already-raced placement sequence, and the
// wide pass of an order whose narrow pass never broke a tie on width
// (both passes then decide every placement alike).  Repair depends
// only on the greedy schedule and only a strictly shorter candidate
// replaces the best, so the skip never changes the result.

#include <string>
#include <vector>

#include "msoc/soc/soc.hpp"
#include "msoc/tam/schedule.hpp"
#include "msoc/wrapper/wrapper_design.hpp"

namespace msoc::tam {

/// A wrapper-sharing arrangement: one inner vector per analog wrapper,
/// listing the analog core names that share it.  Every analog core of the
/// SOC must appear exactly once.
using AnalogPartition = std::vector<std::vector<std::string>>;

/// Puts every analog core in its own wrapper.
[[nodiscard]] AnalogPartition singleton_partition(const soc::Soc& soc);

/// Puts all analog cores in one shared wrapper (the T_max scenario that
/// normalizes the paper's C_time).
[[nodiscard]] AnalogPartition all_share_partition(const soc::Soc& soc);

/// Placement orders the packer can race against each other.
enum class PlacementOrder {
  kAreaDescending,   ///< Digital and analog interleaved by area.
  kDigitalFirst,     ///< All digital cores, then analog groups.
  kAnalogFirst,      ///< All analog groups, then digital cores.
  kDeclaration,      ///< SOC declaration order (ablation baseline).
};

/// Per-core Pareto staircases precomputed at one maximum width.  The
/// staircase at any width W <= max_width is exactly the max_width table
/// filtered to points with width <= W (pareto_widths is a running-min
/// scan, so membership never depends on the cap), which lets callers
/// that pack the same SOC at many widths — plan::FrontierEngine, the
/// sweep runner — compute each core's staircase once instead of once
/// per schedule_soc call.
struct ParetoTables {
  int max_width = 0;
  /// One table per digital core, in soc.digital_cores() order.
  std::vector<std::vector<wrapper::ParetoPoint>> by_core;
};

/// Computes every digital core's staircase at `max_width`.
[[nodiscard]] ParetoTables compute_pareto_tables(const soc::Soc& soc,
                                                 int max_width);

struct PackingOptions {
  /// Instantaneous power budget for the schedule:
  ///   < 0 (default) — inherit the SOC's declared Soc::max_power;
  ///     0           — unconstrained, even if the SOC declares a budget;
  ///   > 0           — explicit budget in the SOC's power units.
  /// Under a finite budget the packer admits a placement only when the
  /// power sum of everything running stays within it, exactly as wire
  /// usage must stay within tam_width (both are LevelProfiles).
  double max_power = -1.0;
  /// Sliding-window average-power budget (WindowedPowerProfile): every
  /// window of `window_cycles` cycles must average at most
  /// `window_limit` power units.  Same resolution convention as
  /// max_power:
  ///   < 0 (default) — inherit the SOC's declared Soc::power_window;
  ///     0           — unwindowed, even if the SOC declares one;
  ///   > 0           — explicit limit; window_cycles must then be > 0.
  /// Orthogonal to the peak budget — either, both or neither may bind.
  double window_limit = -1.0;
  Cycles window_cycles = 0;
  /// Assign concrete wire ids by interval coloring (costs a sort).
  bool assign_wires = true;
  /// Race all placement orders, each with both width preferences, and
  /// keep the shortest schedule (default).  Candidates whose greedy
  /// schedule provably equals an earlier candidate's (a duplicate
  /// placement sequence, or a wide pass where width never broke a tie)
  /// are skipped; they could not win, since only a strictly shorter
  /// candidate replaces the best.  When false, only `order` is used,
  /// with the narrow preference.
  bool race_orders = true;
  PlacementOrder order = PlacementOrder::kAreaDescending;
  /// Consider every Pareto width (true) or only the widest feasible one
  /// (false; ablation baseline approximating fixed-width TAM buses).
  bool flexible_width = true;
  /// Iterative-repair rounds after packing: the makespan-critical test is
  /// ripped out and re-placed until no round improves.  0 disables
  /// (ablation baseline).
  int improvement_rounds = 64;
  /// Schedule each analog specification test as its own rectangle at the
  /// test's TAM width (true) instead of one rectangle per core at the
  /// core's width (false, the paper's Table-2 granularity).
  bool analog_per_test = false;
  /// Also race the fully-serialized analog arrangement (all wrappers
  /// treated as one serial chain) and keep it when shorter.  This pins the
  /// greedy's worst case to the all-share baseline: splitting wrappers
  /// can then never yield a longer schedule than sharing them all, which
  /// the Eq.-2 cost model's C_time <= 100 normalization relies on.
  /// Disable only for ablation studies of the bare greedy.
  bool serialized_fallback = true;
  /// Precomputed all-share schedule reused by the serialized fallback
  /// instead of repacking it — the merged arrangement is identical for
  /// every partition of one SOC, so callers evaluating many partitions
  /// (plan::CostModel) pass their baseline schedule here and save nearly
  /// half the packing work per call.  Borrowed, not owned; MUST come from
  /// schedule_soc over the all-share partition of the same SOC, width and
  /// options (tam_width and test count are sanity-checked).
  const Schedule* serialized_hint = nullptr;
  /// Precomputed Pareto staircases reused instead of calling
  /// wrapper::pareto_widths per digital core — bit-identical schedules,
  /// because the sliced tables equal the per-width ones (see
  /// ParetoTables).  Borrowed, not owned; MUST come from
  /// compute_pareto_tables over the SAME SOC.  Only the core count and
  /// max_width >= tam_width are validated — a table from a different
  /// SOC with the same digital core count is the caller's bug and
  /// produces wrong schedules undetected.
  const ParetoTables* pareto_hint = nullptr;
};

/// The power budget a pack over `soc` actually enforces for a requested
/// `budget` (PackingOptions::max_power's convention: < 0 inherits
/// Soc::max_power); 0 = unlimited.
[[nodiscard]] double effective_max_power(const soc::Soc& soc, double budget);

/// Throws the InfeasibleError schedule_soc raises before packing any
/// partition of `soc`, in this order: `tam_width` below 1, an analog
/// core needing more than `tam_width` wires, a single test hotter than
/// the effective budget `max_power` (0 = unlimited).
void require_packable(const soc::Soc& soc, int tam_width, double max_power);

/// The sliding-window budget a pack over `soc` with `options` actually
/// enforces (inherit resolved); inactive = unwindowed.  Throws
/// InfeasibleError on an explicit limit without a window length.
[[nodiscard]] soc::PowerWindow effective_power_window(
    const soc::Soc& soc, const PackingOptions& options);

/// Schedules all tests of `soc` on a `tam_width`-wire TAM.
/// `partition` groups the analog cores into shared wrappers.  Throws
/// require_packable's InfeasibleError before anything else, then one
/// for a malformed partition or a test no power window can admit.
[[nodiscard]] Schedule schedule_soc(const soc::Soc& soc, int tam_width,
                                    const AnalogPartition& partition,
                                    const PackingOptions& options = {});

/// Lower bound on digital test time at `tam_width`: every core at its
/// fastest feasible width, perfectly packed (area bound) — and no core
/// can beat its own single-test minimum.  `pareto_hint` (optional)
/// reuses precomputed staircases exactly as in PackingOptions.
[[nodiscard]] Cycles digital_lower_bound(
    const soc::Soc& soc, int tam_width,
    const ParetoTables* pareto_hint = nullptr);

/// Lower bound on analog test time under `partition`: the busiest shared
/// wrapper (tests on one wrapper are serial).
[[nodiscard]] Cycles analog_lower_bound(const soc::Soc& soc,
                                        const AnalogPartition& partition);

/// max(digital, analog) — no schedule under `partition` can beat this.
[[nodiscard]] Cycles schedule_lower_bound(const soc::Soc& soc, int tam_width,
                                          const AnalogPartition& partition);

}  // namespace msoc::tam
