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
// Packer::schedule races three placement orders, each with a narrow-
// and a wide-on-tie width preference, and keeps the shortest repaired
// schedule.  A race candidate that must reproduce an earlier one is
// skipped: an order with an already-raced placement sequence, and the
// wide pass of an order whose narrow pass never broke a tie on width
// (both passes then decide every placement alike).  Repair depends
// only on the greedy schedule and only a strictly shorter candidate
// replaces the best, so the skip never changes the result.

#include <mutex>
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
/// sweep runner — compute each core's staircase once and lend it to
/// the Packer of every width.
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
};

/// The power budget a pack over `soc` actually enforces for a requested
/// `budget` (PackingOptions::max_power's convention: < 0 inherits
/// Soc::max_power); 0 = unlimited.
[[nodiscard]] double effective_max_power(const soc::Soc& soc, double budget);

/// The sliding-window budget a pack over `soc` with `options` actually
/// enforces (inherit resolved); inactive = unwindowed.  Throws
/// InfeasibleError on an explicit limit without a window length.
[[nodiscard]] soc::PowerWindow effective_power_window(
    const soc::Soc& soc, const PackingOptions& options);

namespace detail {
struct DigitalItem;
struct AnalogRect;
}  // namespace detail

/// Packs one SOC on a `tam_width`-wire TAM under one set of options,
/// for any number of analog partitions.  It owns what those packs
/// share: the staircases sliced to the width, the analog rectangles,
/// the makespan lower bound, and the all-share schedule (T_max and the
/// serialized fallback), packed at most once.  The SOC is borrowed.
/// schedule() and all_share() are safe to call concurrently.
class Packer {
 public:
  /// Resolves `options` against `soc` and slices the staircases from
  /// `tables` (read only here; must come from compute_pareto_tables
  /// over this SOC) or computes them.  Throws InfeasibleError in this
  /// order: `tam_width` below 1, an analog core needing more than
  /// `tam_width` wires, a test hotter than the peak budget,
  /// effective_power_window's, `tables` not covering this SOC at
  /// `tam_width`, and a test no power window admits even alone.
  Packer(const soc::Soc& soc, int tam_width,
         const PackingOptions& options = {},
         const ParetoTables* tables = nullptr);
  ~Packer();

  Packer(const Packer&) = delete;
  Packer& operator=(const Packer&) = delete;

  /// Schedules every test, `partition` grouping the analog cores into
  /// shared wrappers.  Throws InfeasibleError unless it names each
  /// analog core exactly once.
  [[nodiscard]] Schedule schedule(const AnalogPartition& partition) const;

  /// schedule(all_share_partition(soc)), packed on the first call.
  [[nodiscard]] const Schedule& all_share() const;

  /// makespan_lower_bound at this width and resolved peak budget.
  [[nodiscard]] Cycles makespan_lower_bound() const noexcept {
    return lower_bound_;
  }

 private:
  const soc::Soc& soc_;
  int tam_width_;
  PackingOptions options_;
  double max_power_;         ///< Resolved; 0 = unlimited.
  soc::PowerWindow window_;  ///< Resolved; inactive = unwindowed.
  std::vector<detail::DigitalItem> digital_;  ///< Per digital core.
  /// Per analog core, at the options' granularity.
  std::vector<std::vector<detail::AnalogRect>> analog_;
  Cycles lower_bound_ = 0;
  mutable std::once_flag all_share_once_;
  mutable Schedule all_share_;
};

/// Packer(soc, tam_width, options).schedule(partition).
[[nodiscard]] Schedule schedule_soc(const soc::Soc& soc, int tam_width,
                                    const AnalogPartition& partition,
                                    const PackingOptions& options = {});

/// Lower bound on the makespan of every schedule_soc result over `soc`
/// at `tam_width` under the peak budget `max_power` (0 = unlimited;
/// negative inherits Soc::max_power), whatever the analog partition and
/// granularity.  Throws the Packer constructor's InfeasibleError.  The
/// largest of:
///   * the area bound: each digital core at its most wire-efficient
///     staircase point plus every analog test's width x cycles, spread
///     over tam_width wires (a whole-core analog rectangle is never
///     smaller than its tests, so this holds at both granularities);
///   * the longest digital test at its fastest feasible width;
///   * under a positive budget, the energy bound: every test's power x
///     its shortest feasible time, over the most power the packer ever
///     admits at once (budget + budget_slack), rounded down.
/// analog_lower_bound is the per-partition term.
[[nodiscard]] Cycles makespan_lower_bound(const soc::Soc& soc, int tam_width,
                                          double max_power = 0.0);

/// Lower bound on analog test time under `partition`: the busiest shared
/// wrapper (tests on one wrapper are serial).
[[nodiscard]] Cycles analog_lower_bound(const soc::Soc& soc,
                                        const AnalogPartition& partition);

/// max(makespan LB without a power budget, analog LB) — no schedule
/// under `partition`, at any budget, can beat this.
[[nodiscard]] Cycles schedule_lower_bound(const soc::Soc& soc, int tam_width,
                                          const AnalogPartition& partition);

}  // namespace msoc::tam
