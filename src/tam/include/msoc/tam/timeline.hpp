#pragma once
// The rectangle packer's one timeline: every resource a placement
// consumes, behind a single reserve and a single admission query.
//
// A placement takes `width` TAM wires, adds its power to the
// instantaneous sum when the schedule has a peak budget, and adds it to
// every sliding window when the schedule has a sustained-power budget;
// it must also avoid the busy intervals of its shared analog wrapper.
// The timeline keeps exactly two skylines: the wire levels, and the
// power levels, written only while a budget is active.  The peak and
// window budgets are two probes over that one power skyline.  This
// class reserves into both at once and runs the one fixpoint that
// alternates the probes' retry times.  It is the only code that probes
// the skylines, and the only code that counts: it sums its probes into
// a plain PackCounterSnapshot and adds that to the process-wide totals
// once, when it is destroyed.
//
// Level probe (wires, peak budget).  level_free locates the segment
// containing the window start in O(log n) and walks only the segments
// the window crosses.  On failure the retry time is the first later
// segment whose level admits the load: levels only change at segment
// starts, so no earlier start can fit.  For integer loads every answer
// is bit-identical to the historical delta-map prefix-sum walk
// (test_profile_equivalence); for double loads the skyline's
// incremental levels differ from that walk by reassociation ulps, which
// the peak limit's budget_slack absorbs.
//
// Window probe (sustained power: every window of W cycles averages at
// most L, i.e. the load integral over any [w, w+W) stays within L*W).
// The load is piecewise constant, so the sliding integral is piecewise
// LINEAR in w, with breakpoints exactly where w or w+W crosses a
// breakpoint of the (existing + candidate) signal.  Its maximum over
// the candidate's span is therefore attained at one of O(segments
// crossed) candidate window starts, each evaluated in O(log k) against
// a prefix-integral table of the segments the span touches — windows
// wholly before or after the candidate already hold by induction and
// are never visited.  On failure the retry is the next load breakpoint,
// or one window past the drain once the breakpoints run out.
//
// Watermarks.  No window can start where the wire level alone already
// leaves fewer than `width` wires free, so every feasible start for
// `width` is at or after the first time whose level admits it — the
// width's watermark.  Reservations only ever raise levels, so within
// one Timeline (one pack, or one repair round) a watermark can only
// move later, and only when a reservation covers it: each one is cached
// per width and resumed from where it stopped, instead of every probe
// walking the saturated prefix from t = 0.  The wire probe's fixpoint
// returns the least start at or after its origin that fits wires and
// blocked windows, so moving the origin up to the watermark never
// changes the start it returns.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/units.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/counters.hpp"
#include "msoc/tam/interval_set.hpp"
#include "msoc/tam/skyline.hpp"

namespace msoc::tam {

/// True when `levels` stays within `limit` with an `amount` load added
/// over [start, start+duration).  On failure *retry_at is the first
/// later segment whose level admits `amount`.  Adds the segments walked
/// to *visited.  Wires pass their capacity as the limit; the peak power
/// budget passes budget + budget_slack(budget).  The caller pre-checks
/// amount <= limit, so the level (which drains to Load{} past the last
/// segment) eventually admits it.
template <typename Load>
[[nodiscard]] bool level_free(const Skyline<Load>& levels, Load limit,
                              Cycles start, Load amount, Cycles duration,
                              Cycles* retry_at, std::uint64_t* visited) {
  const auto at = levels.floor(start);
  const Load level = at == levels.end() ? Load{} : at->second;
  auto it = at == levels.end() ? levels.begin() : std::next(at);
  ++*visited;
  bool free = level + amount <= limit;
  for (; free && it != levels.end() && it->first < start + duration; ++it) {
    ++*visited;
    free = it->second + amount <= limit;
  }
  if (free) return true;
  // `it` is past the first segment that did not fit.
  for (; it != levels.end(); ++it) {
    ++*visited;
    if (it->second + amount <= limit) {
      *retry_at = it->first;
      return false;
    }
  }
  check_invariant(false, "level never drops below capacity");
  return false;
}

class Timeline {
 public:
  /// A `capacity`-wire timeline; `max_power` > 0 adds the peak budget,
  /// an active `window` the sliding-window budget.
  Timeline(int capacity, double max_power, soc::PowerWindow window);
  /// Adds this timeline's counts to the process-wide totals.
  ~Timeline();
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  /// True when a single test of `power` over `duration` cycles can ever
  /// satisfy the active `window` on an empty timeline.  Callers must
  /// pre-check this (like the peak budget's peak_test_power() gate) so
  /// the retry fixpoint is guaranteed to terminate.
  [[nodiscard]] static bool window_admits_alone(soc::PowerWindow window,
                                                double power,
                                                Cycles duration);

  /// Reserves `width` wires and `power` over [start, start+duration).
  /// Counts one reservation per active budget (wires always).
  void reserve(Cycles start, Cycles duration, int width, double power);

  /// Earliest start >= `not_before` whose window fits the wires, avoids
  /// every `blocked` interval and keeps both power budgets.  The caller
  /// pre-checks that the load fits an empty timeline (width <= capacity,
  /// power <= peak budget, window_admits_alone), so the fixpoint always
  /// terminates.  Each probe counts one admission check (and one retry
  /// when it fails); a window that hits a blocked interval is a check
  /// and a retry that walked no segments.
  [[nodiscard]] Cycles earliest_feasible(int width, double power,
                                         Cycles duration,
                                         const IntervalSet& blocked,
                                         Cycles not_before = 0);

  /// The first time whose wire level admits `width`: a lower bound on
  /// every start earliest_feasible can return for that width.
  [[nodiscard]] Cycles watermark(int width) {
    check_invariant(width >= 1 && width <= capacity_,
                    "watermark width outside the TAM");
    const auto index = static_cast<std::size_t>(width);
    return stale_[index] == 0 ? watermark_[index] : refresh_watermark(index);
  }

 private:
  /// Brings a stale watermark up to date.
  Cycles refresh_watermark(std::size_t index);

  /// Counts one admission check (and its retry when `free` is false).
  bool count_probe(bool free) {
    ++counts_.admission_checks;
    if (!free) ++counts_.retries;
    return free;
  }

  /// The window probe: true when every window overlapping
  /// [start, start+duration) stays within budget with a `power` load
  /// added over that span.  On failure *retry_at is a strictly later
  /// start worth probing.
  bool window_free(Cycles start, double power, Cycles duration,
                   Cycles* retry_at);

  long long capacity_;
  Skyline<long long> wires_;
  /// Written only while peak_limit_ > 0 or window_ is active.
  Skyline<double> power_;
  /// Peak budget + budget_slack; 0 = no peak budget.
  double peak_limit_ = 0.0;
  soc::PowerWindow window_;
  /// limit * window + budget_slack of that: the per-window integral cap.
  double window_cap_ = 0.0;
  Cycles drain_end_ = 0;  ///< End of the last reservation.
  PackCounterSnapshot counts_;
  /// Per width (index 1..capacity): the watermark, and whether a
  /// reservation has covered it since it was last brought up to date
  /// (one that does not cover it leaves its level, hence it, unchanged).
  std::vector<Cycles> watermark_;
  std::vector<char> stale_;
  /// The window probe's tables, kept so a probe allocates nothing: the
  /// clipped segments' breakpoint times and levels, the prefix integral
  /// of the existing load, and the candidate window starts.
  std::vector<Cycles> times_;
  std::vector<double> levels_;
  std::vector<double> prefix_;
  std::vector<Cycles> starts_;
};

}  // namespace msoc::tam
