#pragma once
// The rectangle packer's one timeline: every resource a placement
// consumes, behind a single reserve and a single admission query.
//
// A placement takes `width` TAM wires (a LevelProfile<long long>), adds
// its power to the instantaneous sum when the schedule has a peak budget
// (a LevelProfile<double>), and adds it to every sliding window when the
// schedule has a sustained-power budget (WindowedPowerProfile); it must
// also avoid the busy intervals of its shared analog wrapper.  This
// class owns every active envelope, reserves into all of them at once,
// and runs the one fixpoint that alternates their retry times.  It is
// the only code that probes the kernels, and the only code that counts:
// it sums its probes into a plain PackCounterSnapshot and adds that to
// the process-wide totals once, when it is destroyed.
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
#include <optional>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/units.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/counters.hpp"
#include "msoc/tam/interval_set.hpp"
#include "msoc/tam/level_profile.hpp"
#include "msoc/tam/windowed_power.hpp"

namespace msoc::tam {

class Timeline {
 public:
  /// A `capacity`-wire timeline; `max_power` > 0 adds the peak budget,
  /// an active `window` the sliding-window budget.
  Timeline(int capacity, double max_power, soc::PowerWindow window);
  /// Adds this timeline's counts to the process-wide totals.
  ~Timeline();
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  /// Reserves `width` wires and `power` over [start, start+duration) in
  /// every active envelope.
  void reserve(Cycles start, Cycles duration, int width, double power);

  /// Earliest start >= `not_before` whose window fits the wires, avoids
  /// every `blocked` interval and keeps both power budgets.  The caller
  /// pre-checks that the load fits an empty timeline (width <= capacity,
  /// power <= peak budget, WindowedPowerProfile::admits_alone), so the
  /// fixpoint always terminates.  Each probe counts one admission check
  /// (and one retry when it fails); a window that hits a blocked
  /// interval is a check and a retry that walked no segments.
  [[nodiscard]] Cycles earliest_feasible(int width, double power,
                                         Cycles duration,
                                         const IntervalSet& blocked,
                                         Cycles not_before = 0);

  /// The first time whose wire level admits `width`: a lower bound on
  /// every start earliest_feasible can return for that width.
  [[nodiscard]] Cycles watermark(int width) {
    check_invariant(width >= 1 && width <= wires_.capacity(),
                    "watermark width outside the TAM");
    const auto index = static_cast<std::size_t>(width);
    return stale_[index] == 0 ? watermark_[index] : refresh_watermark(index);
  }

 private:
  /// Brings a stale watermark up to date.
  Cycles refresh_watermark(std::size_t index);

  /// One counted admission check against `profile`.
  template <typename Profile, typename Load>
  bool probe(const Profile& profile, Cycles start, Load amount,
             Cycles duration, Cycles* retry_at) {
    ++counts_.admission_checks;
    if (profile.window_free(start, amount, duration, retry_at,
                            &counts_.events_visited)) {
      return true;
    }
    ++counts_.retries;
    return false;
  }

  LevelProfile<long long> wires_;
  std::optional<LevelProfile<double>> power_;
  std::optional<WindowedPowerProfile> window_;
  PackCounterSnapshot counts_;
  /// Per width (index 1..capacity): the watermark, and whether a
  /// reservation has covered it since it was last brought up to date
  /// (one that does not cover it leaves its level, hence it, unchanged).
  std::vector<Cycles> watermark_;
  std::vector<char> stale_;
};

}  // namespace msoc::tam
