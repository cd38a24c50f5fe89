#pragma once
// Sliding-window average-power profile for the rectangle packer: the
// sustained-power companion to the instantaneous peak budget (a
// LevelProfile<double>, see level_profile.hpp).  The
// constraint is thermal — every window of W cycles must average at most
// L power units, i.e. the load integral over any [w, w+W) may not
// exceed L*W.
//
// The admission check exploits the load being piecewise constant: the
// sliding integral I(w) = integral over [w, w+W) is piecewise LINEAR in
// w, with breakpoints exactly where w or w+W crosses a breakpoint of
// the (existing + candidate) signal.  Its maximum over the candidate's
// span is therefore attained at one of O(segments crossed) candidate
// window starts, each evaluated in O(log k) against a prefix-integral
// table built from the segments the span actually touches — windows
// wholly before or after the candidate are already satisfied by the
// profile's invariant and are never visited.
//
// Same retry-time contract as LevelProfile: on failure report a
// strictly later start worth probing (the next load breakpoint, or one
// window past the drain once the timeline is clear), so the packer's
// fixpoint always advances.  Like LevelProfile it does not count
// itself: the probe adds the segments it walked to the caller's
// *visited.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/units.hpp"
#include "msoc/tam/skyline.hpp"

namespace msoc::tam {

class WindowedPowerProfile {
 public:
  /// `window` cycles, `limit` average power (both > 0; an unwindowed
  /// schedule never builds a WindowedPowerProfile).
  WindowedPowerProfile(Cycles window, double limit)
      : window_(window),
        limit_(limit),
        budget_(limit * static_cast<double>(window)),
        // On the integral scale: the prefix sums accumulate ~1 ulp of
        // residue per segment.
        slack_(budget_slack(budget_)) {
    check_invariant(window > 0 && limit > 0.0,
                    "power window needs a positive length and limit");
  }

  /// True when a single test of `power` over `duration` cycles can ever
  /// satisfy the window on an empty timeline.  Callers must pre-check
  /// this (like the peak budget's peak_test_power() gate) so the retry
  /// fixpoint is guaranteed to terminate.
  [[nodiscard]] bool admits_alone(double power, Cycles duration) const {
    return power * static_cast<double>(std::min(duration, window_)) <=
           budget_ + slack_;
  }

  /// True when every window overlapping [start, start+duration) stays
  /// within budget with a `power` load added over that span.  On
  /// failure *retry_at is a strictly later start worth probing.  Adds
  /// the segments walked to *visited.
  [[nodiscard]] bool window_free(Cycles start, double power, Cycles duration,
                                 Cycles* retry_at,
                                 std::uint64_t* visited) const {
    const Cycles lo = start >= window_ ? start - window_ : 0;
    const Cycles end = start + duration;  // exclusive window-start bound
    const Cycles span_end = end + window_;

    // Clipped segment table over [lo, span_end): breakpoint times,
    // levels, and the prefix integral of the EXISTING load from lo.
    std::vector<Cycles> times;
    std::vector<double> levels;
    std::vector<double> prefix;
    const_iterator at = load_.floor(lo);
    times.push_back(lo);
    levels.push_back(at == load_.end() ? 0.0 : at->second);
    prefix.push_back(0.0);
    ++*visited;
    const_iterator it = at == load_.end() ? load_.begin() : std::next(at);
    for (; it != load_.end() && it->first < span_end; ++it) {
      ++*visited;
      prefix.push_back(prefix.back() +
                       levels.back() *
                           static_cast<double>(it->first - times.back()));
      times.push_back(it->first);
      levels.push_back(it->second);
    }
    // Existing-load integral from lo to x (x inside the clipped span).
    const auto integral_to = [&](Cycles x) {
      const auto seg = std::upper_bound(times.begin(), times.end(), x);
      const std::size_t i =
          static_cast<std::size_t>(seg - times.begin()) - 1;
      return prefix[i] + levels[i] * static_cast<double>(x - times[i]);
    };

    // Candidate window starts: every point where the sliding integral
    // can kink — each breakpoint of the combined signal, as a window
    // start and as a window end — clamped into [lo, end).
    std::vector<Cycles> starts;
    starts.reserve(2 * (times.size() + 2) + 1);
    const auto push = [&](Cycles w) {
      if (w >= lo && w < end) starts.push_back(w);
    };
    push(lo);
    const auto push_edges = [&](Cycles t) {
      push(t);
      if (t >= window_) push(t - window_);
    };
    for (const Cycles t : times) push_edges(t);
    push_edges(start);
    push_edges(end);
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()), starts.end());

    for (const Cycles w : starts) {
      const Cycles w_end = w + window_;
      const double existing = integral_to(w_end) - integral_to(w);
      const Cycles overlap_lo = std::max(w, start);
      const Cycles overlap_hi = std::min(w_end, end);
      const double added =
          overlap_hi > overlap_lo
              ? power * static_cast<double>(overlap_hi - overlap_lo)
              : 0.0;
      if (existing + added > budget_ + slack_) {
        *retry_at = next_retry(start, visited);
        return false;
      }
    }
    return true;
  }

  void reserve(Cycles start, Cycles duration, double power) {
    load_.add(start, start + duration, power);
    drain_end_ = std::max(drain_end_, start + duration);
  }

  [[nodiscard]] Cycles window() const noexcept { return window_; }
  [[nodiscard]] double limit() const noexcept { return limit_; }

  /// The underlying envelope (tests and benches introspect it).
  [[nodiscard]] const Skyline<double>& skyline() const noexcept {
    return load_;
  }

 private:
  using const_iterator = Skyline<double>::const_iterator;

  /// Strictly-later retry start: the next load breakpoint after
  /// `start`, or — once past every breakpoint — one full window past
  /// the drain, where no window mixes the candidate with old load and
  /// admits_alone() (pre-checked by the packer) guarantees admission.
  Cycles next_retry(Cycles start, std::uint64_t* visited) const {
    const_iterator at = load_.floor(start);
    const_iterator it = at == load_.end() ? load_.begin() : std::next(at);
    if (it != load_.end()) {
      ++*visited;
      return it->first;
    }
    const Cycles clear = drain_end_ + window_;
    check_invariant(clear > start,
                    "windowed power budget never admits the test");
    return clear;
  }

  Cycles window_;
  double limit_;
  double budget_;  ///< limit * window: the per-window integral cap.
  double slack_;
  Cycles drain_end_ = 0;  ///< End of the last reservation.
  Skyline<double> load_;
};

}  // namespace msoc::tam
