// Property tests pinning the skyline level probe (tam::level_free, for
// wires and peak power) to the historical delta-map implementations it
// replaced, and the packer's Timeline to the plain probe-from-origin
// alternation over those references.  The reference classes below are
// verbatim ports of the pre-refactor code (prefix-sum walks over a +/-
// delta map, fixpoint advance over an unsorted blocked vector, and the
// standalone sliding-window profile that kept its own power skyline);
// the bit-identity claim is that the coalescing structures return the
// SAME fit/no-fit answer and the SAME retry time on every query — which
// is what these tests check on randomized workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/rng.hpp"
#include "msoc/tam/interval_set.hpp"
#include "msoc/tam/skyline.hpp"
#include "msoc/tam/timeline.hpp"

namespace msoc::tam {
namespace {

using Interval = std::pair<Cycles, Cycles>;

/// The pre-refactor wire profile: sorted delta map, O(n) prefix-sum
/// admission walk, fixpoint over the raw blocked vector.
class ReferenceUsageProfile {
 public:
  explicit ReferenceUsageProfile(int capacity) : capacity_(capacity) {}

  [[nodiscard]] bool window_free(Cycles start, int width, Cycles duration,
                                 const std::vector<Interval>& blocked,
                                 Cycles* retry_at) const {
    Cycles clear = start;
    bool conflicted = false;
    for (bool moved = true; moved;) {
      moved = false;
      for (const auto& [b, e] : blocked) {
        if (clear < e && b < clear + duration) {
          clear = e;
          conflicted = true;
          moved = true;
        }
      }
    }
    if (conflicted) {
      *retry_at = clear;
      return false;
    }
    long long usage = 0;
    auto it = delta_.begin();
    for (; it != delta_.end() && it->first <= start; ++it) {
      usage += it->second;
    }
    if (usage + width > capacity_) {
      *retry_at = next_drop(it, usage, width);
      return false;
    }
    for (; it != delta_.end() && it->first < start + duration; ++it) {
      usage += it->second;
      if (usage + width > capacity_) {
        *retry_at = next_drop(std::next(it), usage, width);
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] Cycles earliest_start(
      int width, Cycles duration, Cycles not_before,
      const std::vector<Interval>& blocked) const {
    Cycles candidate = not_before;
    while (true) {
      Cycles retry = 0;
      if (window_free(candidate, width, duration, blocked, &retry)) {
        return candidate;
      }
      check_invariant(retry > candidate, "packer failed to advance");
      candidate = retry;
    }
  }

  void reserve(Cycles start, Cycles duration, int width) {
    delta_[start] += width;
    delta_[start + duration] -= width;
  }

  /// First time whose level admits `width`, walking from t = 0.
  [[nodiscard]] Cycles first_admitting(int width) const {
    if (delta_.empty() || delta_.begin()->first > 0) return 0;
    long long usage = 0;
    for (const auto& [time, delta] : delta_) {
      usage += delta;
      if (usage + width <= capacity_) return time;
    }
    ADD_FAILURE() << "delta map never drains";
    return 0;
  }

 private:
  Cycles next_drop(std::map<Cycles, long long>::const_iterator it,
                   long long usage, int width) const {
    for (; it != delta_.end(); ++it) {
      usage += it->second;
      if (usage + width <= capacity_) return it->first;
    }
    check_invariant(false, "TAM usage never drops below capacity");
    return 0;
  }

  int capacity_;
  std::map<Cycles, long long> delta_;
};

/// The pre-refactor peak power profile: same walk with double loads.
class ReferencePowerProfile {
 public:
  explicit ReferencePowerProfile(double budget)
      : budget_(budget), slack_(1e-9 * (budget < 1.0 ? 1.0 : budget)) {}

  [[nodiscard]] bool window_free(Cycles start, double power, Cycles duration,
                                 Cycles* retry_at) const {
    double usage = 0.0;
    auto it = delta_.begin();
    for (; it != delta_.end() && it->first <= start; ++it) {
      usage += it->second;
    }
    if (!fits(usage, power)) {
      *retry_at = next_drop(it, usage, power);
      return false;
    }
    for (; it != delta_.end() && it->first < start + duration; ++it) {
      usage += it->second;
      if (!fits(usage, power)) {
        *retry_at = next_drop(std::next(it), usage, power);
        return false;
      }
    }
    return true;
  }

  void reserve(Cycles start, Cycles duration, double power) {
    delta_[start] += power;
    delta_[start + duration] -= power;
  }

 private:
  [[nodiscard]] bool fits(double usage, double power) const {
    return usage + power <= budget_ + slack_;
  }

  Cycles next_drop(std::map<Cycles, double>::const_iterator it, double usage,
                   double power) const {
    for (; it != delta_.end(); ++it) {
      usage += it->second;
      if (fits(usage, power)) return it->first;
    }
    check_invariant(false, "power usage never drops below the budget");
    return 0;
  }

  double budget_;
  double slack_;
  std::map<Cycles, double> delta_;
};

/// The pre-refactor sliding-window profile, verbatim: its own power
/// skyline, a prefix-integral table built per probe, and the
/// next-breakpoint / past-the-drain retry.
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

TEST(ProfileEquivalence, WireLevelsMatchDeltaMapOnRandomWorkloads) {
  Rng rng(20260808);
  for (int round = 0; round < 25; ++round) {
    const int capacity = rng.uniform_int(8, 32);
    Skyline<long long> skyline;
    const long long limit = capacity;
    ReferenceUsageProfile reference(capacity);

    // Interleave reservations and probes so the profiles are compared
    // in many intermediate states, not just the final one.
    for (int op = 0; op < 120; ++op) {
      if (rng.uniform_int(0, 2) == 0) {
        const Cycles start = rng.uniform_u64(0, 500);
        const Cycles duration = rng.uniform_u64(1, 80);
        const int width = rng.uniform_int(1, capacity);
        skyline.add(start, start + duration, width);
        reference.reserve(start, duration, width);
        continue;
      }
      const Cycles start = rng.uniform_u64(0, 600);
      const Cycles duration = rng.uniform_u64(1, 80);
      const int width = rng.uniform_int(1, capacity);
      Cycles new_retry = 0;
      Cycles old_retry = 0;
      std::uint64_t visited = 0;
      const bool new_free = level_free(skyline, limit, start,
                                       static_cast<long long>(width),
                                       duration, &new_retry, &visited);
      const bool old_free =
          reference.window_free(start, width, duration, {}, &old_retry);
      ASSERT_EQ(new_free, old_free)
          << "round=" << round << " start=" << start << " w=" << width
          << " d=" << duration;
      if (!new_free) {
        ASSERT_EQ(new_retry, old_retry)
            << "round=" << round << " start=" << start << " w=" << width
            << " d=" << duration;
      }
    }
  }
}

TEST(ProfileEquivalence, BlockedWindowsMatchTheHistoricalFixpoint) {
  Rng rng(31337);
  for (int round = 0; round < 25; ++round) {
    const int capacity = rng.uniform_int(4, 16);
    Skyline<long long> skyline;
    const long long limit = capacity;
    Timeline timeline(capacity, 0.0, {});
    ReferenceUsageProfile reference(capacity);
    for (int i = 0; i < 15; ++i) {
      const Cycles start = rng.uniform_u64(0, 300);
      const Cycles duration = rng.uniform_u64(1, 60);
      const int width = rng.uniform_int(1, capacity);
      skyline.add(start, start + duration, width);
      timeline.reserve(start, duration, width, 0.0);
      reference.reserve(start, duration, width);
    }
    // Blocked intervals arrive unsorted and overlapping, exactly as the
    // analog serialization loop produces them.
    std::vector<Interval> raw;
    IntervalSet merged;
    const int n = rng.uniform_int(0, 12);
    for (int i = 0; i < n; ++i) {
      const Cycles start = rng.uniform_u64(0, 400);
      const Cycles len = rng.uniform_u64(1, 70);
      raw.emplace_back(start, start + len);
      merged.insert(start, start + len);
    }
    for (int probe = 0; probe < 60; ++probe) {
      const Cycles start = rng.uniform_u64(0, 500);
      const Cycles duration = rng.uniform_u64(1, 90);
      const int width = rng.uniform_int(1, capacity);
      // The Timeline's admission step: the blocked union's first fit,
      // then the wire levels.
      Cycles new_retry = merged.first_fit(start, duration);
      Cycles old_retry = 0;
      std::uint64_t visited = 0;
      const bool new_free =
          new_retry == start &&
          level_free(skyline, limit, start, static_cast<long long>(width),
                     duration, &new_retry, &visited);
      const bool old_free =
          reference.window_free(start, width, duration, raw, &old_retry);
      ASSERT_EQ(new_free, old_free)
          << "round=" << round << " start=" << start << " d=" << duration;
      if (!new_free) {
        ASSERT_EQ(new_retry, old_retry);
      }
      ASSERT_EQ(timeline.earliest_feasible(width, 0.0, duration, merged,
                                           start),
                reference.earliest_start(width, duration, start, raw));
    }
  }
}

TEST(ProfileEquivalence, PowerLevelsMatchDeltaMapOnDyadicLoads) {
  // Loads that are multiples of 0.25 accumulate exactly in double, so
  // the skyline and the prefix-sum walk agree bit-for-bit — decisions
  // AND retry times.
  Rng rng(555);
  for (int round = 0; round < 25; ++round) {
    const double budget = 0.25 * rng.uniform_int(8, 64);
    Skyline<double> skyline;
    const double limit = budget + budget_slack(budget);
    ReferencePowerProfile reference(budget);
    for (int op = 0; op < 120; ++op) {
      const double power = 0.25 * rng.uniform_int(1, 32);
      if (rng.uniform_int(0, 2) == 0 && power <= budget) {
        const Cycles start = rng.uniform_u64(0, 500);
        const Cycles duration = rng.uniform_u64(1, 80);
        skyline.add(start, start + duration, power);
        reference.reserve(start, duration, power);
        continue;
      }
      if (power > budget) continue;
      const Cycles start = rng.uniform_u64(0, 600);
      const Cycles duration = rng.uniform_u64(1, 80);
      Cycles new_retry = 0;
      Cycles old_retry = 0;
      std::uint64_t visited = 0;
      const bool new_free = level_free(skyline, limit, start, power,
                                       duration, &new_retry, &visited);
      const bool old_free =
          reference.window_free(start, power, duration, &old_retry);
      ASSERT_EQ(new_free, old_free)
          << "round=" << round << " start=" << start << " p=" << power;
      if (!new_free) {
        ASSERT_EQ(new_retry, old_retry);
      }
    }
  }
}

TEST(ProfileEquivalence, PowerLevelsMatchDeltaMapOnArbitraryLoads) {
  // Arbitrary doubles: reassociation can shift levels by ulps, but the
  // slack absorbs that on both sides, so with a fixed seed the answers
  // still agree (random loads never land within an ulp of the budget).
  Rng rng(777);
  for (int round = 0; round < 15; ++round) {
    const double budget = rng.uniform(5.0, 50.0);
    Skyline<double> skyline;
    const double limit = budget + budget_slack(budget);
    ReferencePowerProfile reference(budget);
    for (int op = 0; op < 100; ++op) {
      const double power = rng.uniform(0.1, budget);
      if (rng.uniform_int(0, 2) == 0) {
        const Cycles start = rng.uniform_u64(0, 400);
        const Cycles duration = rng.uniform_u64(1, 60);
        skyline.add(start, start + duration, power);
        reference.reserve(start, duration, power);
        continue;
      }
      const Cycles start = rng.uniform_u64(0, 500);
      const Cycles duration = rng.uniform_u64(1, 60);
      Cycles new_retry = 0;
      Cycles old_retry = 0;
      std::uint64_t visited = 0;
      const bool new_free = level_free(skyline, limit, start, power,
                                       duration, &new_retry, &visited);
      const bool old_free =
          reference.window_free(start, power, duration, &old_retry);
      ASSERT_EQ(new_free, old_free)
          << "round=" << round << " start=" << start << " p=" << power;
      if (!new_free) {
        ASSERT_EQ(new_retry, old_retry);
      }
    }
  }
}

/// The packer's admission query before Timeline: the delta-map
/// references updated in lockstep, probed from `not_before` (no
/// watermark), their retry times alternated by hand to a fixpoint.
struct ReferenceTimeline {
  ReferenceUsageProfile usage;
  std::optional<ReferencePowerProfile> power;
  std::optional<WindowedPowerProfile> window;

  ReferenceTimeline(int capacity, double max_power, soc::PowerWindow w)
      : usage(capacity) {
    if (max_power > 0.0) power.emplace(max_power);
    if (w.active()) window.emplace(w.cycles, w.limit);
  }

  void reserve(Cycles start, Cycles duration, int width, double load) {
    usage.reserve(start, duration, width);
    if (power) power->reserve(start, duration, load);
    if (window) window->reserve(start, duration, load);
  }

  [[nodiscard]] Cycles earliest_feasible(
      int width, double load, Cycles duration,
      const std::vector<Interval>& blocked, Cycles not_before) const {
    Cycles candidate =
        usage.earliest_start(width, duration, not_before, blocked);
    while (true) {
      Cycles retry = 0;
      std::uint64_t visited = 0;
      if (power && !power->window_free(candidate, load, duration, &retry)) {
        candidate = usage.earliest_start(width, duration, retry, blocked);
        continue;
      }
      if (window && !window->window_free(candidate, load, duration, &retry,
                                         &visited)) {
        candidate = usage.earliest_start(width, duration, retry, blocked);
        continue;
      }
      return candidate;
    }
  }
};

TEST(ProfileEquivalence, TimelineMatchesTheUnwatermarkedAlternation) {
  // Interleaved reserve/probe sequences under every combination of
  // peak and windowed budgets — neither, peak only, window only, and
  // both at once, where the two budgets probe the Timeline's one power
  // skyline while the reference keeps one envelope each — with blocked
  // sets and non-zero origins.
  // Most reservations land where the probe put them (as in the
  // packer); some land anywhere, overloading the envelopes so the
  // retry paths of every profile get exercised.
  Rng rng(20261017);
  for (int round = 0; round < 48; ++round) {
    const int capacity = rng.uniform_int(4, 24);
    const bool peak = round % 2 == 1;
    const bool windowed = round % 4 >= 2;
    const double max_power = peak ? 0.5 * rng.uniform_int(20, 80) : 0.0;
    const soc::PowerWindow power_window =
        windowed ? soc::PowerWindow{rng.uniform_u64(10, 120),
                                    0.5 * rng.uniform_int(10, 60)}
                 : soc::PowerWindow{};
    Timeline timeline(capacity, max_power, power_window);
    ReferenceTimeline reference(capacity, max_power, power_window);

    for (int op = 0; op < 150; ++op) {
      const int width = rng.uniform_int(1, capacity);
      const Cycles duration = rng.uniform_u64(1, 60);
      double load = 0.5 * rng.uniform_int(0, 40);
      if (peak) load = std::min(load, max_power);
      while (windowed) {
        const bool alone =
            Timeline::window_admits_alone(power_window, load, duration);
        ASSERT_EQ(alone, reference.window->admits_alone(load, duration));
        if (alone) break;
        load /= 2.0;
      }
      if (rng.uniform_int(0, 5) == 0) {
        const Cycles start = rng.uniform_u64(0, 400);
        timeline.reserve(start, duration, width, load);
        reference.reserve(start, duration, width, load);
        continue;
      }
      IntervalSet blocked;
      std::vector<Interval> raw;
      const int n = rng.uniform_int(0, 3) == 0 ? rng.uniform_int(1, 6) : 0;
      for (int i = 0; i < n; ++i) {
        const Cycles b = rng.uniform_u64(0, 500);
        const Cycles e = b + rng.uniform_u64(1, 80);
        blocked.insert(b, e);
        raw.emplace_back(b, e);
      }
      const Cycles not_before =
          rng.uniform_int(0, 1) == 0 ? 0 : rng.uniform_u64(0, 500);
      const Cycles mark = timeline.watermark(width);
      ASSERT_EQ(mark, reference.usage.first_admitting(width))
          << "round=" << round << " op=" << op << " w=" << width;
      const Cycles got = timeline.earliest_feasible(width, load, duration,
                                                    blocked, not_before);
      const Cycles want = reference.earliest_feasible(width, load, duration,
                                                      raw, not_before);
      ASSERT_EQ(got, want) << "round=" << round << " op=" << op
                           << " w=" << width << " d=" << duration
                           << " p=" << load << " from=" << not_before;
      ASSERT_GE(got, mark);
      if (rng.uniform_int(0, 1) == 0) {
        timeline.reserve(got, duration, width, load);
        reference.reserve(got, duration, width, load);
      }
    }
  }
}

}  // namespace
}  // namespace msoc::tam
