#pragma once
// The rectangle packer's level kernel: a capacity over a coalescing
// Skyline<Load>, with one admission probe and one retry contract.  TAM
// wires are LevelProfile<long long> (a discrete pool, slack 0); the
// peak power budget is LevelProfile<double> (a continuous budget whose
// slack, budget_slack(), absorbs floating-point residue).
//
// The probe locates the segment containing the window start in
// O(log n) and walks only the segments the window crosses.  On failure
// the retry time is the first later segment whose level admits the
// load: levels only change at segment starts, so no earlier start can
// fit.  For integer loads every answer is bit-identical to the
// historical delta-map prefix-sum walk (test_profile_equivalence); for
// double loads the skyline's incremental levels differ from that walk
// by reassociation ulps, which the slack was sized to absorb.
//
// Probes do not count themselves: each adds the segments it walked to
// the caller's *visited, and tam::Timeline turns those into the
// packer's counters.

#include <cstdint>

#include "msoc/common/error.hpp"
#include "msoc/common/units.hpp"
#include "msoc/tam/skyline.hpp"

namespace msoc::tam {

template <typename Load>
class LevelProfile {
 public:
  /// A load fits while level + load <= capacity + slack.
  explicit LevelProfile(Load capacity, Load slack = Load{})
      : capacity_(capacity), slack_(slack) {}

  /// True when the level stays within capacity for an `amount` load over
  /// [start, start+duration).  On failure *retry_at is the first later
  /// segment whose level admits `amount`.  Adds the segments walked to
  /// *visited.  The caller pre-checks amount <= capacity, so the level
  /// (which drains to Load{} past the last segment) eventually admits it.
  [[nodiscard]] bool window_free(Cycles start, Load amount, Cycles duration,
                                 Cycles* retry_at,
                                 std::uint64_t* visited) const {
    const const_iterator at = levels_.floor(start);
    const Load level = at == levels_.end() ? Load{} : at->second;
    const_iterator it = at == levels_.end() ? levels_.begin() : std::next(at);
    ++*visited;
    if (!fits(level, amount)) {
      *retry_at = next_drop(it, amount, visited);
      return false;
    }
    for (; it != levels_.end() && it->first < start + duration; ++it) {
      ++*visited;
      if (!fits(it->second, amount)) {
        *retry_at = next_drop(std::next(it), amount, visited);
        return false;
      }
    }
    return true;
  }

  void reserve(Cycles start, Cycles duration, Load amount) {
    levels_.add(start, start + duration, amount);
  }

  [[nodiscard]] Load capacity() const noexcept { return capacity_; }

  /// The underlying envelope (the Timeline's watermarks, tests and
  /// benches introspect it).
  [[nodiscard]] const Skyline<Load>& skyline() const noexcept {
    return levels_;
  }

 private:
  using const_iterator = typename Skyline<Load>::const_iterator;

  [[nodiscard]] bool fits(Load level, Load amount) const {
    return level + amount <= capacity_ + slack_;
  }

  /// First segment at/after `it` whose level admits `amount`.
  Cycles next_drop(const_iterator it, Load amount,
                   std::uint64_t* visited) const {
    for (; it != levels_.end(); ++it) {
      ++*visited;
      if (fits(it->second, amount)) return it->first;
    }
    check_invariant(false, "level never drops below capacity");
    return 0;
  }

  Load capacity_;
  Load slack_;
  Skyline<Load> levels_;
};

}  // namespace msoc::tam
