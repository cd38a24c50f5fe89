#pragma once
// Piecewise-constant load envelope ("skyline") over the schedule
// timeline: a vector of (segment start, level) pairs sorted by start,
// coalesced so no segment repeats its predecessor's level.  The level
// before the first segment is Load{}; the last segment's level extends
// to infinity and — because reservations are finite — is always Load{}
// once everything drains.
//
// Costs: a lookup is one binary search (O(log n)); `add` is O(log n)
// plus a memmove of the tail for each boundary it creates or erases
// (O(n) worst case); walks over a window read contiguous memory.  The
// flat layout beats a node-based map here because a Timeline holds at
// most 2 × tests segments and the packer's probes walk segments far
// more often than reservations insert them — even at 10K segments the
// contiguous walks outweigh the memmoves.
//
// Iterators are vector iterators: `add` may insert, erase or
// reallocate, so no caller holds one across an `add`.
//
// This replaced the delta-map (time -> +/- load) the profiles used to
// keep: a delta map answers "load at t" only by summing every delta from
// the beginning (O(n) per admission probe), while the skyline answers it
// with one ordered lookup and walks only the segments a window actually
// crosses.  Levels are maintained incrementally on insert, so for
// integer loads they are bit-identical to the delta-map prefix sums; for
// floating-point loads they differ by at most the usual reassociation
// ulps, which budget_slack() below absorbs.

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/units.hpp"

namespace msoc::tam {

/// Tolerance a floating-point `budget` carries: accumulating loads
/// leaves residue on the order of 1 ulp per event, and this slack keeps
/// a fully drained envelope from rejecting a load that exactly equals
/// the budget.  The packer's kernels and check_schedule share it.
[[nodiscard]] inline double budget_slack(double budget) noexcept {
  return 1e-9 * (budget < 1.0 ? 1.0 : budget);
}

template <typename Load>
class Skyline {
 public:
  using Segment = std::pair<Cycles, Load>;
  using const_iterator = typename std::vector<Segment>::const_iterator;

  /// Adds `amount` of load over [start, end).  O(log n + segments the
  /// range crosses) plus the tail shifts of at most two inserted and
  /// two erased boundaries, which are re-coalesced at both edges.
  void add(Cycles start, Cycles end, Load amount) {
    check_invariant(start < end, "skyline segment must be non-empty");
    std::size_t hi = boundary(end);  // keeps the pre-add level past `end`
    const std::size_t size = level_.size();
    const std::size_t lo = boundary(start);  // copies the level at `start`
    if (level_.size() != size) ++hi;  // start < end: inserted before hi
    for (std::size_t i = lo; i != hi; ++i) level_[i].second += amount;
    // Adding one amount across the whole range preserves every interior
    // level difference; only the two edges can newly equal a neighbor.
    // hi first: erasing it leaves lo (< hi) in place.
    coalesce(hi);
    coalesce(lo);
  }

  /// Level at time t: the segment containing t, or Load{} before the
  /// first segment.  O(log n).
  [[nodiscard]] Load level_at(Cycles t) const {
    const const_iterator it = floor(t);
    return it == level_.end() ? Load{} : it->second;
  }

  /// Last segment starting at or before t; end() when t precedes every
  /// segment (implicit Load{} level).
  [[nodiscard]] const_iterator floor(Cycles t) const {
    const auto it = std::upper_bound(
        level_.begin(), level_.end(), t,
        [](Cycles key, const Segment& s) { return key < s.first; });
    if (it == level_.begin()) return level_.end();
    return std::prev(it);
  }

  [[nodiscard]] bool empty() const noexcept { return level_.empty(); }
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return level_.size();
  }
  [[nodiscard]] const_iterator begin() const noexcept {
    return level_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return level_.end(); }

  /// Highest level over the whole timeline (Load{} when empty).
  [[nodiscard]] Load peak() const {
    Load peak{};
    for (const auto& [start, level] : level_) {
      if (level > peak) peak = level;
    }
    return peak;
  }

 private:
  /// Index of the segment starting exactly at t, inserting it (with the
  /// level already reaching t) when absent.
  std::size_t boundary(Cycles t) {
    const auto it = std::lower_bound(
        level_.begin(), level_.end(), t,
        [](const Segment& s, Cycles key) { return s.first < key; });
    const auto i = static_cast<std::size_t>(it - level_.begin());
    if (it != level_.end() && it->first == t) return i;
    const Load level = i == 0 ? Load{} : level_[i - 1].second;
    level_.insert(it, Segment{t, level});
    return i;
  }

  /// Erases the segment at index i when it no longer changes the level.
  void coalesce(std::size_t i) {
    if (i == level_.size()) return;
    const Load prev_level = i == 0 ? Load{} : level_[i - 1].second;
    if (level_[i].second == prev_level) {
      level_.erase(level_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  std::vector<Segment> level_;
};

}  // namespace msoc::tam
