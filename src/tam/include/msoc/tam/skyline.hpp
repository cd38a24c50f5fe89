#pragma once
// Piecewise-constant load envelope ("skyline") over the schedule
// timeline: an ordered map segment-start -> level, coalesced so no
// segment repeats its predecessor's level.  The level before the first
// segment is Load{}; the last segment's level extends to infinity and —
// because reservations are finite — is always Load{} once everything
// drains.
//
// This replaces the delta-map (time -> +/- load) the profiles used to
// keep: a delta map answers "load at t" only by summing every delta from
// the beginning (O(n) per admission probe), while the skyline answers it
// with one ordered lookup (O(log n)) and walks only the segments a
// window actually crosses.  Levels are maintained incrementally on
// insert, so for integer loads they are bit-identical to the delta-map
// prefix sums; for floating-point loads they differ by at most the usual
// reassociation ulps, which budget_slack() below absorbs.

#include <cstddef>
#include <map>

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
  using Map = std::map<Cycles, Load>;
  using const_iterator = typename Map::const_iterator;

  /// Adds `amount` of load over [start, end).  O(log n + segments the
  /// range crosses); segment boundaries are created on demand and
  /// re-coalesced at both edges.
  void add(Cycles start, Cycles end, Load amount) {
    check_invariant(start < end, "skyline segment must be non-empty");
    auto hi = boundary(end);    // keeps the pre-add level past `end`
    auto lo = boundary(start);  // copies the level reaching `start`
    for (auto it = lo; it != hi; ++it) it->second += amount;
    // Adding one amount across the whole range preserves every interior
    // level difference; only the two edges can newly equal a neighbor.
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
    auto it = level_.upper_bound(t);
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
  using iterator = typename Map::iterator;

  /// Iterator to the segment starting exactly at t, creating it (with
  /// the level already reaching t) when absent.
  iterator boundary(Cycles t) {
    auto it = level_.lower_bound(t);
    if (it != level_.end() && it->first == t) return it;
    const Load level =
        it == level_.begin() ? Load{} : std::prev(it)->second;
    return level_.emplace_hint(it, t, level);
  }

  /// Erases the segment when it no longer changes the level.
  void coalesce(iterator it) {
    if (it == level_.end()) return;
    const Load prev_level =
        it == level_.begin() ? Load{} : std::prev(it)->second;
    if (it->second == prev_level) level_.erase(it);
  }

  Map level_;
};

}  // namespace msoc::tam
