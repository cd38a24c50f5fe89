#include "msoc/tam/timeline.hpp"

#include <algorithm>

#include "msoc/common/error.hpp"
#include "msoc/tam/counters.hpp"

namespace msoc::tam {

Timeline::Timeline(int capacity, double max_power, soc::PowerWindow window)
    : usage_(capacity),
      watermark_(static_cast<std::size_t>(capacity) + 1, 0),
      stale_(static_cast<std::size_t>(capacity) + 1, 0) {
  if (max_power > 0.0) power_.emplace(max_power);
  if (window.active()) window_.emplace(window.cycles, window.limit);
}

void Timeline::reserve(Cycles start, Cycles duration, int width,
                       double power) {
  usage_.reserve(start, duration, width);
  if (power_.has_value()) power_->reserve(start, duration, power);
  if (window_.has_value()) window_->reserve(start, duration, power);
  // Only the watermarks inside [start, start+duration) saw their level
  // rise.  Marks ascend with width (see refresh_watermark), so they are
  // one contiguous run.
  const auto first = std::lower_bound(watermark_.begin() + 1,
                                      watermark_.end(), start);
  const auto last =
      std::lower_bound(first, watermark_.end(), start + duration);
  std::fill(stale_.begin() + (first - watermark_.begin()),
            stale_.begin() + (last - watermark_.begin()), 1);
}

Cycles Timeline::earliest_feasible(int width, double power, Cycles duration,
                                   const IntervalSet& blocked,
                                   Cycles not_before) {
  Cycles candidate = usage_.earliest_start(
      width, duration, std::max(not_before, watermark(width)), blocked);
  // Alternate the power envelopes' retry times with the wire probe to a
  // fixpoint: every retry strictly advances, and past the horizon every
  // envelope is empty.
  while (true) {
    Cycles retry = 0;
    if (power_.has_value() &&
        !power_->window_free(candidate, power, duration, &retry)) {
      check_invariant(retry > candidate, "power packer failed to advance");
    } else if (window_.has_value() &&
               !window_->window_free(candidate, power, duration, &retry)) {
      check_invariant(retry > candidate,
                      "windowed power packer failed to advance");
    } else {
      return candidate;
    }
    candidate = usage_.earliest_start(width, duration, retry, blocked);
  }
}

Cycles Timeline::refresh_watermark(std::size_t index) {
  Cycles& mark = watermark_[index];
  stale_[index] = 0;

  // Resume from the previous mark: levels before it only rose since.
  const Skyline<long long>& levels = usage_.skyline();
  const long long room = usage_.capacity() - static_cast<long long>(index);
  auto it = levels.floor(mark);
  std::uint64_t visited = 1;
  if (it != levels.end() && it->second > room) {
    // The skyline drains to zero past its last segment, so some later
    // segment admits any width <= capacity.
    for (++it; it != levels.end() && it->second > room; ++it) ++visited;
    check_invariant(it != levels.end(),
                    "TAM usage never drops below capacity");
    ++visited;
    mark = it->first;
    // A wider test needs a lower level, so its watermark is never
    // earlier.  The cached marks therefore stay ascending in width, and
    // the wider ones still below `mark` resume their walks from here.
    for (std::size_t w = index + 1;
         w < watermark_.size() && watermark_[w] < mark; ++w) {
      watermark_[w] = mark;
      stale_[w] = 1;
    }
  }
  pack_counters().events_visited.fetch_add(visited,
                                           std::memory_order_relaxed);
  return mark;
}

}  // namespace msoc::tam
