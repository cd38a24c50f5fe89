#include "msoc/tam/timeline.hpp"

#include <algorithm>

#include "msoc/common/error.hpp"

namespace msoc::tam {

Timeline::Timeline(int capacity, double max_power, soc::PowerWindow window)
    : wires_(capacity),
      watermark_(static_cast<std::size_t>(capacity) + 1, 0),
      stale_(static_cast<std::size_t>(capacity) + 1, 0) {
  if (max_power > 0.0) power_.emplace(max_power, budget_slack(max_power));
  if (window.active()) window_.emplace(window.cycles, window.limit);
}

Timeline::~Timeline() { add_pack_counters(counts_); }

void Timeline::reserve(Cycles start, Cycles duration, int width,
                       double power) {
  wires_.reserve(start, duration, width);
  if (power_.has_value()) power_->reserve(start, duration, power);
  if (window_.has_value()) window_->reserve(start, duration, power);
  // One reservation per active envelope.
  counts_.reservations +=
      1 + (power_.has_value() ? 1 : 0) + (window_.has_value() ? 1 : 0);
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
  // Probe the blocked windows, the wires and each power envelope in
  // turn; the first that fails supplies the next candidate.  Every
  // retry strictly advances, and past the horizon every envelope is
  // empty, so the fixpoint terminates.
  Cycles candidate = std::max(not_before, watermark(width));
  while (true) {
    Cycles retry = blocked.first_fit(candidate, duration);
    if (retry != candidate) {
      ++counts_.admission_checks;
      ++counts_.retries;
    } else if (probe(wires_, candidate, static_cast<long long>(width),
                     duration, &retry) &&
               (!power_.has_value() ||
                probe(*power_, candidate, power, duration, &retry)) &&
               (!window_.has_value() ||
                probe(*window_, candidate, power, duration, &retry))) {
      return candidate;
    }
    check_invariant(retry > candidate, "packer failed to advance");
    candidate = retry;
  }
}

Cycles Timeline::refresh_watermark(std::size_t index) {
  Cycles& mark = watermark_[index];
  stale_[index] = 0;

  // Resume from the previous mark: levels before it only rose since.
  const Skyline<long long>& levels = wires_.skyline();
  const long long room = wires_.capacity() - static_cast<long long>(index);
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
  counts_.events_visited += visited;
  return mark;
}

}  // namespace msoc::tam
