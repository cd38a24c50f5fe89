#include "msoc/tam/timeline.hpp"

#include <algorithm>

#include "msoc/common/error.hpp"

namespace msoc::tam {

Timeline::Timeline(int capacity, double max_power, soc::PowerWindow window)
    : capacity_(capacity),
      watermark_(static_cast<std::size_t>(capacity) + 1, 0),
      stale_(static_cast<std::size_t>(capacity) + 1, 0) {
  if (max_power > 0.0) peak_limit_ = max_power + budget_slack(max_power);
  if (window.active()) {
    window_ = window;
    // On the integral scale: the prefix sums accumulate ~1 ulp of
    // residue per segment.
    const double budget = window.limit * static_cast<double>(window.cycles);
    window_cap_ = budget + budget_slack(budget);
  }
}

Timeline::~Timeline() { add_pack_counters(counts_); }

bool Timeline::window_admits_alone(soc::PowerWindow window, double power,
                                   Cycles duration) {
  check_invariant(window.active(),
                  "power window needs a positive length and limit");
  const double budget = window.limit * static_cast<double>(window.cycles);
  return power * static_cast<double>(std::min(duration, window.cycles)) <=
         budget + budget_slack(budget);
}

void Timeline::reserve(Cycles start, Cycles duration, int width,
                       double power) {
  wires_.add(start, start + duration, width);
  drain_end_ = std::max(drain_end_, start + duration);
  // One reservation per active budget: the peak and the window budget
  // each count theirs, though both read the one power skyline.
  const int budgets = (peak_limit_ > 0.0 ? 1 : 0) + (window_.active() ? 1 : 0);
  if (budgets > 0) power_.add(start, start + duration, power);
  counts_.reservations += 1 + static_cast<std::uint64_t>(budgets);
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
  // Probe the blocked windows, the wires, the peak and the window
  // budget in turn; the first that fails supplies the next candidate.
  // Every retry strictly advances, and past the horizon both skylines
  // are empty, so the fixpoint terminates.
  std::uint64_t* visited = &counts_.events_visited;
  Cycles candidate = std::max(not_before, watermark(width));
  while (true) {
    Cycles retry = blocked.first_fit(candidate, duration);
    if (retry != candidate) {
      count_probe(false);
    } else if (count_probe(level_free(wires_, capacity_, candidate,
                                      static_cast<long long>(width),
                                      duration, &retry, visited)) &&
               (peak_limit_ <= 0.0 ||
                count_probe(level_free(power_, peak_limit_, candidate, power,
                                       duration, &retry, visited))) &&
               (!window_.active() ||
                count_probe(window_free(candidate, power, duration, &retry)))) {
      return candidate;
    }
    check_invariant(retry > candidate, "packer failed to advance");
    candidate = retry;
  }
}

bool Timeline::window_free(Cycles start, double power, Cycles duration,
                           Cycles* retry_at) {
  const Cycles window = window_.cycles;
  const Cycles lo = start >= window ? start - window : 0;
  const Cycles end = start + duration;  // exclusive window-start bound
  const Cycles span_end = end + window;

  // Clipped segment table over [lo, span_end): breakpoint times,
  // levels, and the prefix integral of the EXISTING load from lo.
  times_.clear();
  levels_.clear();
  prefix_.clear();
  const auto at = power_.floor(lo);
  times_.push_back(lo);
  levels_.push_back(at == power_.end() ? 0.0 : at->second);
  prefix_.push_back(0.0);
  ++counts_.events_visited;
  auto it = at == power_.end() ? power_.begin() : std::next(at);
  for (; it != power_.end() && it->first < span_end; ++it) {
    ++counts_.events_visited;
    prefix_.push_back(prefix_.back() +
                      levels_.back() *
                          static_cast<double>(it->first - times_.back()));
    times_.push_back(it->first);
    levels_.push_back(it->second);
  }
  // Existing-load integral from lo to x (x inside the clipped span).
  const auto integral_to = [this](Cycles x) {
    const auto seg = std::upper_bound(times_.begin(), times_.end(), x);
    const std::size_t i = static_cast<std::size_t>(seg - times_.begin()) - 1;
    return prefix_[i] + levels_[i] * static_cast<double>(x - times_[i]);
  };

  // Candidate window starts: every point where the sliding integral
  // can kink — each breakpoint of the combined signal, as a window
  // start and as a window end — clamped into [lo, end).
  starts_.clear();
  const auto push = [&](Cycles w) {
    if (w >= lo && w < end) starts_.push_back(w);
  };
  push(lo);
  const auto push_edges = [&](Cycles t) {
    push(t);
    if (t >= window) push(t - window);
  };
  for (const Cycles t : times_) push_edges(t);
  push_edges(start);
  push_edges(end);
  std::sort(starts_.begin(), starts_.end());
  starts_.erase(std::unique(starts_.begin(), starts_.end()), starts_.end());

  for (const Cycles w : starts_) {
    const Cycles w_end = w + window;
    const double existing = integral_to(w_end) - integral_to(w);
    const Cycles overlap_lo = std::max(w, start);
    const Cycles overlap_hi = std::min(w_end, end);
    const double added =
        overlap_hi > overlap_lo
            ? power * static_cast<double>(overlap_hi - overlap_lo)
            : 0.0;
    if (existing + added > window_cap_) {
      // Strictly later: the next power breakpoint after `start`, or —
      // once past every breakpoint — one full window past the drain,
      // where no window mixes the candidate with old load and
      // window_admits_alone() guarantees admission.
      const auto floor = power_.floor(start);
      const auto next =
          floor == power_.end() ? power_.begin() : std::next(floor);
      if (next != power_.end()) {
        ++counts_.events_visited;
        *retry_at = next->first;
      } else {
        *retry_at = drain_end_ + window;
        check_invariant(*retry_at > start,
                        "windowed power budget never admits the test");
      }
      return false;
    }
  }
  return true;
}

Cycles Timeline::refresh_watermark(std::size_t index) {
  Cycles& mark = watermark_[index];
  stale_[index] = 0;

  // Resume from the previous mark: levels before it only rose since.
  const long long room = capacity_ - static_cast<long long>(index);
  auto it = wires_.floor(mark);
  std::uint64_t visited = 1;
  if (it != wires_.end() && it->second > room) {
    // The skyline drains to zero past its last segment, so some later
    // segment admits any width <= capacity.
    for (++it; it != wires_.end() && it->second > room; ++it) ++visited;
    check_invariant(it != wires_.end(),
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
