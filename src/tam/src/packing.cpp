#include "msoc/tam/packing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <utility>

#include "msoc/common/error.hpp"
#include "msoc/tam/interval_set.hpp"
#include "msoc/tam/timeline.hpp"
#include "msoc/wrapper/wrapper_design.hpp"

namespace msoc::tam {

namespace detail {

struct DigitalItem {
  const soc::DigitalCore* core = nullptr;
  std::vector<wrapper::ParetoPoint> pareto;  ///< widths <= W, ascending.
  Cycles area = 0;  ///< width*time at the widest feasible point.
  double power = 0.0;
};

/// One rigid analog rectangle: a whole core's test suite (per-core
/// granularity, the default) or a single specification test (per-test
/// granularity, an ablation mode).
struct AnalogRect {
  const soc::AnalogCore* core = nullptr;
  std::string test_name;  ///< Empty at per-core granularity.
  int width = 0;
  Cycles duration = 0;
  double power = 0.0;  ///< Core peak at per-core granularity.
};

}  // namespace detail

namespace {

using detail::AnalogRect;
using detail::DigitalItem;

struct AnalogGroupItem {
  int group_id = 0;
  int width = 0;  ///< Wrapper hardware width: max over member rects.
  std::vector<AnalogRect> rects;
  Cycles total_cycles = 0;
};

/// One placement decision: chosen (start, width) for a rectangle.
struct Placement {
  Cycles start = 0;
  int width = 0;
  Cycles duration = 0;
};

/// Secondary placement criterion when the makespan increase ties.
enum class WidthPreference { kNarrow, kWide };

/// Picks the (start, width) pair minimizing (makespan increase, wire
/// area, start); `widths` pairs each width with its duration.  For a
/// fixed width the earliest feasible start is optimal under this cost,
/// so only one candidate start per width needs to be examined — and
/// none at all when even the width's watermark already loses.  Sets
/// `*pref_decided` (when given) if `pref` decides any comparison.
Placement choose_placement(Timeline& timeline, double power,
                           const std::vector<std::pair<int, Cycles>>& widths,
                           const IntervalSet& blocked,
                           Cycles current_makespan,
                           WidthPreference pref = WidthPreference::kNarrow,
                           bool* pref_decided = nullptr) {
  Placement best;
  Cycles best_makespan = std::numeric_limits<Cycles>::max();
  // The lexicographic (makespan, area, start, preference) order: true
  // when placing `width` at `start` beats the best so far.
  const auto beats = [&](Cycles start, int width, Cycles duration) {
    const Cycles makespan = std::max(current_makespan, start + duration);
    if (best.width == 0 || makespan < best_makespan) return true;
    if (makespan != best_makespan) return false;
    const Cycles area = static_cast<Cycles>(width) * duration;
    const Cycles best_area = static_cast<Cycles>(best.width) * best.duration;
    if (area != best_area) return area < best_area;  // cheapest wire usage
    if (start != best.start) return start < best.start;
    if (width == best.width) return false;
    if (pref_decided != nullptr) *pref_decided = true;
    return pref == WidthPreference::kNarrow ? width < best.width
                                            : width > best.width;
  };

  for (const auto& [width, duration] : widths) {
    // Every feasible start is >= the watermark and the order never
    // prefers a later start, so a width losing from its watermark
    // loses from wherever it would really start.
    if (!beats(timeline.watermark(width), width, duration)) continue;
    const Cycles s = timeline.earliest_feasible(width, power, duration,
                                                blocked);
    if (beats(s, width, duration)) {
      best = Placement{s, width, duration};
      best_makespan = std::max(current_makespan, s + duration);
    }
  }
  check_invariant(best.width > 0, "no feasible placement found");
  return best;
}

void assign_wires(Schedule& schedule) {
  std::vector<ScheduledTest*> order;
  order.reserve(schedule.tests.size());
  for (ScheduledTest& t : schedule.tests) order.push_back(&t);
  std::sort(order.begin(), order.end(),
            [](const ScheduledTest* a, const ScheduledTest* b) {
              if (a->start != b->start) return a->start < b->start;
              return a->core_name < b->core_name;
            });

  // Min-heap of free wire ids; releases happen lazily via an end-time
  // queue.  Capacity validity guarantees enough free wires at each start.
  std::priority_queue<int, std::vector<int>, std::greater<>> free_wires;
  for (int w = 0; w < schedule.tam_width; ++w) free_wires.push(w);
  using Release = std::pair<Cycles, const ScheduledTest*>;
  std::priority_queue<Release, std::vector<Release>, std::greater<>> active;

  for (ScheduledTest* t : order) {
    while (!active.empty() && active.top().first <= t->start) {
      for (int w : active.top().second->wires) free_wires.push(w);
      active.pop();
    }
    check_invariant(static_cast<int>(free_wires.size()) >= t->width,
                    "interval coloring ran out of wires");
    t->wires.clear();
    for (int i = 0; i < t->width; ++i) {
      t->wires.push_back(free_wires.top());
      free_wires.pop();
    }
    active.emplace(t->end(), t);
  }
}

struct PlacementRef {
  bool is_analog = false;
  std::size_t index = 0;
  Cycles area = 0;  ///< A function of (is_analog, index).

  bool operator==(const PlacementRef&) const = default;
};

std::vector<PlacementRef> make_order(const std::vector<DigitalItem>& digital,
                                     const std::vector<AnalogGroupItem>& groups,
                                     PlacementOrder order) {
  std::vector<PlacementRef> digital_refs;
  for (std::size_t i = 0; i < digital.size(); ++i) {
    digital_refs.push_back({false, i, digital[i].area});
  }
  std::vector<PlacementRef> analog_refs;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    // Rank analog chains by the timeline they occupy (serial length x
    // TAM width): long skinny chains must start early or they stick out.
    analog_refs.push_back(
        {true, i,
         static_cast<Cycles>(groups[i].width) * groups[i].total_cycles});
  }
  const auto by_area = [](const PlacementRef& a, const PlacementRef& b) {
    return a.area > b.area;
  };

  std::vector<PlacementRef> out;
  switch (order) {
    case PlacementOrder::kAreaDescending:
      out = digital_refs;
      out.insert(out.end(), analog_refs.begin(), analog_refs.end());
      std::stable_sort(out.begin(), out.end(), by_area);
      break;
    case PlacementOrder::kDigitalFirst:
      std::stable_sort(digital_refs.begin(), digital_refs.end(), by_area);
      std::stable_sort(analog_refs.begin(), analog_refs.end(), by_area);
      out = digital_refs;
      out.insert(out.end(), analog_refs.begin(), analog_refs.end());
      break;
    case PlacementOrder::kAnalogFirst:
      std::stable_sort(digital_refs.begin(), digital_refs.end(), by_area);
      std::stable_sort(analog_refs.begin(), analog_refs.end(), by_area);
      out = analog_refs;
      out.insert(out.end(), digital_refs.begin(), digital_refs.end());
      break;
    case PlacementOrder::kDeclaration:
      out = digital_refs;
      out.insert(out.end(), analog_refs.begin(), analog_refs.end());
      break;
  }
  return out;
}

/// Iterative repair: rip out the K tests finishing last and re-place
/// them (largest first, all widths, gap fill).  K escalates 1,2,4,8,16
/// when a round fails to improve; repair stops when even K=16 cannot
/// help.
void improve_schedule(Schedule& schedule,
                      const std::vector<DigitalItem>& digital,
                      int max_rounds) {
  std::map<std::string, const DigitalItem*> digital_by_name;
  for (const DigitalItem& d : digital) digital_by_name[d.core->name] = &d;
  const soc::PowerWindow window{schedule.window_cycles,
                                schedule.window_limit};

  int victims = 1;
  for (int round = 0; round < max_rounds; ++round) {
    const Cycles makespan = schedule.makespan();

    // Victims: the `victims` tests with the latest end times.
    std::vector<std::size_t> order(schedule.tests.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&schedule](std::size_t a, std::size_t b) {
                return schedule.tests[a].end() > schedule.tests[b].end();
              });
    const std::size_t k =
        std::min<std::size_t>(static_cast<std::size_t>(victims),
                              schedule.tests.size());
    std::vector<bool> removed(schedule.tests.size(), false);
    for (std::size_t i = 0; i < k; ++i) removed[order[i]] = true;

    // Timeline of the surviving tests.
    Timeline timeline(schedule.tam_width, schedule.max_power, window);
    Cycles rest_makespan = 0;
    std::vector<std::size_t> victims_order;
    for (std::size_t i = 0; i < schedule.tests.size(); ++i) {
      if (removed[i]) {
        victims_order.push_back(i);
        continue;
      }
      const ScheduledTest& t = schedule.tests[i];
      timeline.reserve(t.start, t.duration, t.width, t.power);
      rest_makespan = std::max(rest_makespan, t.end());
    }

    // Re-place victims, largest wire-area first.
    std::sort(victims_order.begin(), victims_order.end(),
              [&schedule](std::size_t a, std::size_t b) {
                const ScheduledTest& ta = schedule.tests[a];
                const ScheduledTest& tb = schedule.tests[b];
                return static_cast<Cycles>(ta.width) * ta.duration >
                       static_cast<Cycles>(tb.width) * tb.duration;
              });

    std::vector<ScheduledTest> replaced;
    Cycles new_makespan = rest_makespan;
    for (std::size_t idx : victims_order) {
      const ScheduledTest& victim = schedule.tests[idx];
      std::vector<std::pair<int, Cycles>> widths;
      if (victim.kind == TestKind::kDigital) {
        for (const wrapper::ParetoPoint& p :
             digital_by_name.at(victim.core_name)->pareto) {
          widths.emplace_back(p.width, p.time);
        }
      } else {
        widths.emplace_back(victim.width, victim.duration);
      }
      // Serialization: block against the same wrapper group, including
      // victims already re-placed in this round.
      IntervalSet group_busy;
      if (victim.kind == TestKind::kAnalog) {
        for (std::size_t i = 0; i < schedule.tests.size(); ++i) {
          if (removed[i]) continue;
          const ScheduledTest& t = schedule.tests[i];
          if (t.kind == TestKind::kAnalog &&
              t.wrapper_group == victim.wrapper_group) {
            group_busy.insert(t.start, t.end());
          }
        }
        for (const ScheduledTest& t : replaced) {
          if (t.kind == TestKind::kAnalog &&
              t.wrapper_group == victim.wrapper_group) {
            group_busy.insert(t.start, t.end());
          }
        }
      }
      const Placement p = choose_placement(timeline, victim.power, widths,
                                           group_busy, new_makespan);
      timeline.reserve(p.start, p.duration, p.width, victim.power);
      new_makespan = std::max(new_makespan, p.start + p.duration);
      ScheduledTest t = victim;
      t.start = p.start;
      t.duration = p.duration;
      t.width = p.width;
      t.wires.clear();
      replaced.push_back(std::move(t));
    }

    if (new_makespan < makespan) {
      std::size_t r = 0;
      for (std::size_t idx : victims_order) {
        schedule.tests[idx] = replaced[r++];
      }
      victims = 1;  // restart gentle
    } else {
      if (victims >= 16) return;
      victims *= 2;
    }
  }
}

/// Area/serialization lower bound used as the packing target: below this
/// makespan every placement is "free", which steers the greedy toward
/// wire-efficient widths instead of myopically minimizing each finish.
Cycles packing_target(const std::vector<DigitalItem>& digital,
                      const std::vector<AnalogGroupItem>& groups,
                      int tam_width) {
  Cycles area = 0;
  Cycles longest = 0;
  for (const DigitalItem& d : digital) {
    Cycles best_area = 0;
    for (const wrapper::ParetoPoint& p : d.pareto) {
      const Cycles a = static_cast<Cycles>(p.width) * p.time;
      if (best_area == 0 || a < best_area) best_area = a;
    }
    area += best_area;
    longest = std::max(longest, d.pareto.back().time);
  }
  for (const AnalogGroupItem& g : groups) {
    for (const AnalogRect& r : g.rects) {
      area += static_cast<Cycles>(r.width) * r.duration;
    }
    longest = std::max(longest, g.total_cycles);  // serial chain
  }
  const Cycles area_bound =
      (area + static_cast<Cycles>(tam_width) - 1) /
      static_cast<Cycles>(tam_width);
  return std::max(area_bound, longest);
}

/// One greedy pass over `sequence` (a make_order result).  Sets
/// `*pref_decided` if `pref` decides any comparison.
Schedule pack_once(const std::vector<DigitalItem>& digital,
                   const std::vector<AnalogGroupItem>& groups, int tam_width,
                   double max_power, soc::PowerWindow window,
                   const std::vector<PlacementRef>& sequence,
                   WidthPreference pref, bool* pref_decided) {
  Timeline timeline(tam_width, max_power, window);
  Schedule schedule;
  schedule.tam_width = tam_width;
  schedule.max_power = max_power;
  if (window.active()) {
    schedule.window_cycles = window.cycles;
    schedule.window_limit = window.limit;
  }
  const Cycles target = packing_target(digital, groups, tam_width);
  Cycles makespan = target;

  for (const PlacementRef& ref : sequence) {
    if (!ref.is_analog) {
      const DigitalItem& item = digital[ref.index];
      std::vector<std::pair<int, Cycles>> widths;
      widths.reserve(item.pareto.size());
      for (const wrapper::ParetoPoint& p : item.pareto) {
        widths.emplace_back(p.width, p.time);
      }
      const Placement p =
          choose_placement(timeline, item.power, widths, {}, makespan, pref,
                           pref_decided);
      timeline.reserve(p.start, p.duration, p.width, item.power);
      makespan = std::max(makespan, p.start + p.duration);
      ScheduledTest t;
      t.kind = TestKind::kDigital;
      t.core_name = item.core->name;
      t.start = p.start;
      t.duration = p.duration;
      t.width = p.width;
      t.power = item.power;
      schedule.tests.push_back(std::move(t));
    } else {
      const AnalogGroupItem& item = groups[ref.index];
      // Rectangles are placed one by one; `busy` enforces the paper's
      // serialization constraint (one test at a time per wrapper) while
      // letting digital tests and other wrappers use the gaps.
      IntervalSet busy;
      for (const AnalogRect& rect : item.rects) {
        const Placement p =
            choose_placement(timeline, rect.power,
                             {{rect.width, rect.duration}}, busy, makespan,
                             pref, pref_decided);
        timeline.reserve(p.start, p.duration, p.width, rect.power);
        makespan = std::max(makespan, p.start + p.duration);
        busy.insert(p.start, p.start + p.duration);
        ScheduledTest t;
        t.kind = TestKind::kAnalog;
        t.core_name = rect.core->name;
        t.test_name = rect.test_name;
        t.wrapper_group = item.group_id;
        t.start = p.start;
        t.duration = rect.duration;
        t.width = rect.width;
        t.power = rect.power;
        schedule.tests.push_back(std::move(t));
      }
    }
  }
  return schedule;
}

/// Deterministic rectangle order within an analog group: longest first so
/// the serial chain's spine is laid down before the short fillers.  Total
/// order on (duration, core, test) — identical regardless of input order.
bool rect_before(const AnalogRect& a, const AnalogRect& b) {
  if (a.duration != b.duration) return a.duration > b.duration;
  if (a.core->name != b.core->name) return a.core->name < b.core->name;
  return a.test_name < b.test_name;
}

/// Races the configured placement orders and width preferences (plus
/// iterative repair) and keeps the shortest schedule, skipping every
/// candidate that must reproduce an earlier one.
Schedule pack_best(const std::vector<DigitalItem>& digital,
                   const std::vector<AnalogGroupItem>& groups, int tam_width,
                   double max_power, soc::PowerWindow window,
                   const PackingOptions& options) {
  std::vector<PlacementOrder> orders;
  if (options.race_orders) {
    orders = {PlacementOrder::kAreaDescending, PlacementOrder::kDigitalFirst,
              PlacementOrder::kAnalogFirst};
  } else {
    orders = {options.order};
  }

  // Skipping is exact.  A candidate's repair depends only on its greedy
  // schedule, and a later candidate replaces the best only when strictly
  // shorter, so a candidate whose greedy schedule equals an earlier
  // one's can never change the result.  Two kinds are known equal up
  // front:
  //  - an order whose (is_analog, index) sequence was already raced:
  //    pack_once sees nothing of the order but that sequence;
  //  - the kWide pass of an order whose kNarrow pass never let the width
  //    preference decide a comparison.  By induction over placements,
  //    both passes start each placement from the same timeline and
  //    reach the preference clause at the same comparisons; the kNarrow
  //    pass reached it at none, so every comparison, and with it every
  //    placement, is the same in both.
  std::vector<std::vector<PlacementRef>> raced;
  Schedule best;
  bool have_best = false;
  for (PlacementOrder order : orders) {
    const std::vector<PlacementRef> sequence =
        make_order(digital, groups, order);
    if (std::find(raced.begin(), raced.end(), sequence) != raced.end()) {
      continue;
    }
    raced.push_back(sequence);

    bool pref_decided = false;
    for (WidthPreference pref :
         {WidthPreference::kNarrow, WidthPreference::kWide}) {
      if (pref == WidthPreference::kWide && !pref_decided) break;
      Schedule candidate = pack_once(digital, groups, tam_width, max_power,
                                     window, sequence, pref, &pref_decided);
      if (options.improvement_rounds > 0) {
        improve_schedule(candidate, digital, options.improvement_rounds);
      }
      if (!have_best || candidate.makespan() < best.makespan()) {
        best = std::move(candidate);
        have_best = true;
      }
      if (!options.race_orders) break;
    }
  }
  return best;
}

/// The `tam_width` staircase from a max_width table: the prefix with
/// width <= tam_width (see ParetoTables for why this is exact).
std::vector<wrapper::ParetoPoint> slice_pareto(
    const std::vector<wrapper::ParetoPoint>& table, int tam_width) {
  std::vector<wrapper::ParetoPoint> points;
  for (const wrapper::ParetoPoint& p : table) {
    if (p.width > tam_width) break;  // tables are ascending in width
    points.push_back(p);
  }
  check_invariant(!points.empty(),
                  "pareto table missing the width-1 point");
  return points;
}

}  // namespace

ParetoTables compute_pareto_tables(const soc::Soc& soc, int max_width) {
  require(max_width >= 1, "max width must be >= 1");
  ParetoTables tables;
  tables.max_width = max_width;
  tables.by_core.reserve(soc.digital_count());
  for (const soc::DigitalCore& core : soc.digital_cores()) {
    tables.by_core.push_back(wrapper::pareto_widths(core, max_width));
  }
  return tables;
}

double effective_max_power(const soc::Soc& soc, double budget) {
  return budget < 0.0 ? soc.max_power() : budget;
}

soc::PowerWindow effective_power_window(const soc::Soc& soc,
                                        const PackingOptions& options) {
  if (options.window_limit < 0.0) return soc.power_window();
  if (options.window_limit == 0.0) return {};
  require(options.window_cycles > 0,
          "an explicit window limit needs a positive window length");
  return {options.window_cycles, options.window_limit};
}

AnalogPartition singleton_partition(const soc::Soc& soc) {
  AnalogPartition p;
  for (const soc::AnalogCore& c : soc.analog_cores()) {
    p.push_back({c.name});
  }
  return p;
}

AnalogPartition all_share_partition(const soc::Soc& soc) {
  AnalogPartition p;
  if (soc.analog_count() == 0) return p;
  p.emplace_back();
  for (const soc::AnalogCore& c : soc.analog_cores()) {
    p.front().push_back(c.name);
  }
  return p;
}

Packer::Packer(const soc::Soc& soc, int tam_width,
               const PackingOptions& options, const ParetoTables* tables)
    : soc_(soc),
      tam_width_(tam_width),
      options_(options),
      max_power_(effective_max_power(soc, options.max_power)) {
  require(tam_width >= 1, "TAM width must be >= 1");
  for (const soc::AnalogCore& core : soc.analog_cores()) {
    require(core.tam_width() <= tam_width,
            "analog wrapper needs more TAM wires than the SOC has");
  }
  // A single test hotter than the whole budget can never be admitted —
  // reject up front so the placement fixpoint always terminates.
  require(max_power_ <= 0.0 || soc.peak_test_power() <= max_power_,
          "test power exceeds the SOC power budget");
  window_ = effective_power_window(soc, options);
  if (tables != nullptr) {
    require(tables->by_core.size() == soc.digital_count(),
            "pareto tables do not cover this SOC's digital cores");
    require(tables->max_width >= tam_width,
            "pareto tables computed at a narrower width than this pack");
  }

  // --- Digital items, and the makespan lower bound over their full
  // staircases (see makespan_lower_bound). ---
  Cycles area = 0;
  Cycles longest_single = 0;
  double energy = 0.0;
  digital_.reserve(soc.digital_count());
  for (const soc::DigitalCore& core : soc.digital_cores()) {
    DigitalItem item;
    item.core = &core;
    item.pareto = tables != nullptr
                      ? slice_pareto(tables->by_core[digital_.size()],
                                     tam_width)
                      : wrapper::pareto_widths(core, tam_width);
    const wrapper::ParetoPoint& widest = item.pareto.back();
    // Area bound uses the most wire-efficient point (smallest w*t).
    Cycles best_area = 0;
    for (const wrapper::ParetoPoint& p : item.pareto) {
      const Cycles a = static_cast<Cycles>(p.width) * p.time;
      if (best_area == 0 || a < best_area) best_area = a;
    }
    area += best_area;
    longest_single = std::max(longest_single, widest.time);
    energy += core.power * static_cast<double>(widest.time);
    item.area = static_cast<Cycles>(widest.width) * widest.time;
    item.power = core.power;
    if (!options.flexible_width) {
      // Ablation: only the widest Pareto point is allowed.
      item.pareto = {widest};
    }
    digital_.push_back(std::move(item));
  }

  // --- Analog rectangles per core, and their share of the bound. ---
  analog_.reserve(soc.analog_count());
  for (const soc::AnalogCore& core : soc.analog_cores()) {
    std::vector<AnalogRect>& rects = analog_.emplace_back();
    if (options.analog_per_test) {
      for (const soc::AnalogTestSpec& test : core.tests) {
        rects.push_back(AnalogRect{&core, test.name, test.tam_width,
                                   test.cycles, test.power});
      }
    } else {
      // A whole-core rectangle runs its tests back to back, so it must
      // be admitted at the core's peak dissipation.
      rects.push_back(AnalogRect{&core, "", core.tam_width(),
                                 core.total_cycles(), core.max_power()});
    }
    for (const soc::AnalogTestSpec& test : core.tests) {
      area += static_cast<Cycles>(test.tam_width) * test.cycles;
      energy += test.power * static_cast<double>(test.cycles);
    }
  }

  lower_bound_ = std::max((area + static_cast<Cycles>(tam_width) - 1) /
                              static_cast<Cycles>(tam_width),
                          longest_single);
  if (max_power_ > 0.0) {
    // No admitted instant draws more than budget + slack.  Rounding
    // residue in the sum is far below one cycle, so flooring keeps the
    // bound low.
    lower_bound_ = std::max(
        lower_bound_,
        static_cast<Cycles>(std::floor(
            energy / (max_power_ + budget_slack(max_power_)))));
  }

  // Windowed analogue of the peak pre-check: every item must be
  // admissible on an empty timeline at its LONGEST candidate duration
  // (min(duration, window) in the integral makes the longest shape the
  // binding one), so the windowed retry fixpoint always terminates.
  if (window_.active()) {
    for (const DigitalItem& d : digital_) {
      require(Timeline::window_admits_alone(window_, d.power,
                                            d.pareto.front().time),
              "test power exceeds the windowed power budget: " +
                  d.core->name);
    }
    for (const std::vector<AnalogRect>& rects : analog_) {
      for (const AnalogRect& r : rects) {
        require(Timeline::window_admits_alone(window_, r.power, r.duration),
                "test power exceeds the windowed power budget: " +
                    r.core->name);
      }
    }
  }
}

Packer::~Packer() = default;

Schedule Packer::schedule(const AnalogPartition& partition) const {
  // --- One group item per wrapper, checking that the partition covers
  // each analog core exactly once. ---
  std::set<std::string> seen;
  std::vector<AnalogGroupItem> groups;
  for (const auto& group : partition) {
    require(!group.empty(), "empty wrapper group in partition");
    AnalogGroupItem item;
    item.group_id = static_cast<int>(groups.size());
    for (const std::string& name : group) {
      const soc::AnalogCore& core = soc_.analog_by_name(name);  // or throws
      if (!seen.insert(name).second) {
        throw InfeasibleError("analog core appears twice in partition: " +
                              name);
      }
      const auto index =
          static_cast<std::size_t>(&core - soc_.analog_cores().data());
      for (const AnalogRect& rect : analog_[index]) {
        item.rects.push_back(rect);
        item.total_cycles += rect.duration;
      }
      item.width = std::max(item.width, core.tam_width());
    }
    std::sort(item.rects.begin(), item.rects.end(), rect_before);
    groups.push_back(std::move(item));
  }
  require(seen.size() == soc_.analog_count(),
          "partition must cover every analog core exactly once");

  // --- Pack (racing placement orders unless disabled). ---
  Schedule best =
      pack_best(digital_, groups, tam_width_, max_power_, window_, options_);

  // --- Monotonicity guard. ---
  // The greedy packer is anomalous: relaxing serialization constraints
  // (splitting wrappers) can steer it to a LONGER schedule than the
  // all-share arrangement, even though any all-share schedule satisfies
  // every partition's constraints.  Race the fully-serialized
  // arrangement too: the all-share schedule, packed from the same
  // items in the same deterministic order, so refining a partition can
  // never make the result worse than the all-share baseline.
  if (options_.serialized_fallback && groups.size() > 1 &&
      all_share().makespan() < best.makespan()) {
    // All analog tests in the serialized schedule are pairwise disjoint
    // in time, so relabeling them to the requested partition's wrapper
    // groups keeps every per-wrapper serialization constraint satisfied.
    std::map<std::string, int> group_of;
    for (const AnalogGroupItem& g : groups) {
      for (const AnalogRect& r : g.rects) group_of[r.core->name] = g.group_id;
    }
    best = all_share();
    for (ScheduledTest& t : best.tests) {
      if (t.kind == TestKind::kAnalog) {
        t.wrapper_group = group_of.at(t.core_name);
      }
    }
  }

  if (options_.assign_wires) assign_wires(best);
  // Under a power budget the packer polices itself on every output:
  // check_schedule re-walks capacity, power (peak and windowed) and
  // serialization, and any violation is a packer bug, not a caller
  // error.
  if (max_power_ > 0.0 || window_.active()) {
    const std::vector<ScheduleViolation> violations = check_schedule(best);
    check_invariant(violations.empty(),
                    violations.empty()
                        ? std::string("unreachable")
                        : "power-constrained pack violated its own "
                          "invariants: " +
                              violations.front().message);
  }
  return best;
}

const Schedule& Packer::all_share() const {
  std::call_once(all_share_once_, [this] {
    all_share_ = schedule(all_share_partition(soc_));
  });
  return all_share_;
}

Schedule schedule_soc(const soc::Soc& soc, int tam_width,
                      const AnalogPartition& partition,
                      const PackingOptions& options) {
  return Packer(soc, tam_width, options).schedule(partition);
}

Cycles makespan_lower_bound(const soc::Soc& soc, int tam_width,
                            double max_power) {
  PackingOptions options;
  options.max_power = max_power;
  options.window_limit = 0.0;  // the bound reads no window
  return Packer(soc, tam_width, options).makespan_lower_bound();
}

Cycles analog_lower_bound(const soc::Soc& soc,
                          const AnalogPartition& partition) {
  Cycles lb = 0;
  for (const auto& group : partition) {
    Cycles wrapper_usage = 0;
    for (const std::string& name : group) {
      wrapper_usage += soc.analog_by_name(name).total_cycles();
    }
    lb = std::max(lb, wrapper_usage);
  }
  return lb;
}

Cycles schedule_lower_bound(const soc::Soc& soc, int tam_width,
                            const AnalogPartition& partition) {
  return std::max(makespan_lower_bound(soc, tam_width),
                  analog_lower_bound(soc, partition));
}

}  // namespace msoc::tam
