#include "msoc/tam/packing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/tam/counters.hpp"
#include "msoc/tam/interval_set.hpp"
#include "msoc/tam/skyline.hpp"
#include "msoc/tam/timeline.hpp"
#include "powered_fixtures.hpp"
#include "msoc/tam/schedule.hpp"

namespace msoc::tam {
namespace {

class PackP93791m : public ::testing::TestWithParam<int> {};

TEST_P(PackP93791m, SingletonScheduleValid) {
  const soc::Soc s = soc::make_p93791m();
  const Schedule sched =
      schedule_soc(s, GetParam(), singleton_partition(s));
  EXPECT_TRUE(validate_schedule(sched).empty());
  EXPECT_EQ(sched.tests.size(), s.digital_count() + s.analog_count());
}

TEST_P(PackP93791m, AllShareScheduleValid) {
  const soc::Soc s = soc::make_p93791m();
  const Schedule sched =
      schedule_soc(s, GetParam(), all_share_partition(s));
  EXPECT_TRUE(validate_schedule(sched).empty());
}

TEST_P(PackP93791m, LowerBoundRespected) {
  const soc::Soc s = soc::make_p93791m();
  const AnalogPartition p = singleton_partition(s);
  const Schedule sched = schedule_soc(s, GetParam(), p);
  EXPECT_GE(sched.makespan(),
            schedule_lower_bound(s, GetParam(), p));
}

TEST_P(PackP93791m, MoreSharingNeverHelps) {
  // The all-share partition is the most constrained; a singleton
  // partition's schedule should never be longer.
  const soc::Soc s = soc::make_p93791m();
  const Cycles singleton =
      schedule_soc(s, GetParam(), singleton_partition(s)).makespan();
  const Cycles all_share =
      schedule_soc(s, GetParam(), all_share_partition(s)).makespan();
  EXPECT_LE(singleton, all_share);
}

TEST_P(PackP93791m, Deterministic) {
  const soc::Soc s = soc::make_p93791m();
  const Cycles a =
      schedule_soc(s, GetParam(), singleton_partition(s)).makespan();
  const Cycles b =
      schedule_soc(s, GetParam(), singleton_partition(s)).makespan();
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Widths, PackP93791m,
                         ::testing::Values(16, 24, 32, 48, 64));

TEST(Packing, MakespanDecreasesWithWidth) {
  const soc::Soc s = soc::make_p93791m();
  Cycles prev = 0;
  for (int w : {16, 32, 64}) {
    const Cycles m =
        schedule_soc(s, w, singleton_partition(s)).makespan();
    if (prev != 0) {
      EXPECT_LE(m, prev) << "W=" << w;
    }
    prev = m;
  }
}

TEST(Packing, DigitalOnlySoc) {
  const soc::Soc s = soc::make_d695();
  const Schedule sched = schedule_soc(s, 16, {});
  EXPECT_TRUE(validate_schedule(sched).empty());
  EXPECT_EQ(sched.tests.size(), 10u);
  EXPECT_GE(sched.makespan(), makespan_lower_bound(s, 16));
}

TEST(Packing, SharedGroupSerializedInTime) {
  const soc::Soc s = soc::make_p93791m();
  const AnalogPartition p = {{"A", "B", "C"}, {"D", "E"}};
  const Schedule sched = schedule_soc(s, 32, p);
  EXPECT_TRUE(validate_schedule(sched).empty());
  // Group 0 tests (A,B,C) must not overlap pairwise.
  std::vector<std::pair<Cycles, Cycles>> g0;
  for (const ScheduledTest& t : sched.tests) {
    if (t.kind == TestKind::kAnalog && t.wrapper_group == 0) {
      g0.emplace_back(t.start, t.end());
    }
  }
  ASSERT_EQ(g0.size(), 3u);
  std::sort(g0.begin(), g0.end());
  EXPECT_LE(g0[0].second, g0[1].first);
  EXPECT_LE(g0[1].second, g0[2].first);
}

TEST(Packing, PartitionValidationErrors) {
  const soc::Soc s = soc::make_p93791m();
  EXPECT_THROW(schedule_soc(s, 32, {{"A"}}), InfeasibleError);  // missing
  EXPECT_THROW(schedule_soc(s, 32,
                            {{"A", "A"}, {"B"}, {"C"}, {"D"}, {"E"}}),
               InfeasibleError);  // duplicate
  EXPECT_THROW(schedule_soc(s, 32,
                            {{"A", "Z"}, {"B"}, {"C"}, {"D"}, {"E"}}),
               InfeasibleError);  // unknown
  EXPECT_THROW(
      schedule_soc(s, 32,
                   {{"A"}, {}, {"B"}, {"C"}, {"D"}, {"E"}}),
      InfeasibleError);  // empty group
}

TEST(Packing, RejectsTamNarrowerThanAnalogCore) {
  // Core D needs 10 wires.
  const soc::Soc s = soc::make_p93791m();
  EXPECT_THROW(schedule_soc(s, 8, singleton_partition(s)),
               InfeasibleError);
}

TEST(Packing, PartitionHelpers) {
  const soc::Soc s = soc::make_p93791m();
  EXPECT_EQ(singleton_partition(s).size(), 5u);
  EXPECT_EQ(all_share_partition(s).size(), 1u);
  EXPECT_EQ(all_share_partition(s).front().size(), 5u);
  const soc::Soc d = soc::make_d695();
  EXPECT_TRUE(all_share_partition(d).empty());
}

TEST(Packing, WireAssignmentsCoverEveryTest) {
  const soc::Soc s = soc::make_p93791m();
  const Schedule sched = schedule_soc(s, 32, singleton_partition(s));
  for (const ScheduledTest& t : sched.tests) {
    EXPECT_EQ(static_cast<int>(t.wires.size()), t.width) << t.core_name;
  }
}

TEST(Packing, WireAssignmentOptional) {
  PackingOptions options;
  options.assign_wires = false;
  const soc::Soc s = soc::make_p93791m();
  const Schedule sched =
      schedule_soc(s, 32, singleton_partition(s), options);
  for (const ScheduledTest& t : sched.tests) {
    EXPECT_TRUE(t.wires.empty());
  }
}

TEST(PackingAblation, FullPackerBeatsBareGreedy) {
  const soc::Soc s = soc::make_p93791m();
  PackingOptions plain;
  plain.race_orders = false;
  plain.improvement_rounds = 0;
  const Cycles greedy =
      schedule_soc(s, 32, singleton_partition(s), plain).makespan();
  const Cycles full =
      schedule_soc(s, 32, singleton_partition(s)).makespan();
  EXPECT_LE(full, greedy);
}

TEST(PackingAblation, FlexibleWidthBeatsRigid) {
  const soc::Soc s = soc::make_p93791();
  PackingOptions rigid;
  rigid.flexible_width = false;
  const Cycles rigid_time = schedule_soc(s, 32, {}, rigid).makespan();
  const Cycles flexible_time = schedule_soc(s, 32, {}).makespan();
  EXPECT_LE(flexible_time, rigid_time);
}

TEST(PackingAblation, SingleOrderStillValid) {
  const soc::Soc s = soc::make_p93791m();
  for (PlacementOrder order :
       {PlacementOrder::kAreaDescending, PlacementOrder::kDigitalFirst,
        PlacementOrder::kAnalogFirst, PlacementOrder::kDeclaration}) {
    PackingOptions options;
    options.race_orders = false;
    options.order = order;
    const Schedule sched =
        schedule_soc(s, 32, singleton_partition(s), options);
    EXPECT_TRUE(validate_schedule(sched).empty())
        << "order " << static_cast<int>(order);
  }
}

TEST(PackingAblation, PerTestGranularityValidAndNoWorse) {
  const soc::Soc s = soc::make_p93791m();
  PackingOptions per_test;
  per_test.analog_per_test = true;
  const Schedule sched =
      schedule_soc(s, 48, singleton_partition(s), per_test);
  EXPECT_TRUE(validate_schedule(sched).empty());
  // 32 digital + 17 analog test rectangles (6+6+3+3+2 per core... A,B:6
  // each, C:3, D:3, E:2 = 20).
  EXPECT_EQ(sched.tests.size(), 32u + 20u);
}

TEST(PackingMonotonicity, KnownAnomalousPartitionsNoWorseThanAllShare) {
  // Regression: before the serialized fallback these partitions packed
  // past the all-share baseline (by up to 46k cycles), which the cost
  // model then hid with a std::min clamp.
  const soc::Soc s = soc::make_p93791m();
  const struct {
    int width;
    AnalogPartition partition;
  } cases[] = {
      {20, {{"A", "C", "D", "E"}, {"B"}}},
      {24, {{"B", "C", "D", "E"}, {"A"}}},
      {32, {{"A", "C", "D"}, {"B", "E"}}},
      {40, {{"A", "B", "C", "D"}, {"E"}}},
      {48, {{"A", "C", "D"}, {"B"}, {"E"}}},
  };
  for (const auto& c : cases) {
    const Cycles baseline =
        schedule_soc(s, c.width, all_share_partition(s)).makespan();
    const Schedule sched = schedule_soc(s, c.width, c.partition);
    EXPECT_LE(sched.makespan(), baseline) << "W=" << c.width;
    EXPECT_TRUE(validate_schedule(sched).empty()) << "W=" << c.width;
  }
}

TEST(PackingMonotonicity, FallbackCanBeDisabledForAblation) {
  // The bare greedy (fallback off) reproduces the anomaly, proving the
  // fallback is what provides the guarantee.
  const soc::Soc s = soc::make_p93791m();
  PackingOptions bare;
  bare.serialized_fallback = false;
  const Cycles baseline =
      schedule_soc(s, 40, all_share_partition(s), bare).makespan();
  const AnalogPartition anomalous = {{"A", "B", "C", "D"}, {"E"}};
  EXPECT_GT(schedule_soc(s, 40, anomalous, bare).makespan(), baseline);
  EXPECT_LE(schedule_soc(s, 40, anomalous).makespan(), baseline);
}

TEST(TimelineRetry, OutOfOrderBlockedIntervalsFindTightestRetry) {
  // The blocked step must clear EVERY overlapping blocked interval,
  // whatever their insertion order: the earliest start for a window of
  // length 10 against {[40,55), [0,20), [18,42)} from 5 is 55.
  Timeline timeline(8, 0.0, {});
  IntervalSet unsorted;
  unsorted.insert(40, 55);
  unsorted.insert(0, 20);
  unsorted.insert(18, 42);
  EXPECT_EQ(unsorted.first_fit(5, 10), 55u);
  EXPECT_EQ(timeline.earliest_feasible(4, 0.0, 10, unsorted, 5), 55u);

  // Same intervals inserted in sorted order must agree (the coalesced
  // union is identical).
  IntervalSet sorted;
  sorted.insert(0, 20);
  sorted.insert(18, 42);
  sorted.insert(40, 55);
  EXPECT_EQ(sorted.first_fit(5, 10), 55u);
  EXPECT_EQ(timeline.earliest_feasible(4, 0.0, 10, sorted, 5), 55u);

  // A gap big enough for the window is found, not skipped: [20, 40) holds
  // a length-10 window even though a later interval starts at 40.
  IntervalSet gap;
  gap.insert(40, 55);
  gap.insert(0, 20);
  EXPECT_EQ(timeline.earliest_feasible(4, 0.0, 10, gap, 0), 20u);
  EXPECT_EQ(timeline.earliest_feasible(4, 0.0, 10, gap, 20), 20u);
}

TEST(TimelineRetry, CapacityAndBlockedInteract) {
  Timeline timeline(8, 0.0, {});
  timeline.reserve(0, 100, 6, 0.0);  // only 2 wires free until t=100
  // Width 4 cannot fit before 100; blocked interval [100, 120) in front.
  IntervalSet blocked;
  blocked.insert(100, 120);
  EXPECT_EQ(timeline.earliest_feasible(4, 0.0, 10, blocked), 120u);
  // Without the blocked interval the capacity drop at 100 is the answer.
  EXPECT_EQ(timeline.earliest_feasible(4, 0.0, 10, {}), 100u);
}

TEST(TimelineCounters, CountedOncePerTimelineWhenItEnds) {
  reset_pack_counters();
  {
    Timeline timeline(8, 100.0, soc::PowerWindow{10, 50.0});
    timeline.reserve(0, 10, 4, 10.0);  // one reservation per envelope
    IntervalSet blocked;
    blocked.insert(0, 5);
    // From 0 the blocked miss is a check and a retry that walks no
    // segment; at 5 the wire, peak and window probes all pass.
    EXPECT_EQ(timeline.earliest_feasible(4, 10.0, 3, blocked), 5u);
    const PackCounterSnapshot running = snapshot_pack_counters();
    EXPECT_EQ(running.admission_checks, 0u);  // published at the end
    EXPECT_EQ(running.reservations, 0u);
  }
  const PackCounterSnapshot c = snapshot_pack_counters();
  EXPECT_EQ(c.reservations, 3u);
  EXPECT_EQ(c.admission_checks, 4u);
  EXPECT_EQ(c.retries, 1u);
  // Watermark refresh 1, wires 1, peak 1, window 2 (the span to 18
  // crosses the level drop at 10).
  EXPECT_EQ(c.events_visited, 5u);
}

// --- level_free on the power skyline: the peak power budget. ---

TEST(PowerLevelRetry, WindowAndRetrySemantics) {
  const double limit = 100.0 + budget_slack(100.0);
  Skyline<double> power;
  power.add(0, 50, 70.0);
  power.add(50, 100, 40.0);
  Cycles retry = 0;
  std::uint64_t visited = 0;
  // 70 + 40 > 100 before t=50; from 50 only 40 is drawn.
  EXPECT_FALSE(level_free(power, limit, 0, 40.0, 10, &retry, &visited));
  EXPECT_EQ(retry, 50u);
  EXPECT_TRUE(level_free(power, limit, 50, 40.0, 10, &retry, &visited));
  // A window straddling the 70->40 step fails until the step.
  retry = 0;
  EXPECT_FALSE(level_free(power, limit, 40, 60.0, 20, &retry, &visited));
  EXPECT_EQ(retry, 50u);
  EXPECT_TRUE(level_free(power, limit, 100, 100.0, 10, &retry, &visited));
}

TEST(PowerLevelRetry, ExactBudgetLoadFitsAfterDrain) {
  // Float residue from +/- accumulation must not block a full-budget
  // load once everything else ended.
  Skyline<double> power;
  for (int i = 0; i < 100; ++i) {
    power.add(static_cast<Cycles>(i), static_cast<Cycles>(i) + 1,
              0.1 + i * 0.001);
  }
  Cycles retry = 0;
  std::uint64_t visited = 0;
  EXPECT_TRUE(level_free(power, 100.0 + budget_slack(100.0), 200, 100.0, 10,
                         &retry, &visited));
}

// --- Power-constrained packing end to end. ---

using soc::powered_d695m;  // shared fixture (powered_fixtures.hpp)

TEST(PackingPower, BudgetInheritedFromSocAndEnforced) {
  const soc::Soc s = powered_d695m(1.5);
  const Schedule sched = schedule_soc(s, 32, singleton_partition(s));
  EXPECT_EQ(sched.max_power, s.max_power());
  EXPECT_TRUE(check_schedule(sched).empty());
  EXPECT_LE(sched.peak_power(), s.max_power() + 1e-6);
  EXPECT_GT(sched.peak_power(), 0.0);
}

TEST(PackingPower, OptionsOverrideBeatsTheSocDeclaration) {
  const soc::Soc s = powered_d695m(1.5);
  PackingOptions options;
  options.max_power = s.peak_test_power() * 4.0;  // looser than the SOC's
  const Schedule sched =
      schedule_soc(s, 32, singleton_partition(s), options);
  EXPECT_EQ(sched.max_power, options.max_power);
  EXPECT_TRUE(check_schedule(sched).empty());
  // Zero disables the constraint entirely.
  options.max_power = 0.0;
  const Schedule unconstrained =
      schedule_soc(s, 32, singleton_partition(s), options);
  EXPECT_EQ(unconstrained.max_power, 0.0);
  EXPECT_EQ(effective_max_power(s, options.max_power), 0.0);
  options.max_power = -1.0;
  EXPECT_EQ(effective_max_power(s, options.max_power), s.max_power());
}

TEST(PackingPower, TightBudgetCanOnlyLengthenTheAllShareBaseline) {
  // The all-share pack under a tight budget must stay valid; its
  // makespan dominates the analog serial chain either way.
  const soc::Soc s = powered_d695m(1.2);
  const Schedule sched = schedule_soc(s, 32, all_share_partition(s));
  EXPECT_TRUE(check_schedule(sched).empty());
  EXPECT_GE(sched.makespan(),
            schedule_lower_bound(s, 32, all_share_partition(s)));
}

TEST(PackingPower, SingleTestHotterThanBudgetIsInfeasible) {
  soc::Soc s = powered_d695m(1.5);
  s.set_max_power(s.peak_test_power() * 0.5);
  EXPECT_THROW(schedule_soc(s, 32, singleton_partition(s)),
               InfeasibleError);
}

TEST(PackingPower, PerTestGranularityHonorsTheBudgetToo) {
  const soc::Soc s = powered_d695m(1.3);
  PackingOptions options;
  options.analog_per_test = true;
  const Schedule sched =
      schedule_soc(s, 32, singleton_partition(s), options);
  EXPECT_TRUE(check_schedule(sched).empty());
  EXPECT_LE(sched.peak_power(), s.max_power() + 1e-6);
}

TEST(PackingPower, UnannotatedSocIgnoresAnyBudget) {
  // Zero-power tests fit under every budget: the schedule must be
  // bit-identical to the unconstrained one.
  const soc::Soc s = soc::make_d695m();
  PackingOptions tight;
  tight.max_power = 1.0;
  const Schedule constrained =
      schedule_soc(s, 32, singleton_partition(s), tight);
  const Schedule plain = schedule_soc(s, 32, singleton_partition(s));
  EXPECT_EQ(constrained.makespan(), plain.makespan());
  ASSERT_EQ(constrained.tests.size(), plain.tests.size());
  for (std::size_t i = 0; i < plain.tests.size(); ++i) {
    EXPECT_EQ(constrained.tests[i].start, plain.tests[i].start);
    EXPECT_EQ(constrained.tests[i].width, plain.tests[i].width);
  }
}

// --- The Timeline's sliding-window admission probe. ---
//
// A window-only Timeline wide enough that one wire never binds: the
// window probe admits a start s exactly when earliest_feasible(1, ...)
// from s returns s, and when it fails, the retry it reports is the
// result whenever that retry is admitted.

TEST(WindowedPowerRetry, AdmitsAloneClipsAtTheWindow) {
  const soc::PowerWindow w{10, 5.0};  // budget: 50 power-cycles
  EXPECT_TRUE(Timeline::window_admits_alone(w, 5.0, 10));
  EXPECT_TRUE(Timeline::window_admits_alone(w, 5.0, 1000));  // clips at W
  EXPECT_TRUE(Timeline::window_admits_alone(w, 25.0, 2));    // 50 exactly
  EXPECT_FALSE(Timeline::window_admits_alone(w, 25.0, 3));   // 75
  EXPECT_FALSE(Timeline::window_admits_alone(w, 5.1, 10));
}

TEST(WindowedPowerRetry, RetryAdvancesToTheNextBreakpoint) {
  Timeline t(64, 0.0, soc::PowerWindow{10, 5.0});
  t.reserve(0, 10, 1, 5.0);  // saturates every window touching [0, 10)
  // From 3 the retry is the breakpoint at 10, where every straddling
  // window sums to exactly the budget: admitted (within slack), like
  // the peak budget's exact fit.
  EXPECT_EQ(t.earliest_feasible(1, 5.0, 5, {}, 3), 10u);
  EXPECT_EQ(t.earliest_feasible(1, 5.0, 5, {}, 10), 10u);
}

TEST(WindowedPowerRetry, RetryJumpsPastTheDrainWhenBreakpointsRunOut) {
  Timeline t(64, 0.0, soc::PowerWindow{10, 5.0});
  t.reserve(0, 10, 1, 5.0);
  // A short hot burst (admissible alone: 10*4 = 40 <= 50) fails at a
  // start past the last load breakpoint — the only remaining probe is
  // one full window past the drain, where no window mixes it with the
  // old load.
  EXPECT_EQ(t.earliest_feasible(1, 10.0, 4, {}, 11),
            20u);  // drain end (10) + window (10)
  EXPECT_EQ(t.earliest_feasible(1, 10.0, 4, {}, 20), 20u);
}

TEST(WindowedPowerRetry, AgreesWithABruteForceWindowScan) {
  // Deterministic LCG workload: the kink-probing admission check must
  // agree with an exhaustive every-cycle window scan, and accepted
  // placements keep the whole timeline within budget.
  constexpr Cycles kWindow = 7;
  constexpr double kBudget = 63.0;  // limit 9 * window 7
  Timeline t(64, 0.0, soc::PowerWindow{kWindow, 9.0});
  struct Placed {
    Cycles start, end;
    double power;
  };
  std::vector<Placed> placed;
  std::uint64_t x = 12345;
  const auto draw = [&x]() {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  };
  for (int i = 0; i < 40; ++i) {
    const Cycles start = draw() % 50;
    const Cycles duration = 1 + draw() % 12;
    const double power = 1.0 + static_cast<double>(draw() % 8);
    double worst = 0.0;  // exhaustive scan, every integer window start
    for (Cycles w = 0; w < 80; ++w) {
      double integral = 0.0;
      for (const Placed& p : placed) {
        const Cycles lo = std::max(w, p.start);
        const Cycles hi = std::min(w + kWindow, p.end);
        if (hi > lo) integral += p.power * static_cast<double>(hi - lo);
      }
      const Cycles lo = std::max(w, start);
      const Cycles hi = std::min(w + kWindow, start + duration);
      if (hi > lo) integral += power * static_cast<double>(hi - lo);
      worst = std::max(worst, integral);
    }
    const Cycles at = t.earliest_feasible(1, power, duration, {}, start);
    const bool free = at == start;
    EXPECT_EQ(free, worst <= kBudget + 1e-6) << "placement " << i;
    if (free) {
      t.reserve(start, duration, 1, power);
      placed.push_back({start, start + duration, power});
    } else {
      EXPECT_GT(at, start) << "placement " << i;
    }
  }
}

// --- Windowed packing end to end. ---

soc::Soc windowed_d695m(double window_factor) {
  // Peak budget slack at 3x the peak single-test power; the sustained
  // window limit sits just above the peak test so every test admits
  // alone but stacking binds.
  soc::Soc s = powered_d695m(3.0);
  s.set_power_window({5000, s.peak_test_power() * window_factor});
  return s;
}

TEST(PackingWindow, InheritedFromSocAndEnforced) {
  const soc::Soc s = windowed_d695m(1.3);
  const Schedule sched = schedule_soc(s, 32, singleton_partition(s));
  EXPECT_EQ(sched.window_cycles, s.power_window().cycles);
  EXPECT_EQ(sched.window_limit, s.power_window().limit);
  EXPECT_TRUE(check_schedule(sched).empty());
}

TEST(PackingWindow, WindowBindsWhereThePeakDoesNot) {
  const soc::Soc s = windowed_d695m(1.2);
  PackingOptions unwindowed;
  unwindowed.window_limit = 0.0;
  Schedule plain = schedule_soc(s, 32, singleton_partition(s), unwindowed);
  const Schedule windowed = schedule_soc(s, 32, singleton_partition(s));
  EXPECT_EQ(plain.window_cycles, 0u);
  EXPECT_GE(windowed.makespan(), plain.makespan());
  // Injecting the window budget into the peak-only schedule must make
  // the oracle reject it — proof the window, not the peak, binds here.
  plain.window_cycles = s.power_window().cycles;
  plain.window_limit = s.power_window().limit;
  bool windowed_violation = false;
  for (const ScheduleViolation& v : check_schedule(plain)) {
    if (v.message.find("windowed power budget exceeded") !=
        std::string::npos) {
      windowed_violation = true;
    }
  }
  EXPECT_TRUE(windowed_violation);
}

TEST(PackingWindow, ExplicitOverrideAndForceUnwindowed) {
  const soc::Soc s = windowed_d695m(1.5);
  PackingOptions options;
  options.window_cycles = 2000;
  options.window_limit = s.peak_test_power() * 2.0;
  const Schedule sched =
      schedule_soc(s, 32, singleton_partition(s), options);
  EXPECT_EQ(sched.window_cycles, 2000u);
  EXPECT_EQ(sched.window_limit, options.window_limit);
  // Zero disables the window even though the SOC declares one.
  options = PackingOptions{};
  options.window_limit = 0.0;
  EXPECT_FALSE(effective_power_window(s, options).active());
  const Schedule plain =
      schedule_soc(s, 32, singleton_partition(s), options);
  EXPECT_EQ(plain.window_cycles, 0u);
  // Default inherits the SOC declaration.
  options = PackingOptions{};
  EXPECT_TRUE(effective_power_window(s, options) == s.power_window());
  // An explicit limit without a window length is a caller error.
  options.window_limit = 10.0;
  options.window_cycles = 0;
  EXPECT_THROW((void)effective_power_window(s, options), InfeasibleError);
  EXPECT_THROW(schedule_soc(s, 32, singleton_partition(s), options),
               InfeasibleError);
}

TEST(PackingWindow, SingleTestHotterThanTheWindowBudgetIsInfeasible) {
  soc::Soc s = powered_d695m(3.0);
  s.set_power_window({100, s.peak_test_power() * 0.5});
  try {
    (void)schedule_soc(s, 32, singleton_partition(s));
    FAIL() << "expected InfeasibleError";
  } catch (const InfeasibleError& e) {
    EXPECT_NE(
        std::string(e.what()).find("exceeds the windowed power budget"),
        std::string::npos);
  }
}

TEST(PackingWindow, UnannotatedSocIgnoresAnyWindow) {
  // Zero-power tests satisfy every window: bit-identical schedules.
  const soc::Soc s = soc::make_d695m();
  PackingOptions tight;
  tight.window_cycles = 64;
  tight.window_limit = 0.5;
  const Schedule constrained =
      schedule_soc(s, 32, singleton_partition(s), tight);
  const Schedule plain = schedule_soc(s, 32, singleton_partition(s));
  EXPECT_EQ(constrained.makespan(), plain.makespan());
  ASSERT_EQ(constrained.tests.size(), plain.tests.size());
  for (std::size_t i = 0; i < plain.tests.size(); ++i) {
    EXPECT_EQ(constrained.tests[i].start, plain.tests[i].start);
    EXPECT_EQ(constrained.tests[i].width, plain.tests[i].width);
  }
}

TEST(LowerBounds, DigitalBoundMonotoneInWidth) {
  const soc::Soc s = soc::make_p93791();
  EXPECT_GE(makespan_lower_bound(s, 16), makespan_lower_bound(s, 32));
  EXPECT_GE(makespan_lower_bound(s, 32), makespan_lower_bound(s, 64));
}

TEST(LowerBounds, AnalogBoundMatchesBusiestWrapper) {
  const soc::Soc s = soc::make_p93791m();
  EXPECT_EQ(analog_lower_bound(s, all_share_partition(s)), 636113u);
  EXPECT_EQ(analog_lower_bound(s, singleton_partition(s)), 299785u);
  EXPECT_EQ(analog_lower_bound(s, {{"A", "C"}, {"B"}, {"D"}, {"E"}}),
            435754u);
}

}  // namespace
}  // namespace msoc::tam
