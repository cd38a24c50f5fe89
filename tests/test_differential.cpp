// Randomized differential-testing harness.
//
// Drives make_synthetic_soc over a seed ladder and cross-checks
// FrontierEngine against the serial Fig. 3 reference
// (reference_fig3.hpp) on every SOC, with and without a power budget:
//
//   * the reference's exhaustive optimum is the ground truth: the
//     heuristic may never beat it (it can only tie or lose);
//   * FrontierEngine per-width results must be bit-identical to the
//     reference's — same winner, same test time, same total, same
//     T_max — in both heuristic and exhaustive modes;
//   * every schedule the winners imply must survive tam::check_schedule
//     (TAM capacity, wrapper serialization, instantaneous power).
//
// The power variant generates per-test powers and a budget at a seeded
// multiple of the peak single-test power, so the constraint genuinely
// binds on some SOCs and is slack on others — both regimes are
// exercised across the ladder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "msoc/plan/frontier.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/digest.hpp"
#include "msoc/tam/packing.hpp"
#include "msoc/tam/schedule.hpp"
#include "reference_fig3.hpp"

namespace msoc::plan {
namespace {

constexpr std::uint64_t kSeeds = 50;

soc::Soc synthetic(std::uint64_t seed, bool with_power) {
  soc::SyntheticSocParams params;
  params.seed = seed;
  params.digital_cores = 4 + static_cast<int>(seed % 3);
  params.analog_cores = 3 + static_cast<int>(seed % 2);
  params.max_scan_chains = 8;
  params.max_chain_length = 200;
  params.max_patterns = 120;
  if (with_power) {
    params.min_test_power = 10.0;
    params.max_test_power = 100.0;
    // 1.5x .. 3x the peak single-test power: tight enough to bind on
    // some seeds, always feasible.
    params.power_budget_factor = 1.5 + static_cast<double>(seed % 4) * 0.5;
  }
  return soc::make_synthetic_soc(params);
}

/// The TAM width for one seed; always >= the widest Table-2 analog
/// wrapper (10 wires), so every generated SOC is feasible.
int width_for(std::uint64_t seed) {
  return 16 + static_cast<int>(seed % 3) * 8;
}

/// T_max at `width`: the all-share pack under `packing`.
Cycles t_max_of(const soc::Soc& soc, int width,
                const tam::PackingOptions& packing = {}) {
  return tam::schedule_soc(soc, width, tam::all_share_partition(soc),
                           packing)
      .makespan();
}

/// The schedule behind a winner, packed afresh under the SOC's budgets.
tam::Schedule schedule_of(const soc::Soc& soc, int width,
                          const CombinationCost& best) {
  return tam::schedule_soc(
      soc, width, mswrap::to_analog_partition(soc.analog_cores(),
                                              best.partition));
}

void expect_same_cost(const CombinationCost& frontier,
                      const CombinationCost& standalone,
                      const std::string& what) {
  EXPECT_EQ(frontier.label, standalone.label) << what;
  EXPECT_EQ(frontier.test_time, standalone.test_time) << what;
  EXPECT_EQ(frontier.total, standalone.total) << what;
  EXPECT_EQ(frontier.c_time, standalone.c_time) << what;
  EXPECT_EQ(frontier.c_area, standalone.c_area) << what;
}

void expect_valid_schedule(const soc::Soc& soc, int width,
                           const CombinationCost& best,
                           const std::string& what) {
  const tam::Schedule schedule = schedule_of(soc, width, best);
  const std::vector<tam::ScheduleViolation> violations =
      tam::check_schedule(schedule);
  EXPECT_TRUE(violations.empty())
      << what << ": " << (violations.empty() ? "" : violations[0].message);
  EXPECT_EQ(schedule.makespan(), best.test_time) << what;
}

void run_differential(std::uint64_t seed, bool with_power) {
  const soc::Soc soc = synthetic(seed, with_power);
  const int width = width_for(seed);
  const std::string what =
      soc.name() + (with_power ? "+power" : "") + " @W" + std::to_string(width);

  // --- The reference. ---
  const test::fig3::Result exhaustive = test::fig3::exhaustive(soc, width);
  const test::fig3::Result heuristic = test::fig3::heuristic(soc, width);

  // The exhaustive optimum is the floor: the Fig. 3 heuristic may tie
  // it (and usually does) but can never beat it.
  EXPECT_GE(heuristic.best.total, exhaustive.best.total) << what;
  EXPECT_LE(heuristic.evaluations, exhaustive.evaluations) << what;
  EXPECT_EQ(exhaustive.evaluations, exhaustive.total_combinations - 1)
      << what << " (all-share baseline is free)";

  // Winning schedules re-walk cleanly, power budget included.
  expect_valid_schedule(soc, width, exhaustive.best, what + " exhaustive");
  expect_valid_schedule(soc, width, heuristic.best, what + " heuristic");
  if (with_power) {
    EXPECT_GT(soc.max_power(), 0.0) << what;
    const tam::Schedule schedule = schedule_of(soc, width, heuristic.best);
    EXPECT_EQ(schedule.max_power, soc.max_power()) << what;
    EXPECT_LE(schedule.peak_power(),
              soc.max_power() * (1.0 + 1e-9) + 1e-9)
        << what;
  }

  // --- Frontier bit-identity, heuristic mode. ---
  FrontierOptions options;
  options.widths = {width};
  FrontierEngine engine(soc, options);
  const FrontierResult frontier = engine.run();
  ASSERT_EQ(frontier.points.size(), 1u) << what;
  ASSERT_TRUE(frontier.points[0].ok()) << what << ": "
                                       << frontier.points[0].error;
  expect_same_cost(frontier.points[0].best, heuristic.best,
                   what + " frontier/heuristic");
  EXPECT_EQ(frontier.points[0].t_max, heuristic.t_max) << what;
  EXPECT_EQ(frontier.points[0].max_power, soc.max_power()) << what;
  // The paper's N: Fig. 3 packs every member the engine's bound skips.
  EXPECT_EQ(frontier.points[0].evaluations + frontier.points[0].pruned,
            heuristic.evaluations)
      << what;

  // --- Frontier bit-identity, heuristic mode with elimination slack. ---
  FrontierOptions slack_options;
  slack_options.widths = {width};
  slack_options.epsilon = 5.0;
  const test::fig3::Result slack_heuristic =
      test::fig3::heuristic(soc, width, slack_options);
  FrontierEngine slack_engine(soc, slack_options);
  const FrontierResult slack_frontier = slack_engine.run();
  ASSERT_EQ(slack_frontier.points.size(), 1u) << what;
  ASSERT_TRUE(slack_frontier.points[0].ok()) << what;
  expect_same_cost(slack_frontier.points[0].best, slack_heuristic.best,
                   what + " frontier/heuristic epsilon 5");
  EXPECT_EQ(slack_frontier.points[0].evaluations +
                slack_frontier.points[0].pruned,
            slack_heuristic.evaluations)
      << what;

  // --- Frontier bit-identity, exhaustive mode. ---
  FrontierOptions exhaustive_options;
  exhaustive_options.widths = {width};
  exhaustive_options.exhaustive = true;
  FrontierEngine exhaustive_engine(soc, exhaustive_options);
  const FrontierResult exhaustive_frontier = exhaustive_engine.run();
  ASSERT_EQ(exhaustive_frontier.points.size(), 1u) << what;
  ASSERT_TRUE(exhaustive_frontier.points[0].ok()) << what;
  expect_same_cost(exhaustive_frontier.points[0].best, exhaustive.best,
                   what + " frontier/exhaustive");
  EXPECT_EQ(exhaustive_frontier.points[0].evaluations, exhaustive.evaluations)
      << what;
}

TEST(Differential, HeuristicNeverBeatsExhaustiveAcrossSeedLadder) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_differential(seed, /*with_power=*/false);
  }
}

TEST(Differential, PowerConstrainedLadderHoldsTheSameContracts) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_differential(seed, /*with_power=*/true);
  }
}

/// The same SOC with every power annotation removed: the only valid
/// unconstrained twin (regenerating without power would shift the RNG
/// stream and change the timing content too).
soc::Soc strip_power(const soc::Soc& soc) {
  soc::Soc stripped(soc.name());
  for (soc::DigitalCore core : soc.digital_cores()) {
    core.power = 0.0;
    stripped.add_digital(std::move(core));
  }
  for (soc::AnalogCore core : soc.analog_cores()) {
    for (soc::AnalogTestSpec& test : core.tests) test.power = 0.0;
    stripped.add_analog(std::move(core));
  }
  return stripped;
}

/// One-core ECO mutation for the replan differential ladder.  Kinds 0
/// and 1 touch only power (annotation / budget): invisible to the
/// unconstrained packs the suite runs, so a replan must splice
/// EVERYTHING.  Kinds 2 and 3 edit timing content: every sharing
/// partition goes dirty and the replan must degrade to a full
/// re-pack.  All four must stay bit-identical to a cold solve.
soc::Soc mutate(const soc::Soc& soc, int kind) {
  soc::Soc out(soc.name());
  out.set_max_power(soc.max_power());
  bool digital_edited = false;
  for (soc::DigitalCore core : soc.digital_cores()) {
    if (!digital_edited) {
      if (kind == 0) core.power += 5.0;
      if (kind == 2) {
        if (core.scan_chain_lengths.empty()) {
          core.patterns += 13;
        } else {
          core.scan_chain_lengths[0] += 7;
        }
      }
      digital_edited = true;
    }
    out.add_digital(std::move(core));
  }
  bool analog_edited = false;
  for (soc::AnalogCore core : soc.analog_cores()) {
    if (!analog_edited && kind == 3) {
      core.tests.front().cycles += 250;
      analog_edited = true;
    }
    out.add_analog(std::move(core));
  }
  if (kind == 1) out.set_max_power(soc.max_power() * 1.25);
  return out;
}

// Replan differential: for every seed, mutate one core (or the
// budget), replan from the baseline store, and demand bit-identity
// with a cold solve of the mutant — plus the right reuse regime for
// the mutation kind.
TEST(Differential, ReplanMatchesColdSolveAcrossMutationLadder) {
  constexpr std::uint64_t kReplanSeeds = 25;
  for (std::uint64_t seed = 1; seed <= kReplanSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const int kind = static_cast<int>(seed % 4);
    const soc::Soc baseline = synthetic(seed, /*with_power=*/true);
    const soc::Soc revision = mutate(baseline, kind);
    ASSERT_NE(soc::digest_hex(baseline), soc::digest_hex(revision));
    const int width = width_for(seed);

    ResultCache cache;  // in-memory: flush() merges, nothing on disk
    FrontierOptions options;
    options.widths = {width};
    options.max_powers = {0.0};  // unconstrained: packing-digest keyed
    options.cache = &cache;
    FrontierEngine baseline_engine(baseline, options);
    (void)baseline_engine.run();
    cache.flush();

    FrontierEngine engine(revision, options);
    const FrontierResult replanned =
        engine.replan(soc::digest_hex(baseline));
    ASSERT_EQ(replanned.replanned_from, soc::digest_hex(baseline));

    FrontierOptions cold_options;
    cold_options.widths = {width};
    cold_options.max_powers = {0.0};
    FrontierEngine cold_engine(revision, cold_options);
    const FrontierResult cold = cold_engine.run();

    ASSERT_EQ(replanned.points.size(), 1u);
    ASSERT_EQ(cold.points.size(), 1u);
    ASSERT_TRUE(replanned.points[0].ok()) << replanned.points[0].error;
    expect_same_cost(replanned.points[0].best, cold.points[0].best,
                     "replan kind " + std::to_string(kind));
    EXPECT_EQ(replanned.points[0].t_max, cold.points[0].t_max);
    EXPECT_EQ(replanned.points[0].pareto, cold.points[0].pareto);

    if (kind <= 1) {
      // Power-only edits: every makespan splices from the baseline.
      EXPECT_EQ(replanned.points[0].evaluations, 0);
      EXPECT_EQ(replanned.dirty_partitions, 0);
      EXPECT_GT(replanned.reused, 0);
    } else {
      // Content edits dirty every sharing partition: full re-pack.
      EXPECT_EQ(replanned.points[0].evaluations,
                cold.points[0].evaluations);
      EXPECT_GT(replanned.dirty_partitions, 0);
      EXPECT_EQ(replanned.reused, 0);
    }
  }
}

// --- Windowed rung: the sliding-window average-power axis. ---

/// The power ladder's SOC plus a sliding-window budget.  The sustained
/// limit sits between the peak single-test power (so every test admits
/// alone — always feasible) and the declared peak budget (so the
/// window is the tighter axis); window length and limit vary with the
/// seed.
soc::Soc windowed_synthetic(std::uint64_t seed) {
  soc::Soc soc = synthetic(seed, /*with_power=*/true);
  const Cycles window = 1024 + static_cast<Cycles>(seed % 4) * 512;
  const double limit =
      soc.peak_test_power() *
      (1.15 + static_cast<double>(seed % 3) * 0.35);
  soc.set_power_window({window, limit});
  return soc;
}

/// Independent O(n^2) oracle: the worst sliding-window average power of
/// a schedule, by re-scanning every candidate window start (each test
/// edge, as a window start and as a window end) against every test.
double brute_force_worst_window_average(const tam::Schedule& s) {
  const Cycles window = s.window_cycles;
  std::vector<Cycles> starts{0};
  for (const tam::ScheduledTest& t : s.tests) {
    for (const Cycles edge : {t.start, t.end()}) {
      starts.push_back(edge);
      if (edge >= window) starts.push_back(edge - window);
    }
  }
  double worst = 0.0;
  for (const Cycles w : starts) {
    double integral = 0.0;
    for (const tam::ScheduledTest& t : s.tests) {
      const Cycles lo = std::max(w, t.start);
      const Cycles hi = std::min(w + window, t.end());
      if (hi > lo) integral += t.power * static_cast<double>(hi - lo);
    }
    worst = std::max(worst, integral);
  }
  return worst / static_cast<double>(window);
}

TEST(Differential, WindowedLadderHoldsTheSameContracts) {
  constexpr std::uint64_t kWindowSeeds = 25;
  for (std::uint64_t seed = 1; seed <= kWindowSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const soc::Soc soc = windowed_synthetic(seed);
    const int width = width_for(seed);
    const std::string what = soc.name() + "+window @W" +
                             std::to_string(width);

    const test::fig3::Result exhaustive =
        test::fig3::exhaustive(soc, width);
    const test::fig3::Result heuristic = test::fig3::heuristic(soc, width);
    // The exhaustive floor holds under windowed budgets too.
    EXPECT_GE(heuristic.best.total, exhaustive.best.total) << what;

    // Winning schedules carry the window and re-walk cleanly.
    expect_valid_schedule(soc, width, exhaustive.best, what + " exhaustive");
    expect_valid_schedule(soc, width, heuristic.best, what + " heuristic");
    const tam::Schedule schedule = schedule_of(soc, width, heuristic.best);
    ASSERT_EQ(schedule.window_cycles, soc.power_window().cycles) << what;
    EXPECT_EQ(schedule.window_limit, soc.power_window().limit) << what;
    // The independent O(n^2) window scan agrees with the packer's
    // admission kernel and check_schedule's kink-probing oracle.
    EXPECT_LE(brute_force_worst_window_average(schedule),
              soc.power_window().limit * (1.0 + 1e-9) + 1e-9)
        << what;
  }
}

// The window must bind on a seed where the peak budget does not —
// otherwise the rung only re-tests the instantaneous constraint.
TEST(Differential, WindowBindsOnASeedWherePeakDoesNot) {
  int binding = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const soc::Soc soc = windowed_synthetic(seed);
    const int width = width_for(seed);
    tam::PackingOptions peak_only;
    peak_only.window_limit = 0.0;
    tam::PackingOptions unconstrained;
    unconstrained.window_limit = 0.0;
    unconstrained.max_power = 0.0;
    const Cycles both = t_max_of(soc, width);
    const Cycles peak = t_max_of(soc, width, peak_only);
    const Cycles plain = t_max_of(soc, width, unconstrained);
    if (peak == plain && both > plain) {
      ++binding;
    }
  }
  EXPECT_GT(binding, 0);
}

// The power budget must genuinely bind somewhere on the ladder —
// otherwise the constrained half of the suite silently tests nothing.
TEST(Differential, PowerBudgetBindsOnAtLeastOneSeed) {
  int binding = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const soc::Soc constrained = synthetic(seed, true);
    const soc::Soc unconstrained = strip_power(constrained);
    const int width = width_for(seed);
    // Identical timing content, powers stripped: compare the all-share
    // baseline (the cheapest probe that runs the packer end to end).
    if (t_max_of(constrained, width) > t_max_of(unconstrained, width)) {
      ++binding;
    }
  }
  EXPECT_GT(binding, 0);
}

}  // namespace
}  // namespace msoc::plan
