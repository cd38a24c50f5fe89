// Admissibility of tam::makespan_lower_bound, the bound the frontier
// engine skips representatives and members by.  A bound above a packed
// makespan would let the engine skip the winner, so for every partition
// the bound — max(makespan LB at the cell's budget, analog LB of the
// partition) — must never exceed schedule_soc's makespan.  Covered:
// the benchmarks and the powered fixture file, seeded powered synthetic
// SOCs, both analog granularities, unconstrained and budgeted cells,
// widths 8-64, and two SOCs built so that a looser argument fails (a
// whole-core analog area under per-test packing, an energy bound that
// ignores the packer's budget slack).
//
// The same loop pins tam::Packer, the engine's per-cell packer, to the
// free functions: one Packer built from lent staircase tables schedules
// every partition test for test as schedule_soc does, and reports the
// same bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/mswrap/sharing.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/itc02.hpp"
#include "msoc/tam/packing.hpp"
#include "schedule_checks.hpp"

namespace msoc::tam {
namespace {

/// One analog test at `width` wires for `cycles` cycles.
soc::AnalogTestSpec analog_test(std::string name, int width, Cycles cycles,
                                double power) {
  soc::AnalogTestSpec test;
  test.name = std::move(name);
  test.f_low = Hertz(1e3);
  test.f_high = Hertz(1e4);
  test.f_sample = Hertz(1e5);
  test.cycles = cycles;
  test.tam_width = width;
  test.power = power;
  return test;
}

/// Two identical analog cores, P and Q, plus one small digital
/// core drawing no power.
soc::Soc two_analog_soc(const std::string& name,
                        const std::vector<soc::AnalogTestSpec>& tests) {
  soc::Soc soc(name);
  soc::DigitalCore digital;
  digital.name = "logic";
  digital.inputs = 4;
  digital.outputs = 4;
  digital.patterns = 2;
  soc.add_digital(digital);
  for (const char* core_name : {"P", "Q"}) {
    soc::AnalogCore core;
    core.name = core_name;
    core.tests = tests;
    soc.add_analog(core);
  }
  return soc;
}

/// Each core's wide test needs the whole 8-wire TAM, so per-test
/// packing runs the two narrow tests side by side after both wide ones
/// (3000 cycles); whole-core rectangles would cover 4000 cycles of it.
soc::Soc mixed_width_soc() {
  return two_analog_soc("mixed_width", {analog_test("wide", 8, 1000, 0.0),
                                        analog_test("narrow", 1, 1000, 0.0)});
}

/// Two long tests whose powers sum past the budget of 100 by less than
/// budget_slack(100), so the packer runs them side by side: the energy
/// they draw exceeds budget x makespan by a few cycles' worth.
soc::Soc slack_bound_soc() {
  soc::Soc soc = two_analog_soc(
      "slack_bound", {analog_test("long", 1, 3'000'000'000ULL, 50.000000045)});
  soc.set_max_power(100.0);
  return soc;
}

soc::Soc powered_synthetic(std::uint64_t seed) {
  soc::SyntheticSocParams params;
  params.seed = seed;
  params.digital_cores = 4 + static_cast<int>(seed % 4);
  params.analog_cores = 2 + static_cast<int>(seed % 3);
  params.max_scan_chains = 8;
  params.max_chain_length = 200;
  params.max_patterns = 120;
  params.min_test_power = 10.0;
  params.max_test_power = 100.0;
  params.power_budget_factor = 1.0 + static_cast<double>(seed % 5) * 0.5;
  return soc::make_synthetic_soc(params);
}

/// Packs every partition of `soc` at widths 8-64 under each of
/// `budgets` (PackingOptions::max_power's convention) at both analog
/// granularities, checks the bound against every makespan, and one
/// Packer over lent tables against schedule_soc.
void expect_bound_admissible(const soc::Soc& soc,
                             const std::vector<double>& budgets) {
  const ParetoTables tables = compute_pareto_tables(soc, 64);
  const std::vector<AnalogPartition> partitions = every_partition(soc);
  int packs = 0;
  for (int width = 8; width <= 64; width += 8) {
    for (const double budget : budgets) {
      const double max_power = effective_max_power(soc, budget);
      Cycles bound = 0;
      try {
        bound = makespan_lower_bound(soc, width, max_power);
      } catch (const InfeasibleError&) {
        continue;  // no schedule exists to bound
      }
      for (const bool per_test : {false, true}) {
        PackingOptions options;
        options.max_power = budget;
        options.analog_per_test = per_test;
        const Packer packer(soc, width, options, &tables);
        ASSERT_EQ(packer.makespan_lower_bound(), bound);
        for (const AnalogPartition& partition : partitions) {
          const Schedule schedule = packer.schedule(partition);
          expect_same_schedule(schedule,
                               schedule_soc(soc, width, partition, options));
          const Cycles makespan = schedule.makespan();
          EXPECT_LE(std::max(bound, analog_lower_bound(soc, partition)),
                    makespan)
              << soc.name() << " W=" << width << " P=" << max_power
              << (per_test ? " per-test" : " per-core") << " partition of "
              << partition.size() << " wrappers";
          ++packs;
        }
      }
    }
  }
  EXPECT_GT(packs, 0) << soc.name() << ": no cell was packable";
}

TEST(MakespanBound, NeverExceedsPackedMakespanOnBenchmarks) {
  expect_bound_admissible(soc::make_d695m(), {0.0});
  expect_bound_admissible(soc::make_p93791m(), {0.0});
}

TEST(MakespanBound, NeverExceedsPackedMakespanOnPoweredFixture) {
  // The file's declared budget and two tighter ones; unconstrained, it
  // packs exactly as d695m.
  expect_bound_admissible(
      soc::load_soc_file(std::string(MSOC_TEST_DATA_DIR) +
                         "/d695m_power.soc"),
      {-1.0, 250.0, 120.0});
}

TEST(MakespanBound, NeverExceedsPackedMakespanOnPoweredSyntheticSocs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    expect_bound_admissible(powered_synthetic(seed), {-1.0, 0.0});
  }
}

TEST(MakespanBound, AnalogAreaCountsTestsNotWholeCores) {
  expect_bound_admissible(mixed_width_soc(), {0.0});
}

TEST(MakespanBound, EnergyBoundAllowsTheBudgetSlack) {
  const soc::Soc soc = slack_bound_soc();
  expect_bound_admissible(soc, {-1.0});
  // The fixture is tight: the two tests do run side by side.
  EXPECT_EQ(schedule_soc(soc, 8, singleton_partition(soc)).makespan(),
            3'000'000'000ULL);
}

TEST(MakespanBound, EnergyBoundBindsUnderATightBudget) {
  // One test at a time fits under a budget of 60; the energy bound is
  // then the serial length, far above the area bound.
  const soc::Soc soc = slack_bound_soc();
  EXPECT_GE(makespan_lower_bound(soc, 8, 60.0), 4'999'999'000ULL);
  EXPECT_LT(makespan_lower_bound(soc, 8, 0.0), 1'000'000'000ULL);
}

}  // namespace
}  // namespace msoc::tam
