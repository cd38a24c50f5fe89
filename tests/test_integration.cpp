// End-to-end integration tests: the full paper pipeline from SOC
// description to optimized mixed-signal test plan, plus the §5 wrapper
// experiment, exercised together the way examples/benches use them.

#include <gtest/gtest.h>

#include "msoc/analog/experiment.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/plan/report.hpp"
#include "msoc/plan/request.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/itc02.hpp"
#include "msoc/tam/packing.hpp"
#include "msoc/testsim/replay.hpp"
#include "reference_fig3.hpp"

namespace msoc {
namespace {

TEST(Integration, FullPipelineOnP93791m) {
  // 1. Load the benchmark through the file format (round trip).
  const soc::Soc soc =
      soc::parse_soc_string(soc::write_soc_string(soc::make_p93791m()));

  // 2. Optimize at W=32 with balanced weights, as msoc_plan --width 32.
  plan::PlanRequest request;
  request.width = 32;
  const plan::PlanOutcome outcome = plan::execute(request, {soc}, nullptr);
  const plan::FrontierPoint& result =
      outcome.sweep->series.front().points.front();

  // 3. The winning plan's schedule must replay cleanly.
  const testsim::ReplayReport report =
      testsim::replay(soc, *outcome.schedule);
  EXPECT_TRUE(report.clean()) << report.summary();

  // 4. Cost structure sanity.
  EXPECT_GT(result.best.total, 0.0);
  EXPECT_LE(result.best.c_time, 100.0 + 1e-9);
  EXPECT_LE(result.best.c_area, 100.0 + 1e-9);
  EXPECT_LT(result.evaluations, 26);
}

TEST(Integration, HeuristicMatchesExhaustiveAtWidth64) {
  const soc::Soc soc = soc::make_p93791m();
  plan::FrontierOptions options;
  options.widths = {64};
  const plan::FrontierPoint heuristic =
      plan::FrontierEngine(soc, options).run().points.front();
  options.exhaustive = true;
  const plan::FrontierPoint exhaustive =
      plan::FrontierEngine(soc, options).run().points.front();

  EXPECT_LE(heuristic.best.total, exhaustive.best.total * 1.05);
}

TEST(Integration, MixedSignalD695Variant) {
  // d695 plus two analog cores: a smaller mixed-signal SOC end to end.
  soc::Soc soc = soc::make_d695();
  auto analog = soc::table2_analog_cores();
  soc.add_analog(analog[2]);  // C: CODEC
  soc.add_analog(analog[4]);  // E: amplifier
  soc.set_name("d695m");

  const test::fig3::Result result = test::fig3::exhaustive(soc, 16);

  const tam::Schedule schedule = tam::schedule_soc(
      soc, 16,
      mswrap::to_analog_partition(soc.analog_cores(), result.best.partition));
  EXPECT_TRUE(testsim::replay(soc, schedule).clean());
  // Two distinct cores: share or not — 1 combination each... the share
  // combination plus standalone = C and E can only form {C,E} or {C}{E}.
  EXPECT_EQ(result.total_combinations, 1);  // only {C,E} (no-share excluded)
}

TEST(Integration, Table3AllShareColumnIs100Everywhere) {
  const soc::Soc soc = soc::make_p93791m();
  const plan::Table3 t3 = plan::make_table3(soc, {24, 40});
  for (const plan::Table3Row& row : t3.rows) {
    if (row.wrapper_count == 1) {
      for (double c : row.c_time) EXPECT_NEAR(c, 100.0, 1e-9);
    }
  }
}

TEST(Integration, Fig5AndPlanningAgreeOnWrapperTiming) {
  // The f_c test of core A runs at 1.5 MHz on 4 TAM wires in Table 2;
  // the behavioral wrapper must be able to sustain that configuration.
  const soc::Soc soc = soc::make_p93791m();
  const soc::AnalogCore& a = soc.analog_by_name("A");
  const soc::AnalogTestSpec* fc = nullptr;
  for (const auto& t : a.tests) {
    if (t.name == "f_c") fc = &t;
  }
  ASSERT_NE(fc, nullptr);

  analog::WrapperConfig config;
  config.tam_width = fc->tam_width;
  const analog::AnalogTestWrapper wrapper(config);
  analog::TestConfiguration test;
  test.sampling_frequency = fc->f_sample;
  test.sample_count = 4096;
  EXPECT_TRUE(wrapper.timing(test).io_rate_feasible);
}

TEST(Integration, BasebandTestsAreWrapperStreamable) {
  // The low/mid-frequency tests of cores A, B and C — the application
  // domain §1 targets — must satisfy the wrapper's serial-register rate
  // constraint at the 50 MHz TAM clock.  Cores D and E carry RF-rate
  // tests (26-78 MHz sampling) that are captured into the wrapper's
  // registers and read back subsampled, so they are exempt.
  for (const soc::AnalogCore& core : soc::table2_analog_cores()) {
    if (core.name == "D" || core.name == "E") continue;
    for (const soc::AnalogTestSpec& spec : core.tests) {
      analog::WrapperConfig config;
      config.tam_width = spec.tam_width;
      const analog::AnalogTestWrapper wrapper(config);
      analog::TestConfiguration test;
      test.sampling_frequency = spec.f_sample;
      test.sample_count = 64;
      EXPECT_TRUE(wrapper.timing(test).io_rate_feasible)
          << core.name << "." << spec.name;
    }
  }
}

TEST(Integration, DeterministicEndToEnd) {
  const soc::Soc soc = soc::make_p93791m();
  plan::FrontierOptions options;
  options.widths = {48};
  const plan::FrontierPoint r1 =
      plan::FrontierEngine(soc, options).run().points.front();
  const plan::FrontierPoint r2 =
      plan::FrontierEngine(soc, options).run().points.front();
  EXPECT_EQ(r1.best.label, r2.best.label);
  EXPECT_DOUBLE_EQ(r1.best.total, r2.best.total);
  EXPECT_EQ(r1.evaluations, r2.evaluations);
}

}  // namespace
}  // namespace msoc
