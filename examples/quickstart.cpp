// Quickstart: plan the test of a mixed-signal SOC in ~30 lines.
//
//  1. Load the p93791m benchmark (p93791 + five analog cores).
//  2. Plan it at TAM width 32 with the Cost_Optimizer heuristic, through
//     the same plan::execute that serves `msoc_plan --width 32`.
//  3. Print the chosen wrapper-sharing plan, its cost breakdown and the
//     resulting test schedule.

#include <cstdio>

#include "msoc/plan/request.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/tam/schedule.hpp"

int main() {
  using namespace msoc;

  // A mixed-signal SOC: 32 digital cores + analog cores A..E.
  const soc::Soc soc = soc::make_p93791m();
  std::printf("SOC %s: %zu digital cores, %zu analog cores\n",
              soc.name().c_str(), soc.digital_count(), soc.analog_count());

  // Describe the request: one plan, TAM width and cost weights.
  plan::PlanRequest request;
  request.width = 32;
  request.w_time = 0.5;  // balance test time and area overhead

  // Optimize: the Fig.-3 heuristic prunes the sharing-combination space.
  const plan::PlanOutcome outcome = plan::execute(request, {soc}, nullptr);
  const plan::FrontierPoint& result =
      outcome.sweep->series.front().points.front();

  std::printf("\nbest wrapper sharing: %s\n", result.best.label.c_str());
  std::printf("  test time: %llu cycles (C_time = %.1f)\n",
              static_cast<unsigned long long>(result.best.test_time),
              result.best.c_time);
  std::printf("  area overhead C_A = %.1f\n", result.best.c_area);
  std::printf("  total cost C = %.1f after %d TAM-optimizer runs "
              "(exhaustive needs %d)\n",
              result.best.total, result.evaluations,
              result.total_combinations - 1);

  // Display the winning schedule.
  const tam::Schedule& schedule = *outcome.schedule;
  std::printf("\nschedule (W=%d, makespan %llu cycles, utilization %.1f%%):\n",
              schedule.tam_width,
              static_cast<unsigned long long>(schedule.makespan()),
              100.0 * schedule.utilization());
  std::fputs(tam::render_gantt(schedule).c_str(), stdout);
  return 0;
}
