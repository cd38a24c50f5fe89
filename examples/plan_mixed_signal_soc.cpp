// Full planning walkthrough on p93791m — the paper's evaluation flow:
//
//  * sweep TAM widths and weights,
//  * compare the Cost_Optimizer heuristic with exhaustive search,
//  * validate the winning schedule with the independent replay simulator,
//  * export the schedule as CSV for external plotting.

#include <cstdio>
#include <fstream>

#include "msoc/plan/frontier.hpp"
#include "msoc/plan/request.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/testsim/replay.hpp"

int main() {
  using namespace msoc;
  const soc::Soc soc = soc::make_p93791m();

  std::puts("== mixed-signal test planning on p93791m ==\n");

  // --- sweep widths at balanced weights ---
  std::puts("W    exhaustive-cost  heuristic-cost  N(exh)  N(heur)  plan");
  plan::FrontierOptions ladder;
  ladder.widths = {24, 32, 48, 64};
  const plan::FrontierResult heuristic =
      plan::FrontierEngine(soc, ladder).run();
  ladder.exhaustive = true;
  const plan::FrontierResult exhaustive =
      plan::FrontierEngine(soc, ladder).run();
  for (std::size_t i = 0; i < heuristic.points.size(); ++i) {
    const plan::FrontierPoint& e = exhaustive.points[i];
    const plan::FrontierPoint& h = heuristic.points[i];
    // The paper's N counts the members the engine's bound skipped too.
    std::printf("%-4d %15.2f %15.2f %7d %8d  %s\n", h.tam_width,
                e.best.total, h.best.total, e.evaluations,
                h.evaluations + h.pruned, h.best.label.c_str());
  }

  // --- weight study at W = 48 ---
  std::puts("\nweight study at W = 48:");
  for (double w_time : {0.25, 0.5, 0.75}) {
    plan::FrontierOptions options;
    options.widths = {48};
    options.weights = {w_time, 1.0 - w_time};
    const plan::CombinationCost r =
        plan::FrontierEngine(soc, options).run().points.front().best;
    std::printf("  w_T=%.2f w_A=%.2f -> %-18s (C=%.1f, C_time=%.1f, "
                "C_A=%.1f)\n",
                w_time, 1.0 - w_time, r.label.c_str(), r.total, r.c_time,
                r.c_area);
  }

  // --- validate and export the W=48 balanced plan ---
  plan::PlanRequest request;
  request.width = 48;
  const plan::PlanOutcome outcome = plan::execute(request, {soc}, nullptr);
  const tam::Schedule& schedule = *outcome.schedule;

  const testsim::ReplayReport report = testsim::replay(soc, schedule);
  std::printf("\nreplay check: %s\n", report.summary().c_str());

  const char* csv_path = "p93791m_schedule.csv";
  std::ofstream csv(csv_path);
  csv << tam::schedule_to_csv(schedule);
  std::printf("schedule exported to %s (%zu tests)\n", csv_path,
              schedule.tests.size());
  return report.clean() ? 0 : 1;
}
