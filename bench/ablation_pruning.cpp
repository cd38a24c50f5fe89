// Ablation: the Cost_Optimizer's elimination threshold epsilon (Fig. 3,
// line 16).  epsilon = 0 prunes aggressively (the paper's setting);
// larger values trade evaluations for a guarantee of optimality.

#include <cstdio>
#include <vector>

#include "msoc/common/table.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/benchmarks.hpp"

namespace {

/// The one cell of a W = 48 engine run; evaluations become the paper's
/// N (the engine's packs plus the members its bound skipped).
msoc::plan::FrontierPoint solve(const msoc::soc::Soc& soc, bool exhaustive,
                                double epsilon) {
  msoc::plan::FrontierOptions options;
  options.widths = {48};
  options.exhaustive = exhaustive;
  options.epsilon = epsilon;
  msoc::plan::FrontierPoint point =
      msoc::plan::FrontierEngine(soc, options).run().points.front();
  point.evaluations += point.pruned;
  return point;
}

}  // namespace

int main() {
  using namespace msoc;
  std::puts("=== Pruning ablation: Cost_Optimizer epsilon sweep ===");
  std::puts("p93791m, W = 48, w_T = w_A = 0.5\n");

  const soc::Soc soc = soc::make_p93791m();
  const plan::FrontierPoint exhaustive = solve(soc, true, 0.0);

  TextTable table(
      {"epsilon", "N evaluated", "%R", "cost", "gap vs optimal"});
  table.set_alignment({Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight});

  for (double epsilon : {0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0}) {
    const plan::FrontierPoint r = solve(soc, false, epsilon);
    table.add_row({fixed(epsilon, 1), std::to_string(r.evaluations),
                   fixed(plan::evaluation_reduction_percent(
                             r.evaluations, r.total_combinations),
                         1),
                   fixed(r.best.total, 2),
                   fixed(r.best.total - exhaustive.best.total, 2)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\nexhaustive: cost %.2f with %d evaluations\n",
              exhaustive.best.total, exhaustive.evaluations);
  return 0;
}
