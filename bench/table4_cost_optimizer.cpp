// Regenerates paper Table 4: the Cost_Optimizer heuristic (Fig. 3)
// against exhaustive evaluation on p93791m for three weight settings and
// W in {32, 40, 48, 56, 64}.
//
// Paper anchors: the heuristic is optimal in all but one case; it
// evaluates N << 26 combinations (N = 10 typical, N = 7 once), a 61.5 %
// to 73 % reduction; the exhaustive baseline always evaluates all
// combinations (the all-share normalization run is free in both).
// Both columns come from one-width plan::FrontierEngine runs; N (heur)
// counts the engine's packs plus the members its lower bound skipped,
// which is what Fig. 3 itself would pack.

#include <cstdio>

#include "msoc/plan/report.hpp"
#include "msoc/soc/benchmarks.hpp"

int main() {
  using namespace msoc;
  std::puts("=== Table 4: Cost_Optimizer vs exhaustive, p93791m ===\n");

  const soc::Soc soc = soc::make_p93791m();
  const std::vector<plan::CostWeights> weights = {
      {0.50, 0.50}, {0.75, 0.25}, {0.25, 0.75}};
  const plan::Table4 table =
      plan::make_table4(soc, {32, 40, 48, 56, 64}, weights);
  std::fputs(table.render().c_str(), stdout);

  int optimal = 0;
  int rows = 0;
  double min_reduction = 100.0;
  for (const plan::Table4Block& block : table.blocks) {
    for (const plan::Table4Row& row : block.rows) {
      ++rows;
      if (row.heuristic_optimal()) ++optimal;
      if (row.evaluation_reduction < min_reduction) {
        min_reduction = row.evaluation_reduction;
      }
    }
  }
  std::printf("heuristic optimal in %d/%d cases (paper: 14/15); "
              "evaluation reduction >= %.1f%% (paper: 61.5-73.0%%)\n",
              optimal, rows, min_reduction);
  return 0;
}
