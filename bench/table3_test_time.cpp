// Regenerates paper Table 3: normalized SOC test time C_time for every
// wrapper-sharing combination of p93791m at W = 32, 48, 64 (100 = the
// all-share worst case at each width).
//
// Paper anchors: all-share = 100 in every column; the spread between the
// best and worst combination GROWS with W (paper: 2.45 / 7.36 / 17.18 —
// the analog cores matter more once the digital cores test quickly).

#include <cstdio>

#include "msoc/plan/report.hpp"
#include "msoc/soc/benchmarks.hpp"

int main() {
  using namespace msoc;
  std::puts("=== Table 3: C_time per sharing combination, p93791m ===");
  std::puts("(* marks the column minimum, as highlighted in the paper)\n");

  const soc::Soc soc = soc::make_p93791m();
  const plan::Table3 table = plan::make_table3(soc, {32, 48, 64});
  std::fputs(table.render().c_str(), stdout);

  std::puts("\npaper spreads for comparison: W=32: 2.45  W=48: 7.36  "
            "W=64: 17.18");
  return 0;
}
