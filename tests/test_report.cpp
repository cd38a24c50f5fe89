#include "msoc/plan/report.hpp"

#include <gtest/gtest.h>

#include "msoc/common/error.hpp"

#include "msoc/soc/benchmarks.hpp"

namespace msoc::plan {
namespace {

TEST(Table1Report, TwentySixRowsInPaperOrder) {
  const Table1 t = make_table1(soc::table2_analog_cores());
  EXPECT_EQ(t.rows.size(), 26u);
  EXPECT_EQ(t.rows.front().wrapper_count, 4u);
  EXPECT_EQ(t.rows.back().wrapper_count, 1u);
  EXPECT_EQ(t.rows.back().label, "{A,B,C,D,E}");
  EXPECT_NEAR(t.rows.back().analog_lb_normalized, 100.0, 1e-9);
}

TEST(Table1Report, RendersAllCombinations) {
  const Table1 t = make_table1(soc::table2_analog_cores());
  const std::string text = t.render();
  EXPECT_NE(text.find("{A,C}"), std::string::npos);
  EXPECT_NE(text.find("{A,B,C,D,E}"), std::string::npos);
  EXPECT_NE(text.find("636,113"), std::string::npos);
}

TEST(Table2Report, RendersEveryTestRow) {
  const Table2 t = make_table2(soc::table2_analog_cores());
  const std::string text = t.render();
  EXPECT_NE(text.find("G_pb"), std::string::npos);
  EXPECT_NE(text.find("IIP3"), std::string::npos);
  EXPECT_NE(text.find("THD"), std::string::npos);
  EXPECT_NE(text.find("50,000"), std::string::npos);
  EXPECT_NE(text.find("136,533"), std::string::npos);
  EXPECT_NE(text.find("DC"), std::string::npos);  // DC offset band edges
  EXPECT_NE(text.find("78 MHz"), std::string::npos);
}

TEST(Table3Report, StructureAndNormalization) {
  const soc::Soc soc = soc::make_p93791m();
  const Table3 t = make_table3(soc, {32});
  EXPECT_EQ(t.rows.size(), 26u);
  for (const Table3Row& row : t.rows) {
    ASSERT_EQ(row.c_time.size(), 1u);
    EXPECT_GT(row.c_time[0], 0.0);
    EXPECT_LE(row.c_time[0], 100.0 + 1e-9);
    if (row.wrapper_count == 1) {
      EXPECT_NEAR(row.c_time[0], 100.0, 1e-9);
    }
  }
  EXPECT_EQ(t.spreads().size(), 1u);
  EXPECT_GT(t.spreads()[0], 0.0);
  const std::string text = t.render();
  EXPECT_NE(text.find("C_time W=32"), std::string::npos);
  EXPECT_NE(text.find("spread"), std::string::npos);
}

TEST(Table4Report, ComparesHeuristicWithExhaustive) {
  const soc::Soc soc = soc::make_p93791m();
  CostWeights balanced;
  const Table4 t = make_table4(soc, {32}, {balanced});
  ASSERT_EQ(t.blocks.size(), 1u);
  ASSERT_EQ(t.blocks[0].rows.size(), 1u);
  const Table4Row& row = t.blocks[0].rows[0];
  EXPECT_EQ(row.exhaustive_evaluations, 25);
  EXPECT_LT(row.heuristic_evaluations, row.exhaustive_evaluations);
  EXPECT_GE(row.heuristic_cost, row.exhaustive_cost - 1e-9);
  EXPECT_GT(row.evaluation_reduction, 0.0);
  const std::string text = t.render();
  EXPECT_NE(text.find("w_T = 0.50"), std::string::npos);
  EXPECT_NE(text.find("%R"), std::string::npos);
}

TEST(Table4Report, RejectsEmptyInputs) {
  const soc::Soc soc = soc::make_p93791m();
  const std::vector<CostWeights> one_weight = {CostWeights{}};
  const std::vector<CostWeights> no_weights;
  const std::vector<int> no_widths;
  const std::vector<int> one_width = {32};
  EXPECT_THROW(make_table4(soc, no_widths, one_weight),
               InfeasibleError);
  EXPECT_THROW(make_table4(soc, one_width, no_weights),
               InfeasibleError);
}

}  // namespace
}  // namespace msoc::plan
