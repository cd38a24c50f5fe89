#include "msoc/soc/soc.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "msoc/common/error.hpp"
#include "msoc/soc/benchmarks.hpp"

namespace msoc::soc {
namespace {

DigitalCore simple_digital(const std::string& name) {
  DigitalCore c;
  c.id = 1;
  c.name = name;
  c.inputs = 4;
  c.outputs = 4;
  c.scan_chain_lengths = {10, 20};
  c.patterns = 5;
  return c;
}

TEST(DigitalCoreModel, ScanCellsAndWrapperCells) {
  const DigitalCore c = simple_digital("x");
  EXPECT_EQ(c.total_scan_cells(), 30);
  EXPECT_EQ(c.wrapper_cell_count(), 8);
}

TEST(DigitalCoreModel, BidirsCountTwice) {
  DigitalCore c = simple_digital("x");
  c.bidirs = 3;
  EXPECT_EQ(c.wrapper_cell_count(), 4 + 4 + 6);
}

TEST(DigitalCoreModel, ValidationRejectsNonsense) {
  DigitalCore c = simple_digital("x");
  c.scan_chain_lengths = {0};
  EXPECT_THROW(c.validate(), InfeasibleError);
  c = simple_digital("x");
  c.inputs = -1;
  EXPECT_THROW(c.validate(), InfeasibleError);
  c = simple_digital("x");
  c.patterns = -5;
  EXPECT_THROW(c.validate(), InfeasibleError);
}

TEST(DigitalCoreModel, IoSumsPastIntMaxAreInfeasible) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  DigitalCore c = simple_digital("wide");
  c.inputs = kIntMax;
  c.bidirs = 1;
  EXPECT_THROW(c.validate(), InfeasibleError);
  c.inputs = 0;
  c.outputs = kIntMax;
  EXPECT_THROW(c.validate(), InfeasibleError);
  // Exactly INT_MAX per direction is a valid core.
  c.outputs = kIntMax - 1;
  c.inputs = kIntMax - 1;
  EXPECT_NO_THROW(c.validate());
  c.bidirs = 0;
  c.inputs = kIntMax;
  c.outputs = kIntMax;
  EXPECT_NO_THROW(c.validate());
  // The cell count no longer wraps: 2 * INT_MAX cells.
  EXPECT_EQ(c.wrapper_cell_count(), 2LL * kIntMax);
}

TEST(DigitalCoreModel, ValidationRejectsZeroPatternsNamingTheCore) {
  // Zero patterns means a zero-length test, which no schedule can place.
  DigitalCore c = simple_digital("cpu7");
  c.patterns = 0;
  try {
    c.validate();
    FAIL() << "expected InfeasibleError";
  } catch (const InfeasibleError& e) {
    EXPECT_NE(std::string(e.what()).find("cpu7"), std::string::npos);
  }
}

AnalogCore two_test_core() {
  AnalogCore a;
  a.name = "X";
  AnalogTestSpec t1;
  t1.name = "t1";
  t1.f_sample = Hertz(1e6);
  t1.cycles = 100;
  t1.tam_width = 2;
  t1.resolution_bits = 8;
  AnalogTestSpec t2;
  t2.name = "t2";
  t2.f_sample = Hertz(4e6);
  t2.cycles = 250;
  t2.tam_width = 5;
  t2.resolution_bits = 6;
  a.tests = {t1, t2};
  return a;
}

TEST(AnalogCoreModel, Aggregates) {
  const AnalogCore a = two_test_core();
  EXPECT_EQ(a.total_cycles(), 350u);
  EXPECT_EQ(a.tam_width(), 5);
  EXPECT_DOUBLE_EQ(a.max_sampling_frequency().hz(), 4e6);
  EXPECT_EQ(a.resolution_bits(), 8);
}

TEST(AnalogCoreModel, TestsEquivalentIgnoresOrderAndNames) {
  AnalogCore a = two_test_core();
  AnalogCore b = two_test_core();
  b.name = "Y";
  std::swap(b.tests[0], b.tests[1]);
  b.tests[0].name = "renamed";
  EXPECT_TRUE(a.tests_equivalent(b));
}

TEST(AnalogCoreModel, TestsEquivalentSeesCycleDifference) {
  AnalogCore a = two_test_core();
  AnalogCore b = two_test_core();
  b.tests[0].cycles = 101;
  EXPECT_FALSE(a.tests_equivalent(b));
}

TEST(AnalogCoreModel, ValidationRejectsBadTests) {
  AnalogCore a = two_test_core();
  a.tests[0].cycles = 0;
  EXPECT_THROW(a.validate(), InfeasibleError);
  a = two_test_core();
  a.tests.clear();
  EXPECT_THROW(a.validate(), InfeasibleError);
  a = two_test_core();
  a.tests[1].tam_width = 0;
  EXPECT_THROW(a.validate(), InfeasibleError);
}

TEST(SocModel, AddAndQuery) {
  Soc soc("test");
  soc.add_digital(simple_digital("d1"));
  soc.add_analog(two_test_core());
  EXPECT_EQ(soc.digital_count(), 1u);
  EXPECT_EQ(soc.analog_count(), 1u);
  EXPECT_TRUE(soc.is_mixed_signal());
  EXPECT_EQ(soc.analog_by_name("X").total_cycles(), 350u);
  EXPECT_THROW((void)soc.analog_by_name("missing"), InfeasibleError);
}

TEST(SocModel, RejectsDuplicateAnalogNames) {
  Soc soc("test");
  soc.add_analog(two_test_core());
  EXPECT_THROW(soc.add_analog(two_test_core()), InfeasibleError);
}

TEST(SocModel, Totals) {
  Soc soc("test");
  soc.add_digital(simple_digital("d1"));
  soc.add_digital(simple_digital("d2"));
  soc.add_analog(two_test_core());
  EXPECT_EQ(soc.total_scan_cells(), 60);
  EXPECT_EQ(soc.total_patterns(), 10);
  EXPECT_EQ(soc.total_analog_cycles(), 350u);
}

TEST(SocModel, DigitalOnlyIsNotMixedSignal) {
  Soc soc("d");
  soc.add_digital(simple_digital("d1"));
  EXPECT_FALSE(soc.is_mixed_signal());
  EXPECT_EQ(soc.total_analog_cycles(), 0u);
}

TEST(SocModel, PowerBudgetAndPeaks) {
  Soc soc("p");
  EXPECT_FALSE(soc.power_constrained());
  EXPECT_DOUBLE_EQ(soc.peak_test_power(), 0.0);
  soc.set_max_power(250.0);
  EXPECT_TRUE(soc.power_constrained());
  EXPECT_DOUBLE_EQ(soc.max_power(), 250.0);
  EXPECT_THROW(soc.set_max_power(-1.0), InfeasibleError);

  DigitalCore d;
  d.name = "d";
  d.inputs = 1;
  d.patterns = 1;
  d.power = 120.0;
  soc.add_digital(d);
  AnalogCore a = two_test_core();
  a.tests[0].power = 80.0;
  a.tests[1].power = 140.0;
  soc.add_analog(a);
  EXPECT_DOUBLE_EQ(a.max_power(), 140.0);
  EXPECT_DOUBLE_EQ(soc.peak_test_power(), 140.0);
}

TEST(SocModel, NegativePowersRejectedByValidation) {
  DigitalCore d;
  d.name = "d";
  d.inputs = 1;
  d.patterns = 1;
  d.power = -0.5;
  EXPECT_THROW(d.validate(), InfeasibleError);
  AnalogCore a = two_test_core();
  a.tests[0].power = -1.0;
  EXPECT_THROW(a.validate(), InfeasibleError);
}

TEST(AnalogCoreModel, TestsEquivalentSeesPowerDifference) {
  AnalogCore a = two_test_core();
  AnalogCore b = two_test_core();
  EXPECT_TRUE(a.tests_equivalent(b));
  b.tests[0].power = 99.0;
  EXPECT_FALSE(a.tests_equivalent(b));
}

}  // namespace
}  // namespace msoc::soc
