#include "msoc/soc/itc02.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "msoc/common/error.hpp"
#include "msoc/soc/benchmarks.hpp"

namespace msoc::soc {
namespace {

constexpr const char* kSample = R"(
# a mixed-signal SOC
SocName demo
Module 1 cpu
  Inputs 10
  Outputs 8
  Bidirs 2
  ScanChains 100 90 80
  Patterns 42

Module 2 glue
  Inputs 5
  Outputs 5
  Patterns 7

AnalogModule A "I-Q transmit"
  Test f_c FLow 45e3 FHigh 55e3 FSample 1.5e6 Cycles 13653 Width 4 Resolution 8
  Test G_pb FLow 50e3 FHigh 50e3 FSample 1.5e6 Cycles 50000 Width 1 Resolution 8
)";

TEST(Itc02Parse, ParsesDigitalModules) {
  const Soc soc = parse_soc_string(kSample);
  EXPECT_EQ(soc.name(), "demo");
  ASSERT_EQ(soc.digital_count(), 2u);
  const DigitalCore& cpu = soc.digital_cores()[0];
  EXPECT_EQ(cpu.id, 1);
  EXPECT_EQ(cpu.name, "cpu");
  EXPECT_EQ(cpu.inputs, 10);
  EXPECT_EQ(cpu.bidirs, 2);
  ASSERT_EQ(cpu.scan_chain_lengths.size(), 3u);
  EXPECT_EQ(cpu.scan_chain_lengths[1], 90);
  EXPECT_EQ(cpu.patterns, 42);
}

TEST(Itc02Parse, ParsesAnalogModules) {
  const Soc soc = parse_soc_string(kSample);
  ASSERT_EQ(soc.analog_count(), 1u);
  const AnalogCore& a = soc.analog_cores()[0];
  EXPECT_EQ(a.name, "A");
  EXPECT_EQ(a.description, "I-Q transmit");
  ASSERT_EQ(a.tests.size(), 2u);
  EXPECT_EQ(a.tests[0].name, "f_c");
  EXPECT_EQ(a.tests[0].cycles, 13653u);
  EXPECT_EQ(a.tests[0].tam_width, 4);
  EXPECT_DOUBLE_EQ(a.tests[0].f_sample.hz(), 1.5e6);
}

TEST(Itc02Parse, CommentsAndBlankLinesIgnored) {
  const Soc soc = parse_soc_string(
      "# comment only\n\nSocName x # trailing comment\n");
  EXPECT_EQ(soc.name(), "x");
}

TEST(Itc02Parse, ErrorsCarryLineNumbers) {
  try {
    (void)parse_soc_string("SocName x\nbogus 1\n", "test.soc");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.file(), "test.soc");
  }
}

TEST(Itc02Parse, RejectsFieldOutsideModule) {
  EXPECT_THROW(parse_soc_string("Inputs 3\n"), ParseError);
  EXPECT_THROW(parse_soc_string("Test t Cycles 5\n"), ParseError);
}

TEST(Itc02Parse, RejectsNonNumericValues) {
  EXPECT_THROW(parse_soc_string("Module 1 m\nInputs many\n"), ParseError);
  EXPECT_THROW(
      parse_soc_string("AnalogModule A\nTest t Cycles fast Width 1\n"),
      ParseError);
}

TEST(Itc02Parse, RejectsUnknownTestAttribute) {
  EXPECT_THROW(
      parse_soc_string("AnalogModule A\nTest t Volts 5 Cycles 10\n"),
      ParseError);
}

/// The ParseError parsing `text` raises (a test failure when none is).
ParseError parse_error(const std::string& text) {
  try {
    (void)parse_soc_string(text, "d.soc");
  } catch (const ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected ParseError";
  return ParseError("d.soc", -1, "none");
}

TEST(Itc02Parse, RejectsInvalidCoreData) {
  // A module is validated once complete — at the next module header or
  // at EOF — and the ParseError names the failing module's header line.
  const std::string digital = "SocName x\nModule 1 m\nInputs -2\n"
                              "Outputs 1\nPatterns 1\n";
  const std::string analog =
      "SocName x\nAnalogModule A\n"
      "  Test G FLow 0 FHigh 0 FSample 10000 Cycles 50 Width 1 Resolution 8\n"
      "  Test DC FLow 0 FHigh 0 FSample 10000 Cycles 0 Width 1 Resolution 8\n";
  const std::string next_digital = "Module 2 n\nPatterns 1\n";
  const std::string next_analog =
      "AnalogModule B\n"
      "  Test G FLow 0 FHigh 0 FSample 10000 Cycles 50 Width 1 Resolution 8\n";

  for (const std::string& text : {digital, digital + next_digital,
                                  digital + next_analog}) {
    const ParseError e = parse_error(text);
    EXPECT_EQ(e.line(), 2) << text;
    EXPECT_NE(std::string(e.what()).find("I/O counts must be non-negative"),
              std::string::npos)
        << e.what();
  }
  for (const std::string& text : {analog, analog + next_digital,
                                  analog + next_analog}) {
    const ParseError e = parse_error(text);
    EXPECT_EQ(e.line(), 2) << text;
    EXPECT_NE(std::string(e.what()).find("test length must be positive"),
              std::string::npos)
        << e.what();
  }
  // A later module's error names its own header, not the first one's.
  EXPECT_EQ(parse_error("SocName x\nModule 1 m\nInputs 1\nPatterns 1\n" +
                        next_analog + "Module 3 k\nInputs -1\nPatterns 1\n")
                .line(),
            7);
}

TEST(Itc02Parse, RejectsZeroPatternsAtTheirLine) {
  try {
    (void)parse_soc_string(
        "SocName x\nModule 1 m\n  Inputs 1\n  Patterns 0\n", "zero.soc");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_NE(std::string(e.what()).find("Patterns must be positive"),
              std::string::npos);
  }
  // A module that never declares Patterns is rejected too, naming it.
  try {
    (void)parse_soc_string("Module 1 m\n  Inputs 1\n", "none.soc");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("core m"), std::string::npos);
  }
}

TEST(Itc02Parse, RejectsIntegersTheFieldCannotHoldAtTheirLine) {
  // Each value once narrowed silently: -5 cycles wrapped to 2^64 - 5,
  // the others to their low 32 bits (4, 10, 1 and 8).
  const std::string module = "SocName x\nModule 1 m\n";
  const std::string analog = "SocName x\nAnalogModule A\n  Test G FLow 0 "
                             "FHigh 0 FSample 10000 ";
  for (const std::string& text :
       {module + "  Inputs 4294967300\n  Patterns 1\n",
        module + "  ScanChains 8 4294967306\n  Inputs 1\n  Patterns 1\n",
        analog + "Cycles -5 Width 1 Resolution 8\nModule 2 n\n",
        analog + "Cycles 50 Width 4294967297 Resolution 8\n",
        analog + "Cycles 50 Width 1 Resolution 4294967304\n"}) {
    const ParseError e = parse_error(text);
    EXPECT_EQ(e.line(), 3) << text;
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
  // INT_MAX itself still parses, in every I/O field at once.
  const Soc widest = parse_soc_string(
      module + "  Inputs 2147483647\n  Outputs 2147483647\n"
               "  Bidirs 2147483647\n  Patterns 1\n");
  EXPECT_EQ(widest.digital_cores()[0].bidirs, 2147483647);
}

TEST(Itc02RoundTrip, NamelessSocWritesNoSocNameLine) {
  // A bare "SocName" is a parse error, so the writer must omit it.
  const Soc soc = parse_soc_string("Module 1 m\n  Inputs 1\n  Patterns 1\n");
  const std::string text = write_soc_string(soc);
  EXPECT_EQ(text.find("SocName"), std::string::npos) << text;
  EXPECT_EQ(write_soc_string(parse_soc_string(text)), text);
}

TEST(Itc02RoundTrip, WriteThenParseIsIdentity) {
  const Soc original = parse_soc_string(kSample);
  const std::string text = write_soc_string(original);
  const Soc back = parse_soc_string(text);

  EXPECT_EQ(back.name(), original.name());
  ASSERT_EQ(back.digital_count(), original.digital_count());
  for (std::size_t i = 0; i < original.digital_count(); ++i) {
    const DigitalCore& a = original.digital_cores()[i];
    const DigitalCore& b = back.digital_cores()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.inputs, b.inputs);
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.bidirs, b.bidirs);
    EXPECT_EQ(a.scan_chain_lengths, b.scan_chain_lengths);
    EXPECT_EQ(a.patterns, b.patterns);
  }
  ASSERT_EQ(back.analog_count(), original.analog_count());
  for (std::size_t i = 0; i < original.analog_count(); ++i) {
    EXPECT_TRUE(
        back.analog_cores()[i].tests_equivalent(original.analog_cores()[i]));
    EXPECT_EQ(back.analog_cores()[i].description,
              original.analog_cores()[i].description);
  }
}

TEST(Itc02RoundTrip, BenchmarksRoundTrip) {
  for (const Soc& soc : {make_d695(), make_p93791m()}) {
    const Soc back = parse_soc_string(write_soc_string(soc));
    EXPECT_EQ(back.name(), soc.name());
    EXPECT_EQ(back.digital_count(), soc.digital_count());
    EXPECT_EQ(back.analog_count(), soc.analog_count());
    EXPECT_EQ(back.total_scan_cells(), soc.total_scan_cells());
    EXPECT_EQ(back.total_patterns(), soc.total_patterns());
    EXPECT_EQ(back.total_analog_cycles(), soc.total_analog_cycles());
  }
}

TEST(Itc02File, MissingFileThrows) {
  EXPECT_THROW(load_soc_file("/nonexistent/path.soc"), ParseError);
}

TEST(Itc02File, EmptyFileRejectedWithPathInMessage) {
  const std::string path = ::testing::TempDir() + "empty_test.soc";
  std::ofstream(path).close();
  try {
    (void)load_soc_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), path);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST(Itc02File, DirectoryRejectedWithPathInMessage) {
  // ifstream "opens" directories on POSIX; the loader must not hand back
  // a bogus empty SOC for them.
  try {
    (void)load_soc_file(::testing::TempDir());
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(::testing::TempDir()),
              std::string::npos);
  }
}

// --- Power fields: parse, round-trip, reject malformed lines. ---

constexpr const char* kPowerSample = R"(
SocName powered
MaxPower 950.5
Module 1 cpu
  Inputs 4
  Outputs 4
  Patterns 10
  Power 120.25
AnalogModule A "hot block"
  Test f_c FLow 45e3 FHigh 55e3 FSample 1.5e6 Cycles 13653 Width 4 Resolution 8 Power 75.5
  Test G FLow 1e3 FHigh 1e3 FSample 1e6 Cycles 500 Width 1 Resolution 8
)";

TEST(Itc02Power, ParsesPowerAndMaxPower) {
  const Soc soc = parse_soc_string(kPowerSample);
  EXPECT_DOUBLE_EQ(soc.max_power(), 950.5);
  EXPECT_TRUE(soc.power_constrained());
  ASSERT_EQ(soc.digital_count(), 1u);
  EXPECT_DOUBLE_EQ(soc.digital_cores()[0].power, 120.25);
  ASSERT_EQ(soc.analog_count(), 1u);
  EXPECT_DOUBLE_EQ(soc.analog_cores()[0].tests[0].power, 75.5);
  // Undeclared powers default to 0 (negligible).
  EXPECT_DOUBLE_EQ(soc.analog_cores()[0].tests[1].power, 0.0);
  EXPECT_DOUBLE_EQ(soc.analog_cores()[0].max_power(), 75.5);
  EXPECT_DOUBLE_EQ(soc.peak_test_power(), 120.25);
}

TEST(Itc02Power, RoundTripPreservesPowerExactly) {
  const Soc original = parse_soc_string(kPowerSample);
  const Soc back = parse_soc_string(write_soc_string(original));
  EXPECT_DOUBLE_EQ(back.max_power(), original.max_power());
  EXPECT_DOUBLE_EQ(back.digital_cores()[0].power,
                   original.digital_cores()[0].power);
  EXPECT_DOUBLE_EQ(back.analog_cores()[0].tests[0].power,
                   original.analog_cores()[0].tests[0].power);
  // A full-precision budget survives the shortest-round-trip writer.
  Soc precise = parse_soc_string(kPowerSample);
  precise.set_max_power(123.456789012345678);
  const Soc precise_back = parse_soc_string(write_soc_string(precise));
  EXPECT_EQ(precise_back.max_power(), precise.max_power());
}

TEST(Itc02Power, UnconstrainedSocWritesThePrePowerDialect) {
  // No Power/MaxPower lines may appear for an unannotated SOC — golden
  // files and digests depend on it.
  const std::string text = write_soc_string(make_p93791m());
  EXPECT_EQ(text.find("Power"), std::string::npos);
}

TEST(Itc02Power, RejectsNegativePowerWithLineNumber) {
  try {
    (void)parse_soc_string(
        "SocName x\nModule 1 m\n  Inputs 1\n  Power -5\n", "bad.soc");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_NE(std::string(e.what()).find("non-negative"),
              std::string::npos);
  }
}

TEST(Itc02Power, RejectsNonNumericPowerWithLineNumber) {
  try {
    (void)parse_soc_string(
        "SocName x\nMaxPower lots\n", "bad.soc");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
  // Per-test powers are checked the same way.
  EXPECT_THROW(
      (void)parse_soc_string("AnalogModule A\n  Test t FSample 1e6 Cycles 5 "
                             "Power hot\n"),
      ParseError);
  EXPECT_THROW((void)parse_soc_string(
                   "AnalogModule A\n  Test t FSample 1e6 Cycles 5 "
                   "Power -1\n"),
               ParseError);
}

TEST(Itc02Power, RejectsDuplicateMaxPowerWithLineNumber) {
  try {
    (void)parse_soc_string("SocName x\nMaxPower 10\nMaxPower 20\n",
                           "bad.soc");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("duplicate MaxPower"),
              std::string::npos);
  }
}

TEST(Itc02Power, RejectsNegativeMaxPowerAndPowerOutsideModule) {
  EXPECT_THROW((void)parse_soc_string("MaxPower -1\n"), ParseError);
  EXPECT_THROW((void)parse_soc_string("Power 5\n"), ParseError);
  // Power is a Module keyword, not an AnalogModule one.
  EXPECT_THROW((void)parse_soc_string("AnalogModule A\n  Power 5\n"),
               ParseError);
}

// --- PowerWindow: the sliding-window budget dialect. ---

TEST(Itc02PowerWindow, ParsesWindowLengthAndLimit) {
  const Soc soc = parse_soc_string(
      "SocName w\nMaxPower 950.5\nPowerWindow 4096 120.5\n");
  EXPECT_TRUE(soc.power_windowed());
  EXPECT_EQ(soc.power_window().cycles, 4096u);
  EXPECT_DOUBLE_EQ(soc.power_window().limit, 120.5);
  // A window without MaxPower is legal: the peak and windowed
  // constraints are independent.
  const Soc bare = parse_soc_string("SocName w\nPowerWindow 10 1.5\n");
  EXPECT_TRUE(bare.power_windowed());
  EXPECT_FALSE(bare.power_constrained());
}

TEST(Itc02PowerWindow, RoundTripPreservesWindowExactly) {
  Soc original = parse_soc_string(kPowerSample);
  original.set_power_window({8192, 17.989432843724327});
  const Soc back = parse_soc_string(write_soc_string(original));
  EXPECT_TRUE(back.power_windowed());
  EXPECT_EQ(back.power_window().cycles, original.power_window().cycles);
  // Bit-exact, not just close: the writer emits the shortest string
  // that round-trips.
  EXPECT_EQ(back.power_window().limit, original.power_window().limit);
}

TEST(Itc02PowerWindow, UnwindowedSocNeverWritesTheLine) {
  // The conditional dialect contract: an unannotated SOC's bytes (and
  // therefore its digest and any golden file) must not change just
  // because the toolchain learned a new keyword.
  EXPECT_EQ(write_soc_string(make_d695()).find("PowerWindow"),
            std::string::npos);
  EXPECT_EQ(write_soc_string(parse_soc_string(kPowerSample))
                .find("PowerWindow"),
            std::string::npos);
}

TEST(Itc02PowerWindow, RejectsMalformedDeclarations) {
  // Wrong arity.
  EXPECT_THROW((void)parse_soc_string("PowerWindow 4096\n"), ParseError);
  EXPECT_THROW((void)parse_soc_string("PowerWindow 4096 1 2\n"),
               ParseError);
  // Non-positive window or limit.
  EXPECT_THROW((void)parse_soc_string("PowerWindow 0 5\n"), ParseError);
  EXPECT_THROW((void)parse_soc_string("PowerWindow -16 5\n"), ParseError);
  EXPECT_THROW((void)parse_soc_string("PowerWindow 16 0\n"), ParseError);
  EXPECT_THROW((void)parse_soc_string("PowerWindow 16 -1\n"), ParseError);
  // Non-numeric fields.
  EXPECT_THROW((void)parse_soc_string("PowerWindow wide 5\n"), ParseError);
  EXPECT_THROW((void)parse_soc_string("PowerWindow 16 hot\n"), ParseError);
}

TEST(Itc02PowerWindow, RejectsDuplicateWithLineNumber) {
  try {
    (void)parse_soc_string(
        "SocName x\nPowerWindow 16 5\nPowerWindow 32 6\n", "bad.soc");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("duplicate PowerWindow"),
              std::string::npos);
  }
}

// Shortest-round-trip property: every awkward double survives a
// write/parse cycle bit-exactly.  This is the regression net for the
// precision bugfix — the old fixed-precision writer truncated values
// like 0.1 and 1e-3 and quietly shifted budgets on re-load.
TEST(Itc02PowerWindow, AwkwardDoublesRoundTripBitExactly) {
  const double awkward[] = {
      0.1, 0.2, 0.3, 1e-3, 1e-6, 2.0 / 3.0, 1.0 + 1e-15,
      123.456789012345678, 1e15, 9.875e22, 17.989432843724327,
  };
  for (const double value : awkward) {
    SCOPED_TRACE(value);
    Soc soc("rt");
    soc.set_max_power(value * 4.0);
    soc.set_power_window({4096, value});
    DigitalCore core;
    core.id = 1;
    core.name = "c";
    core.inputs = 1;
    core.patterns = 1;
    core.power = value * 2.0;
    soc.add_digital(std::move(core));
    AnalogCore analog;
    analog.name = "A";
    AnalogTestSpec test;
    test.name = "t";
    test.f_sample = Hertz(1e6);
    test.cycles = 10;
    test.power = value;
    analog.tests.push_back(test);
    soc.add_analog(std::move(analog));

    const Soc back = parse_soc_string(write_soc_string(soc));
    EXPECT_EQ(back.max_power(), soc.max_power());
    EXPECT_EQ(back.power_window().limit, value);
    EXPECT_EQ(back.digital_cores()[0].power, value * 2.0);
    EXPECT_EQ(back.analog_cores()[0].tests[0].power, value);
    // Idempotent writer: a second cycle emits identical bytes.
    EXPECT_EQ(write_soc_string(back), write_soc_string(soc));
  }
}

}  // namespace
}  // namespace msoc::soc
