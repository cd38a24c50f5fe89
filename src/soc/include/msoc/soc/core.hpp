#pragma once
// Core-level data model for mixed-signal SOC test planning.
//
// Digital cores carry the ITC'02 test parameters (I/O counts, scan chains,
// pattern count) consumed by the Design_wrapper algorithm.  Analog cores
// carry their specification tests (paper Table 2): each test has a
// frequency band, a converter sampling frequency, a fixed test length in
// TAM clock cycles and a TAM width requirement.  Analog test time does
// not scale with TAM width — the defining asymmetry the paper exploits.
//
// Every test additionally declares its power dissipation (arbitrary but
// SOC-wide consistent units, e.g. mW).  Power is the classic second
// scheduling axis of SOC test planning: the paper's Eq. 2 model caps
// only the TAM width, but a real test floor also caps the instantaneous
// sum of concurrently-running tests' power at Soc::max_power.  A power
// of 0 (the default everywhere) means "negligible", so purely
// width-constrained models keep working unchanged.

#include <string>
#include <vector>

#include "msoc/common/units.hpp"

namespace msoc::soc {

/// A digital embedded core (ITC'02 style).
struct DigitalCore {
  int id = 0;
  std::string name;
  int inputs = 0;
  int outputs = 0;
  int bidirs = 0;
  std::vector<int> scan_chain_lengths;  ///< Internal scan chains.
  long long patterns = 0;               ///< Scan test patterns.
  double power = 0.0;  ///< Dissipation while this core's scan test runs.

  /// Total internal scan flip-flops.
  [[nodiscard]] long long total_scan_cells() const;

  /// Wrapper cell count: every functional terminal gets a wrapper cell.
  [[nodiscard]] long long wrapper_cell_count() const {
    return static_cast<long long>(inputs) + outputs + 2LL * bidirs;
  }

  /// Sanity checks; throws InfeasibleError on nonsense.
  void validate() const;
};

/// One specification-based analog test (a row of paper Table 2).
struct AnalogTestSpec {
  std::string name;       ///< e.g. "G_pb", "f_c", "IIP3", "THD", "SR".
  Hertz f_low{};          ///< Lower edge of the stimulus band.
  Hertz f_high{};         ///< Upper edge of the stimulus band.
  Hertz f_sample{};       ///< Converter sampling frequency for this test.
  Cycles cycles = 0;      ///< Test length in TAM clock cycles.
  int tam_width = 1;      ///< TAM wires this test needs.
  int resolution_bits = 8;  ///< Converter resolution this test needs.
  double power = 0.0;     ///< Dissipation while this test runs.
};

/// An analog embedded core with its test suite.
struct AnalogCore {
  std::string name;  ///< Single letter in the paper: "A".."E".
  std::string description;
  std::vector<AnalogTestSpec> tests;

  /// Total test time: analog tests on one wrapper run back to back.
  [[nodiscard]] Cycles total_cycles() const;

  /// Wrapper TAM width requirement: the widest test.
  [[nodiscard]] int tam_width() const;

  /// Highest sampling frequency over the tests (sizes the converters).
  [[nodiscard]] Hertz max_sampling_frequency() const;

  /// Highest resolution requirement over the tests.
  [[nodiscard]] int resolution_bits() const;

  /// Peak power over the tests.  This is what a whole-core rectangle
  /// dissipates for scheduling purposes: tests run back to back on one
  /// wrapper, so the rectangle must be admitted at its worst moment.
  [[nodiscard]] double max_power() const;

  /// True when this core's tests equal `other`'s (same multiset of
  /// (cycles, width, fs, resolution)) — the symmetry that lets the paper
  /// collapse 52 partitions to 26 unique combinations.
  [[nodiscard]] bool tests_equivalent(const AnalogCore& other) const;

  void validate() const;
};

}  // namespace msoc::soc
