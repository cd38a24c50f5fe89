#pragma once
// ITC'02-style SOC description files.
//
// The original ITC'02 benchmark files are no longer distributable with
// this repo, so we define a line-oriented format that carries the same
// information (and adds an analog-module section for mixed-signal SOCs):
//
//   # comment
//   SocName p93791m
//   MaxPower 1200                       # optional SOC power budget
//   Module 1 core_1
//     Inputs 109
//     Outputs 32
//     Bidirs 72
//     ScanChains 168 168 150 ...        # one length per chain
//     Patterns 409
//     Power 310                         # optional test dissipation
//   AnalogModule A "I-Q transmit path"
//     Test f_c FLow 45e3 FHigh 55e3 FSample 1.5e6 Cycles 13653 Width 4 Resolution 8 Power 95
//
// parse_soc accepts any stream; write_soc re-emits a file that parses back
// to an identical SOC (round-trip property covered by tests).

#include <iosfwd>
#include <string>

#include "msoc/soc/soc.hpp"

namespace msoc::soc {

/// Parses the format above; `source_name` labels errors.
[[nodiscard]] Soc parse_soc(std::istream& in,
                            const std::string& source_name = "<stream>");

/// Parses from a string buffer.
[[nodiscard]] Soc parse_soc_string(const std::string& text,
                                   const std::string& source_name = "<string>");

/// Parses `text`, the contents of the .soc file `path`, naming `path`
/// in errors; also rejects a file with no SocName and no module.
[[nodiscard]] Soc parse_soc_file(const std::string& text,
                                 const std::string& path);

/// parse_soc_file(read_file(path), path): also throws ParseError naming
/// `path` when it is missing, a directory or unreadable.  Pipes work.
[[nodiscard]] Soc load_soc_file(const std::string& path);

/// Writes the SOC in the format above.
void write_soc(std::ostream& out, const Soc& soc);

/// Serializes to a string.
[[nodiscard]] std::string write_soc_string(const Soc& soc);

}  // namespace msoc::soc
