#pragma once
// Miscellaneous formatting helpers shared by report writers.

#include <cstdint>
#include <string>
#include <vector>

#include "msoc/common/units.hpp"

namespace msoc {

/// Groups digits with commas: 1234567 -> "1,234,567".
[[nodiscard]] std::string with_thousands(std::uint64_t value);

/// Renders a percentage with one decimal, e.g. "61.5".
[[nodiscard]] std::string percent(double value);

/// Renders a set of core names as the paper does: "{A,C} {B,D,E}".
[[nodiscard]] std::string braces(const std::vector<std::string>& names);

/// Round-trip double rendering (17 significant digits) for the JSON
/// and CSV writers — equal doubles format equally, parse back exactly.
[[nodiscard]] std::string round_trip_double(double value);

/// Shortest decimal rendering that still parses back to exactly the
/// same double (std::to_chars): "0.1" stays "0.1", not
/// "0.10000000000000001".  Used by human-edited text formats (.soc);
/// the JSON/CSV writers keep round_trip_double so committed golden
/// documents stay byte-identical.
[[nodiscard]] std::string shortest_double(double value);

/// Exactly 16 lowercase hex digits, zero-padded (content digests and
/// hashes).
[[nodiscard]] std::string hex64(std::uint64_t value);

}  // namespace msoc
