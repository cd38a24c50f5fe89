// Deterministic mutation fuzzer over the .soc reader.  The seeds are
// d695m and p93791m as write_soc_string emits them, plus the
// hand-written tests/data/d695m_power.soc.  Each mutant carries one
// edit:
//   * one bit of one byte flipped;
//   * a run of digits inserted at the start of a number, sometimes
//     negated, sometimes 20 digits long (past every integer type);
//   * one line duplicated or deleted.
// Property: parsing a mutant either throws ParseError or
// InfeasibleError, or the SOC round-trips — write_soc_string of it
// re-parses to the same digest and writes back the same text.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/rng.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/digest.hpp"
#include "msoc/soc/itc02.hpp"

namespace msoc::soc {
namespace {

constexpr std::uint64_t kSeed = 0x50cf0220;
constexpr int kMutants = 600;

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::size_t pick(Rng& rng, std::size_t count) {
  return static_cast<std::size_t>(rng.uniform_u64(0, count - 1));
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Applies one random edit to `text`; returns what it did.
std::string mutate(Rng& rng, std::string& text) {
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      const std::size_t at = pick(rng, text.size());
      const int bit = rng.uniform_int(0, 7);
      text[at] = static_cast<char>(text[at] ^ (1 << bit));
      return "flip bit " + std::to_string(bit) + " of byte " +
             std::to_string(at);
    }
    case 1: {
      std::vector<std::size_t> starts;  // First digit of every number.
      for (std::size_t i = 0; i < text.size(); ++i) {
        const bool digit = text[i] >= '0' && text[i] <= '9';
        if (digit && (i == 0 || text[i - 1] == ' ')) starts.push_back(i);
      }
      const std::size_t at = starts[pick(rng, starts.size())];
      std::string run = rng.uniform_int(0, 1) == 0 ? "-" : "";
      const int length =
          rng.uniform_int(0, 3) == 0 ? 20 : rng.uniform_int(1, 12);
      for (int i = 0; i < length; ++i) {
        run += static_cast<char>('0' + rng.uniform_int(0, 9));
      }
      text.insert(at, run);
      return "insert '" + run + "' at byte " + std::to_string(at);
    }
    default: {
      std::vector<std::string> lines = split_lines(text);
      const std::size_t at = pick(rng, lines.size());
      const bool duplicate = rng.uniform_int(0, 1) == 0;
      const std::string what = (duplicate ? "duplicate" : "delete") +
                               std::string(" line ") + std::to_string(at + 1) +
                               " '" + lines[at] + "'";
      if (duplicate) {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     lines[at]);
      } else {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      }
      text.clear();
      for (const std::string& line : lines) text += line + '\n';
      return what;
    }
  }
}

TEST(SocFuzz, MutantsAreRejectedOrRoundTrip) {
  const std::vector<std::string> seeds = {
      write_soc_string(make_d695m()), write_soc_string(make_p93791m()),
      read_text(std::string(MSOC_TEST_DATA_DIR) + "/d695m_power.soc")};
  Rng rng(kSeed);
  int rejected = 0;
  int round_trips = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = seeds[static_cast<std::size_t>(i) % seeds.size()];
    const std::string what = mutate(rng, text);
    SCOPED_TRACE("mutant " + std::to_string(i) + ": " + what);

    std::optional<Soc> parsed;
    try {
      parsed = parse_soc_string(text, "mutant.soc");
    } catch (const ParseError&) {
      ++rejected;
      continue;
    } catch (const InfeasibleError&) {
      ++rejected;
      continue;
    }
    const std::string written = write_soc_string(*parsed);
    try {
      const Soc reparsed = parse_soc_string(written, "written.soc");
      EXPECT_EQ(digest(reparsed), digest(*parsed));
      EXPECT_EQ(write_soc_string(reparsed), written);
      ++round_trips;
    } catch (const Error& e) {
      ADD_FAILURE() << "written SOC does not re-parse: " << e.what();
    }
  }
  // Both outcomes must be common, or the mutations miss the reader.
  EXPECT_GT(rejected, kMutants / 10);
  EXPECT_GT(round_trips, kMutants / 10);
}

}  // namespace
}  // namespace msoc::soc
