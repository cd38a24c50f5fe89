// Deterministic mutation fuzzer over the msoc-cache-v4 frames: the
// shard journal and the .snap snapshot, both produced by a real flush +
// compact.  Each iteration damages one of the two files and opens the
// directory with a fresh ResultCache:
//   * raw-byte mutations (byte flips, truncations, insertions) may only
//     cost entries: every original key answers its original value or
//     misses, and the inventory is the original one or absent;
//   * payload mutations edit one record's JSON (a scalar swapped for a
//     hostile value, or a byte dropped) and re-frame it with a valid
//     checksum, so the entry and inventory validators are reached.
// Whatever the damage, open/lookup/inventory/flush must not throw.
#include <gtest/gtest.h>
#include <unistd.h>

#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "msoc/common/journal.hpp"
#include "msoc/common/rng.hpp"
#include "msoc/plan/result_cache.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/delta.hpp"
#include "msoc/soc/digest.hpp"

namespace msoc::plan {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 0x5eedcac4e;
constexpr int kIterations = 600;
constexpr int kEntries = 12;

std::string fresh_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("msoc_cachefuzz_" + std::to_string(::getpid())) /
                       name;
  fs::remove_all(dir);
  return dir.string();
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Unconstrained, budgeted and windowed keys in turn, so every optional
/// entry field appears in some record.
ResultCache::EntryKey key_of(int i) {
  const std::string partition = "part-" + std::to_string(i);
  switch (i % 3) {
    case 0:
      return ResultCache::EntryKey(8 + i, 0.0, "00000000feedbead", partition);
    case 1:
      return ResultCache::EntryKey(8 + i, 250.5, "00000000feedbead",
                                   partition);
    default:
      return ResultCache::EntryKey(8 + i, 0.0, "00000000feedbead", partition,
                                   4096, 120.25);
  }
}

Cycles value_of(int i) { return 1000 + 7 * static_cast<Cycles>(i); }

/// A real store: the first half of the entries folded into the
/// snapshot, the second half (behind a fresh meta record) in the
/// journal.
struct Corpus {
  std::string dir;
  std::string digest;
  soc::DigestInventory inventory;
  fs::path journal_path;
  fs::path snapshot_path;
  std::string journal;
  std::string snapshot;
};

Corpus make_corpus() {
  const soc::Soc soc = soc::make_d695m();
  Corpus corpus;
  corpus.dir = fresh_dir("store");
  corpus.digest = soc::digest_hex(soc);
  corpus.inventory = soc::digest_inventory(soc);
  const fs::path shard = fs::path(corpus.dir) / corpus.digest.substr(0, 2);
  corpus.journal_path = shard / "journal.wal";
  corpus.snapshot_path = shard / (corpus.digest + ".snap");
  ResultCache cache(corpus.dir);
  cache.open(corpus.digest, soc);
  for (int i = 0; i < kEntries; ++i) {
    if (i == kEntries / 2) (void)cache.compact();
    cache.record(corpus.digest, key_of(i), "label-" + std::to_string(i),
                 value_of(i));
  }
  cache.flush();
  corpus.journal = read_bytes(corpus.journal_path);
  corpus.snapshot = read_bytes(corpus.snapshot_path);
  return corpus;
}

enum class Mutation { kFlip, kTruncate, kInsert, kPayload };

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_u64(0, n - 1));
}

std::string mutate_raw(Rng& rng, std::string bytes, Mutation kind) {
  switch (kind) {
    case Mutation::kFlip:
      for (int n = rng.uniform_int(1, 4); n > 0; --n) {
        bytes[pick(rng, bytes.size())] ^=
            static_cast<char>(rng.uniform_int(1, 255));
      }
      break;
    case Mutation::kTruncate:
      bytes.resize(pick(rng, bytes.size()));
      break;
    default: {
      std::string junk;
      for (int n = rng.uniform_int(1, 16); n > 0; --n) {
        junk.push_back(static_cast<char>(rng.uniform_int(0, 255)));
      }
      bytes.insert(pick(rng, bytes.size() + 1), junk);
      break;
    }
  }
  return bytes;
}

/// One record's JSON, edited: a scalar value (just past a ": ") swapped
/// for a hostile one, or, one time in four, a byte dropped.
std::string mutate_json(Rng& rng, std::string payload) {
  static const std::vector<std::string> kHostile = {
      "-1", "0", "-0", "1.5", "1e308", "1e-320", "2147483648",
      "4294967312", "9007199254740993", "18446744073709551616",
      "\"\"", "\"x\"", "\"0123456789ABCDEF\"", "\"zzzzzzzzzzzzzzzz\"",
      "\"entry\"", "\"meta\"", "null", "true", "[]", "{}"};
  std::vector<std::pair<std::size_t, std::size_t>> sites;
  for (std::size_t at = payload.find(": "); at != std::string::npos;
       at = payload.find(": ", at + 1)) {
    const std::size_t begin = at + 2;
    std::size_t end = begin;
    if (begin >= payload.size() || payload[begin] == '{' ||
        payload[begin] == '[') {
      continue;
    }
    if (payload[begin] == '"') {
      end = payload.find('"', begin + 1);
      if (end == std::string::npos) continue;
      ++end;
    } else {
      while (end < payload.size() && payload[end] != ',' &&
             payload[end] != '}' && payload[end] != ']') {
        ++end;
      }
    }
    sites.emplace_back(begin, end);
  }
  if (sites.empty() || rng.uniform_int(0, 3) == 0) {
    payload.erase(pick(rng, payload.size()), 1);
    return payload;
  }
  const auto [begin, end] = sites[pick(rng, sites.size())];
  return payload.substr(0, begin) + kHostile[pick(rng, kHostile.size())] +
         payload.substr(end);
}

/// `frames` with one record's payload edited and re-framed, so every
/// checksum still holds.
std::string mutate_payload(Rng& rng, const std::string& frames) {
  JournalScan scan = scan_journal(frames);
  std::string& victim = scan.payloads[pick(rng, scan.payloads.size())];
  victim = mutate_json(rng, victim);
  std::string bytes = encode_journal_header(scan.generation);
  for (const std::string& payload : scan.payloads) {
    bytes += encode_journal_record(payload);
  }
  return bytes;
}

bool same_inventory(const soc::DigestInventory& a,
                    const soc::DigestInventory& b) {
  return a.digital == b.digital && a.analog == b.analog &&
         a.max_power == b.max_power;
}

TEST(CacheFuzz, MutatedFramesNeverThrowAndRawDamageOnlyCostsEntries) {
  const Corpus corpus = make_corpus();
  ASSERT_EQ(scan_journal(corpus.snapshot).payloads.size(),
            1u + kEntries / 2);
  ASSERT_EQ(scan_journal(corpus.journal).payloads.size(),
            1u + kEntries / 2);

  Rng rng(kSeed);
  int damaged_runs = 0;     // runs that counted a corrupt file
  int intact_runs = 0;      // runs that served every original entry
  int payload_misses = 0;   // payload runs that lost an entry
  for (int it = 0; it < kIterations; ++it) {
    const bool in_snapshot = rng.uniform_int(0, 1) == 1;
    const auto kind = static_cast<Mutation>(rng.uniform_int(0, 3));
    const std::string& original =
        in_snapshot ? corpus.snapshot : corpus.journal;
    const std::string mutated = kind == Mutation::kPayload
                                    ? mutate_payload(rng, original)
                                    : mutate_raw(rng, original, kind);
    write_bytes(corpus.journal_path, in_snapshot ? corpus.journal : mutated);
    write_bytes(corpus.snapshot_path,
                in_snapshot ? mutated : corpus.snapshot);
    const bool raw = kind != Mutation::kPayload;
    SCOPED_TRACE("iteration " + std::to_string(it) + ", mutation " +
                 std::to_string(static_cast<int>(kind)) + " of the " +
                 (in_snapshot ? "snapshot" : "journal"));
    // Every fourth run compacts on flush, over the damaged files.
    CacheTuning tuning;
    if (it % 4 == 0) tuning.compact_threshold_bytes = 1;
    try {
      ResultCache cache(corpus.dir, tuning);
      cache.open(corpus.digest);
      int served = 0;
      for (int i = 0; i < kEntries; ++i) {
        const std::optional<Cycles> got =
            cache.lookup(corpus.digest, key_of(i));
        if (!got.has_value()) continue;
        ++served;
        if (raw) {
          EXPECT_EQ(*got, value_of(i)) << "entry " << i;
        }
      }
      const std::optional<soc::DigestInventory> inventory =
          cache.inventory(corpus.digest);
      if (raw && inventory.has_value()) {
        EXPECT_TRUE(same_inventory(*inventory, corpus.inventory));
      }
      if (cache.corrupt_files() > 0) ++damaged_runs;
      if (served == kEntries) ++intact_runs;
      if (!raw && served < kEntries) ++payload_misses;
      cache.record(corpus.digest, key_of(kEntries), "fuzz", 4242);
      cache.flush();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw: " << e.what();
    } catch (...) {
      ADD_FAILURE() << "threw a non-standard exception";
    }
  }
  // The mutations really bit, and really missed some of the time.
  EXPECT_GT(damaged_runs, kIterations / 4);
  EXPECT_GT(intact_runs, 0);
  EXPECT_GT(payload_misses, 0);
}

}  // namespace
}  // namespace msoc::plan
