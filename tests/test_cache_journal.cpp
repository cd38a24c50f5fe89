// The msoc-cache-v4 store's crash-safety contract, tested from the
// journal framing up: WAL round-trips, torn-tail truncation at every
// byte offset of a record, checksum flips, replay idempotence,
// compaction equivalence across flush cadences, per-class corruption
// counting, old-layout stores being ignored, LRU eviction, and the
// EntryKey NaN regression.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "deadline_fifo.hpp"
#include "msoc/common/error.hpp"
#include "msoc/common/fileio.hpp"
#include "msoc/common/journal.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/plan/result_cache.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/digest.hpp"

namespace msoc::plan {
namespace {

namespace fs = std::filesystem;

/// Per-process scratch dir: gtest's TempDir is plain /tmp on Linux, so
/// concurrent suite runs (e.g. two build trees) must not share names.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("msoc_cachejournal_" + std::to_string(::getpid())) /
                       name;
  fs::remove_all(dir);
  return dir.string();
}

/// Whole-file binary read (journals contain NUL bytes).
std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Whole-file binary (over)write, parents created.
void write_bytes(const fs::path& path, const std::string& bytes) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// --- Journal framing (msoc::scan_journal and friends). ---

TEST(Journal, HeaderAndRecordRoundTrip) {
  const std::vector<std::string> payloads = {
      "{\"op\": \"meta\"}", std::string("binary\0payload", 14), ""};
  std::string bytes = encode_journal_header(7);
  ASSERT_EQ(bytes.size(), kJournalHeaderBytes);
  // The empty payload is rejected by the scanner (length 0 is the
  // corrupt class), so only frame the first two.
  bytes += encode_journal_record(payloads[0]);
  bytes += encode_journal_record(payloads[1]);
  const JournalScan scan = scan_journal(bytes);
  EXPECT_FALSE(scan.bad_header);
  EXPECT_EQ(scan.generation, 7u);
  EXPECT_EQ(scan.tail, JournalTail::kClean);
  EXPECT_EQ(scan.valid_size, bytes.size());
  ASSERT_EQ(scan.payloads.size(), 2u);
  EXPECT_EQ(scan.payloads[0], payloads[0]);
  EXPECT_EQ(scan.payloads[1], payloads[1]);  // NUL bytes survive
}

TEST(Journal, EmptyInputIsAFreshJournal) {
  const JournalScan scan = scan_journal("");
  EXPECT_FALSE(scan.bad_header);
  EXPECT_EQ(scan.generation, 0u);
  EXPECT_EQ(scan.tail, JournalTail::kClean);
  EXPECT_TRUE(scan.payloads.empty());
}

TEST(Journal, ShortOrWrongMagicHeaderIsBad) {
  EXPECT_TRUE(scan_journal("MSOC").bad_header);  // shorter than 16
  std::string wrong = encode_journal_header(0);
  wrong[0] = 'X';
  const JournalScan scan = scan_journal(wrong);
  EXPECT_TRUE(scan.bad_header);
  EXPECT_EQ(scan.tail, JournalTail::kCorrupt);
}

TEST(Journal, TornTailAtEveryByteOffsetOfTheLastRecord) {
  std::string bytes = encode_journal_header(0);
  bytes += encode_journal_record("first record payload");
  bytes += encode_journal_record("second");
  const std::size_t keep = bytes.size();  // end of the surviving prefix
  bytes += encode_journal_record("the last record, torn mid-append");
  // Cutting anywhere strictly inside the last record — from its first
  // header byte to its last payload byte — must classify the tail as
  // torn and keep exactly the two whole records before it.
  for (std::size_t cut = keep + 1; cut < bytes.size(); ++cut) {
    const JournalScan scan = scan_journal(bytes.substr(0, cut));
    EXPECT_EQ(scan.tail, JournalTail::kTorn) << "cut at " << cut;
    EXPECT_EQ(scan.valid_size, keep) << "cut at " << cut;
    ASSERT_EQ(scan.payloads.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(scan.payloads[1], "second");
  }
  // Cutting exactly at a record boundary is not torn at all.
  EXPECT_EQ(scan_journal(bytes.substr(0, keep)).tail, JournalTail::kClean);
  EXPECT_EQ(scan_journal(bytes).tail, JournalTail::kClean);
  EXPECT_EQ(scan_journal(bytes).payloads.size(), 3u);
}

TEST(Journal, ChecksumFlipAndInsaneLengthAreCorrupt) {
  std::string bytes = encode_journal_header(0);
  bytes += encode_journal_record("good");
  const std::size_t keep = bytes.size();
  bytes += encode_journal_record("about to be damaged");
  // Flip one bit in the damaged record's payload: the record is still
  // COMPLETE, so this is the corrupt class, not a torn tail.
  std::string flipped = bytes;
  flipped[flipped.size() - 3] ^= 0x01;
  JournalScan scan = scan_journal(flipped);
  EXPECT_EQ(scan.tail, JournalTail::kCorrupt);
  EXPECT_EQ(scan.valid_size, keep);
  ASSERT_EQ(scan.payloads.size(), 1u);
  EXPECT_EQ(scan.payloads[0], "good");
  // A zero length field is corrupt (no record is empty)...
  std::string zeroed = bytes;
  for (std::size_t i = 0; i < 4; ++i) zeroed[keep + i] = '\0';
  scan = scan_journal(zeroed);
  EXPECT_EQ(scan.tail, JournalTail::kCorrupt);
  EXPECT_EQ(scan.valid_size, keep);
  // ...and so is a length far past the sanity bound.
  std::string huge = bytes;
  for (std::size_t i = 0; i < 4; ++i) {
    huge[keep + i] = static_cast<char>(0xff);
  }
  scan = scan_journal(huge);
  EXPECT_EQ(scan.tail, JournalTail::kCorrupt);
  EXPECT_EQ(scan.valid_size, keep);
}

TEST(Journal, ReplayIsIdempotentAndResumable) {
  std::string bytes = encode_journal_header(3);
  bytes += encode_journal_record("one");
  const std::size_t after_one = bytes.size();
  bytes += encode_journal_record("two");
  const JournalScan full_a = scan_journal(bytes);
  const JournalScan full_b = scan_journal(bytes);
  EXPECT_EQ(full_a.payloads, full_b.payloads);  // same bytes, same replay
  EXPECT_EQ(full_a.valid_size, full_b.valid_size);
  // Resuming from a previously validated offset yields only the new
  // records — the incremental-scan contract open() relies on.
  const JournalScan resumed = scan_journal(bytes, after_one);
  EXPECT_EQ(resumed.generation, 3u);
  ASSERT_EQ(resumed.payloads.size(), 1u);
  EXPECT_EQ(resumed.payloads[0], "two");
  EXPECT_EQ(resumed.valid_size, bytes.size());
  // An out-of-range resume offset falls back to a full rescan.
  EXPECT_EQ(scan_journal(bytes, bytes.size() + 99).payloads.size(), 2u);
  EXPECT_EQ(scan_journal(bytes, 3).payloads.size(), 2u);
}

// --- The cache on top of the journal. ---

/// A deterministic entry key (the fingerprint/partition strings only
/// have to be stable, not meaningful, below the frontier layer).
ResultCache::EntryKey key_of(int width, double power, int i) {
  return ResultCache::EntryKey(width, power, "00000000feedbead",
                               "part-" + std::to_string(i));
}

constexpr const char* kDigest = "ab12cd34ef56ab78";

fs::path journal_file(const std::string& dir) {
  return fs::path(dir) / "ab" / "journal.wal";
}

TEST(CacheJournal, FlushAppendsAndAFreshCacheReplays) {
  const std::string dir = fresh_dir("roundtrip");
  ResultCache writer(dir);
  writer.open(kDigest, "socname");
  for (int i = 0; i < 4; ++i) {
    writer.record(kDigest, key_of(16, 0.0, i), "lbl", 1000 + i);
  }
  writer.flush();
  EXPECT_GT(writer.journal_records(), 0);
  EXPECT_GT(writer.journal_bytes(), 0);
  EXPECT_TRUE(fs::is_regular_file(journal_file(dir)));
  // No top-level store file: v4 writes journals only.
  EXPECT_FALSE(fs::exists(fs::path(dir) / (std::string(kDigest) + ".json")));

  ResultCache reader(dir);
  reader.open(kDigest);
  EXPECT_GT(reader.replayed_records(), 0);
  for (int i = 0; i < 4; ++i) {
    const auto hit = reader.lookup(kDigest, key_of(16, 0.0, i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(*hit, static_cast<Cycles>(1000 + i));
  }
  EXPECT_EQ(reader.corrupt_files(), 0);
  EXPECT_EQ(reader.torn_tails(), 0);
}

TEST(CacheJournal, FifoAtASnapshotOrJournalPathIsAbsent) {
  // Either file replaced by a FIFO reads as a store without entries,
  // at once: opening a FIFO read-only would wait for a writer.
  for (const char* name : {"ab12cd34ef56ab78.snap", "journal.wal"}) {
    const std::string dir = fresh_dir(std::string("fifo_") + name);
    fs::create_directories(fs::path(dir) / "ab");
    const test::DeadlineFifo fifo((fs::path(dir) / "ab" / name).string());
    ASSERT_TRUE(fifo.created()) << name;
    const auto started = std::chrono::steady_clock::now();
    ResultCache cache(dir);
    cache.open(kDigest);
    EXPECT_FALSE(cache.lookup(kDigest, key_of(16, 0.0, 0)).has_value());
    EXPECT_LT(std::chrono::steady_clock::now() - started,
              test::DeadlineFifo::kDeadline)
        << name << ": waited for a writer";
  }
}

TEST(CacheJournal, FifoJournalSkipsItsShardAndFlushesTheRest) {
  // A journal path that is not a regular file makes its shard
  // unwritable, never the flush a failure: the FIFO stays in place, the
  // other shard is written, and the skipped records stay in memory.
  const std::string dir = fresh_dir("fifo_flush");
  fs::create_directories(fs::path(dir) / "ab");
  const test::DeadlineFifo fifo(journal_file(dir).string());
  ASSERT_TRUE(fifo.created());
  constexpr const char* kOther = "cd12cd34ef56ab78";
  const auto started = std::chrono::steady_clock::now();
  ResultCache cache(dir);
  cache.open(kDigest, "socname");
  cache.open(kOther, "other");
  cache.record(kDigest, key_of(16, 0.0, 0), "a", 100);
  cache.record(kOther, key_of(16, 0.0, 0), "b", 200);
  ASSERT_NO_THROW(cache.flush());
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            test::DeadlineFifo::kDeadline)
      << "waited for a peer";
  EXPECT_EQ(fs::status(journal_file(dir)).type(), fs::file_type::fifo);
  EXPECT_EQ(cache.lookup(kDigest, key_of(16, 0.0, 0)), Cycles{100});
  EXPECT_EQ(cache.flush_errors(), 1);

  ResultCache reader(dir);
  reader.open(kOther);
  EXPECT_EQ(reader.lookup(kOther, key_of(16, 0.0, 0)), Cycles{200});
  // A later flush skips the shard again instead of failing.
  cache.record(kDigest, key_of(16, 0.0, 1), "c", 300);
  EXPECT_NO_THROW(cache.flush());
}

TEST(CacheJournal, DirectoryJournalSkipsItsShard) {
  const std::string dir = fresh_dir("dir_flush");
  fs::create_directories(journal_file(dir));
  ResultCache cache(dir);
  cache.open(kDigest, "socname");
  cache.record(kDigest, key_of(16, 0.0, 0), "a", 100);
  ASSERT_NO_THROW(cache.flush());
  EXPECT_TRUE(fs::is_directory(journal_file(dir)));
  EXPECT_EQ(cache.lookup(kDigest, key_of(16, 0.0, 0)), Cycles{100});
}

TEST(CacheJournal, FailedJournalWriteSkipsItsShard) {
  // A write that fails (here: past RLIMIT_FSIZE, with SIGXFSZ ignored
  // so the write returns EFBIG) is counted and skipped like a FIFO
  // journal: flush() does not throw and lookups still answer from
  // memory.  The limit would bind every later write of this process,
  // so a child runs the flush.
  const std::string dir = fresh_dir("fsize");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{8, 8};
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(3);
    try {
      ResultCache cache(dir);
      cache.open(kDigest, "socname");
      cache.record(kDigest, key_of(16, 0.0, 0), "a", 100);
      cache.flush();
      const bool answered =
          cache.lookup(kDigest, key_of(16, 0.0, 0)) == Cycles{100};
      ::_exit(answered && cache.flush_errors() == 1 ? 0 : 2);
    } catch (...) {
      ::_exit(1);
    }
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: flush threw, 2: lookup or flush_errors wrong, 3: setrlimit";
}

TEST(CacheJournal, SecondFlushIsAnAppendNotARewrite) {
  const std::string dir = fresh_dir("append_only");
  ResultCache cache(dir);
  cache.open(kDigest, "socname");
  cache.record(kDigest, key_of(16, 0.0, 0), "a", 100);
  cache.flush();
  const std::string first = read_bytes(journal_file(dir));
  cache.record(kDigest, key_of(16, 0.0, 1), "b", 200);
  cache.flush();
  const std::string second = read_bytes(journal_file(dir));
  ASSERT_GT(second.size(), first.size());
  EXPECT_EQ(second.substr(0, first.size()), first);  // strictly appended
}

TEST(CacheJournal, TornTailIsRecoveredAtEveryTruncationOffset) {
  const std::string dir = fresh_dir("torn");
  ResultCache writer(dir);
  writer.open(kDigest, "socname");
  writer.record(kDigest, key_of(16, 0.0, 0), "keep", 111);
  writer.flush();
  writer.record(kDigest, key_of(16, 0.0, 1), "tear", 222);
  writer.flush();
  const std::string full = read_bytes(journal_file(dir));
  // The second flush appended exactly one record; locate its start.
  const JournalScan scan = scan_journal(full);
  ASSERT_EQ(scan.tail, JournalTail::kClean);
  const std::size_t last_size =
      kJournalRecordOverhead + scan.payloads.back().size();
  const std::size_t keep = full.size() - last_size;
  for (std::size_t cut = keep + 1; cut < full.size(); ++cut) {
    write_bytes(journal_file(dir), full.substr(0, cut));
    ResultCache reader(dir);
    reader.open(kDigest);
    // The torn entry is gone, the entries before it survive, and a
    // kill -9 artifact is NOT corruption.
    EXPECT_TRUE(reader.lookup(kDigest, key_of(16, 0.0, 0)).has_value())
        << "cut at " << cut;
    EXPECT_FALSE(reader.lookup(kDigest, key_of(16, 0.0, 1)).has_value())
        << "cut at " << cut;
    EXPECT_EQ(reader.torn_tails(), 1) << "cut at " << cut;
    EXPECT_EQ(reader.corrupt_files(), 0) << "cut at " << cut;
  }
  // A flush by the next writer truncates the torn bytes and appends
  // after them — the journal heals durably.
  write_bytes(journal_file(dir), full.substr(0, keep + 1));
  ResultCache healer(dir);
  healer.open(kDigest, "socname");
  healer.record(kDigest, key_of(16, 0.0, 2), "healed", 333);
  healer.flush();
  const JournalScan healed = scan_journal(read_bytes(journal_file(dir)));
  EXPECT_EQ(healed.tail, JournalTail::kClean);
  ResultCache reader(dir);
  reader.open(kDigest);
  EXPECT_TRUE(reader.lookup(kDigest, key_of(16, 0.0, 0)).has_value());
  EXPECT_TRUE(reader.lookup(kDigest, key_of(16, 0.0, 2)).has_value());
  EXPECT_EQ(reader.corrupt_files(), 0);
}

TEST(CacheJournal, ChecksumFlipCountsCorruptOncePerShard) {
  const std::string dir = fresh_dir("flip");
  ResultCache writer(dir);
  writer.open(kDigest, "socname");
  writer.record(kDigest, key_of(16, 0.0, 0), "keep", 111);
  writer.flush();
  writer.record(kDigest, key_of(16, 0.0, 1), "flip", 222);
  writer.flush();
  std::string bytes = read_bytes(journal_file(dir));
  bytes[bytes.size() - 2] ^= 0x40;  // damage the last record's payload
  write_bytes(journal_file(dir), bytes);
  ResultCache reader(dir);
  reader.open(kDigest);
  EXPECT_TRUE(reader.lookup(kDigest, key_of(16, 0.0, 0)).has_value());
  EXPECT_FALSE(reader.lookup(kDigest, key_of(16, 0.0, 1)).has_value());
  EXPECT_EQ(reader.corrupt_files(), 1);
  EXPECT_EQ(reader.torn_tails(), 0);
  // Another digest in the SAME shard must not double-count the same
  // damaged journal.
  reader.open("ab99aa88bb77cc66");
  EXPECT_EQ(reader.corrupt_files(), 1);
}

TEST(CacheJournal, CorruptClassesAreCountedPerJournal) {
  // Class 1: unusable header (wrong magic).
  {
    const std::string dir = fresh_dir("corrupt_header");
    write_bytes(journal_file(dir), "XXXXXXXX12345678");
    ResultCache cache(dir);
    cache.open(kDigest);
    EXPECT_EQ(cache.corrupt_files(), 1);
    EXPECT_FALSE(cache.lookup(kDigest, key_of(16, 0.0, 0)).has_value());
  }
  // Class 2: checksum-valid record whose payload is not JSON.
  {
    const std::string dir = fresh_dir("corrupt_payload");
    write_bytes(journal_file(dir), encode_journal_header(0) +
                                       encode_journal_record("{not json"));
    ResultCache cache(dir);
    cache.open(kDigest);
    EXPECT_EQ(cache.corrupt_files(), 1);
  }
  // Class 3: well-formed record filed in the wrong shard directory.
  {
    const std::string dir = fresh_dir("corrupt_misfiled");
    const std::string foreign =
        "{\"op\": \"entry\", \"digest\": \"ff00ff00ff00ff00\", "
        "\"width\": 16, \"packing\": \"p\", \"partition\": \"q\", "
        "\"label\": \"l\", \"test_time\": 5}";
    write_bytes(journal_file(dir),
                encode_journal_header(0) + encode_journal_record(foreign));
    ResultCache cache(dir);
    cache.open(kDigest);
    EXPECT_EQ(cache.corrupt_files(), 1);
  }
  // Class 4: a TAM width past INT_MAX (2^32 + 16 would wrap to 16 in
  // the int key and answer width-16 lookups).
  {
    const std::string dir = fresh_dir("corrupt_width");
    const std::string wide = std::string("{\"op\": \"entry\", \"digest\": \"") +
                             kDigest +
                             "\", \"width\": 4294967312, \"packing\": \"p\", "
                             "\"partition\": \"q\", \"label\": \"l\", "
                             "\"test_time\": 5}";
    write_bytes(journal_file(dir),
                encode_journal_header(0) + encode_journal_record(wide));
    ResultCache cache(dir);
    cache.open(kDigest);
    EXPECT_EQ(cache.corrupt_files(), 1);
    EXPECT_FALSE(cache.lookup(kDigest, ResultCache::EntryKey(16, 0.0, "p", "q"))
                     .has_value());
  }
}

TEST(CacheJournal, ReplayIsIdempotentAcrossOpens) {
  const std::string dir = fresh_dir("idempotent");
  ResultCache writer(dir);
  writer.open(kDigest, "socname");
  writer.record(kDigest, key_of(16, 0.0, 0), "x", 123);
  writer.flush();
  ResultCache reader(dir);
  reader.open(kDigest);
  reader.open(kDigest);  // re-opening must not duplicate or drop
  const long long replayed = reader.replayed_records();
  reader.open(kDigest);
  EXPECT_EQ(reader.replayed_records(), replayed);  // nothing new to scan
  EXPECT_EQ(*reader.lookup(kDigest, key_of(16, 0.0, 0)), 123u);
}

TEST(CacheJournal, CompactionIsEquivalentAcrossFlushCadences) {
  // Same entries, three cadences: one bulk flush + explicit compact,
  // entry-at-a-time flushes + explicit compact, and entry-at-a-time
  // with a 1-byte threshold (every flush auto-compacts).  The folded
  // .snap files must match BYTE for byte.
  const std::string bulk_dir = fresh_dir("compact_bulk");
  const std::string drip_dir = fresh_dir("compact_drip");
  const std::string auto_dir = fresh_dir("compact_auto");
  const auto fill = [](ResultCache& cache, bool flush_each) {
    cache.open(kDigest, "socname");
    for (int i = 0; i < 6; ++i) {
      cache.record(kDigest, key_of(16 + 8 * (i % 2), i < 3 ? 0.0 : 250.0, i),
                   "label-" + std::to_string(i), 5000 + i);
      if (flush_each) cache.flush();
    }
    cache.flush();
  };
  ResultCache bulk(bulk_dir);
  fill(bulk, false);
  const CompactionStats bulk_stats = bulk.compact();
  EXPECT_EQ(bulk_stats.shards_compacted, 1);
  EXPECT_EQ(bulk_stats.snapshots_written, 1);
  EXPECT_GT(bulk_stats.records_folded, 0);

  ResultCache drip(drip_dir);
  fill(drip, true);
  drip.compact();

  CacheTuning eager;
  eager.compact_threshold_bytes = 1;
  ResultCache autoc(auto_dir, eager);
  fill(autoc, true);
  EXPECT_GT(autoc.compactions(), 1);  // the threshold really fired

  const auto snapshot = [](const std::string& dir) {
    return read_bytes(fs::path(dir) / "ab" / (std::string(kDigest) + ".snap"));
  };
  const std::string golden = snapshot(bulk_dir);
  // A generation-0 journal: one meta record, then the six entries.
  EXPECT_EQ(golden.rfind("MSOCWAL4", 0), 0u);
  const JournalScan framed = scan_journal(golden);
  EXPECT_EQ(framed.generation, 0u);
  EXPECT_EQ(framed.tail, JournalTail::kClean);
  ASSERT_EQ(framed.payloads.size(), 7u);
  EXPECT_NE(framed.payloads[0].find("\"op\": \"meta\""), std::string::npos);
  EXPECT_EQ(snapshot(drip_dir), golden);
  EXPECT_EQ(snapshot(auto_dir), golden);
  // After compaction the journal is a bare header with a bumped
  // generation, and a fresh cache reads everything from the snapshot.
  const JournalScan scan = scan_journal(read_bytes(journal_file(bulk_dir)));
  EXPECT_TRUE(scan.payloads.empty());
  EXPECT_GT(scan.generation, 0u);
  ResultCache reader(bulk_dir);
  reader.open(kDigest);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(reader
                    .lookup(kDigest, key_of(16 + 8 * (i % 2),
                                            i < 3 ? 0.0 : 250.0, i))
                    .has_value())
        << i;
  }
  EXPECT_EQ(reader.replayed_records(), 0);  // snapshot, not journal
}

// --- Stores in the v1-v3 layout (<dir>/<digest>.json) and JSON
// snapshots (<dir>/<pp>/<digest>.json) are not read. ---

TEST(CacheJournal, OldLayoutStoreIsNeitherReadNorCountedNorDeleted) {
  const std::string dir = fresh_dir("old_layout");
  const soc::Soc soc = soc::make_d695m();
  // A v3 store of an earlier revision, with an inventory header: once
  // a usable replan baseline, now just a file in the cache root.
  const std::string digest = "3333cccc4444dddd";
  const fs::path old_store = fs::path(dir) / (digest + ".json");
  const std::string old_bytes =
      "{\"schema\": \"msoc-cache-v3\", \"digest\": \"" + digest +
      "\", \"soc_name\": \"d695m\", \"inventory\": {\"max_power\": 0, "
      "\"digital\": [], \"analog\": []}, \"entries\": [{\"width\": 16, "
      "\"packing\": \"00000000deadbeef\", \"partition\": \"fix-a\", "
      "\"label\": \"l\", \"test_time\": 4242}]}";
  write_bytes(old_store, old_bytes);
  // An unparseable one is not corruption either: nothing looks at it.
  const fs::path garbage = fs::path(dir) / (std::string(kDigest) + ".json");
  write_bytes(garbage, "{\"schema\": \"msoc-cache-v3\", \"digest\"");
  // A JSON snapshot of an earlier v4 store, in the shard the replan
  // below plans and compacts into.
  const std::string soc_digest = soc::digest_hex(soc);
  const fs::path json_snapshot =
      fs::path(dir) / soc_digest.substr(0, 2) / (soc_digest + ".json");
  const std::string json_bytes =
      "{\"schema\": \"msoc-cache-v4\", \"digest\": \"" + soc_digest +
      "\", \"soc_name\": \"d695m\", \"entries\": [{\"width\": 16, "
      "\"packing\": \"00000000deadbeef\", \"partition\": \"fix-b\", "
      "\"label\": \"l\", \"test_time\": 4343}]}";
  write_bytes(json_snapshot, json_bytes);

  ResultCache cache(dir);
  cache.open(digest);
  cache.open(kDigest);
  cache.open(soc_digest);
  EXPECT_FALSE(cache
                   .lookup(digest, ResultCache::EntryKey(
                                       16, 0.0, "00000000deadbeef", "fix-a"))
                   .has_value());
  EXPECT_FALSE(cache
                   .lookup(soc_digest, ResultCache::EntryKey(
                                           16, 0.0, "00000000deadbeef",
                                           "fix-b"))
                   .has_value());
  EXPECT_FALSE(cache.inventory(digest).has_value());
  EXPECT_EQ(cache.corrupt_files(), 0);

  // A replan against it falls back to a cold run, with the warning.
  FrontierOptions options;
  options.widths = {16};
  options.cache = &cache;
  FrontierEngine engine(soc, options);
  ::testing::internal::CaptureStderr();
  const FrontierResult result = engine.replan(digest);
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(result.replanned_from.empty());
  EXPECT_GT(result.evaluations, 0);
  EXPECT_NE(warning.find("has no digest inventory"), std::string::npos)
      << warning;
  EXPECT_NE(warning.find("planning cold"), std::string::npos) << warning;

  // Compaction folds the new journal into a .snap beside the JSON
  // snapshot and leaves all three old files alone.
  const CompactionStats stats = cache.compact();
  EXPECT_EQ(stats.snapshots_written, 1);
  EXPECT_TRUE(fs::is_regular_file(json_snapshot.parent_path() /
                                  (soc_digest + ".snap")));
  EXPECT_EQ(read_bytes(json_snapshot), json_bytes);
  EXPECT_EQ(read_bytes(old_store), old_bytes);
  EXPECT_TRUE(fs::is_regular_file(garbage));
  EXPECT_EQ(cache.corrupt_files(), 0);
}

// --- EntryKey validation (the NaN strict-weak-ordering regression). ---

TEST(CacheEntryKey, RejectsNonFiniteAndNegativeBudgets) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // NaN compares false under <, >, AND ==, so a NaN budget would break
  // operator<'s strict weak ordering and corrupt std::map lookups.
  EXPECT_THROW(ResultCache::EntryKey(16, nan, "f", "p"), Error);
  EXPECT_THROW(ResultCache::EntryKey(16, inf, "f", "p"), Error);
  EXPECT_THROW(ResultCache::EntryKey(16, -1.0, "f", "p"), Error);
  EXPECT_THROW(ResultCache::EntryKey(0, 0.0, "f", "p"), Error);
  EXPECT_NO_THROW(ResultCache::EntryKey(1, 0.0, "f", "p"));
  EXPECT_NO_THROW(ResultCache::EntryKey(16, 250.5, "f", "p"));
}

// --- Eviction. ---

TEST(CacheJournal, LruEvictsOnlyCleanStoresAtTheBound) {
  const std::string dir = fresh_dir("evict");
  CacheTuning tuning;
  tuning.max_open_stores = 2;
  ResultCache cache(dir, tuning);
  cache.open("aa00000000000001", "soc-a");
  cache.record("aa00000000000001", key_of(16, 0.0, 0), "a", 100);
  cache.flush();  // store aa..01 is now clean and on disk
  cache.open("bb00000000000002", "soc-b");
  EXPECT_EQ(cache.evictions(), 0);
  cache.open("cc00000000000003", "soc-c");  // third store: bound is 2
  EXPECT_EQ(cache.evictions(), 1);
  // The evicted store reads as never-opened...
  EXPECT_FALSE(
      cache.lookup("aa00000000000001", key_of(16, 0.0, 0)).has_value());
  // ...until re-opened, when the journal replays it back.
  cache.open("aa00000000000001");
  EXPECT_TRUE(
      cache.lookup("aa00000000000001", key_of(16, 0.0, 0)).has_value());
}

}  // namespace
}  // namespace msoc::plan
