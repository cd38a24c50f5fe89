#pragma once
// Append-only write-ahead journal framing (the msoc-cache-v4 shard
// journals and, at generation 0, its snapshots; the format is
// payload-agnostic and reusable for any record stream that must
// survive kill -9).
//
// File layout:
//
//   [16-byte header]  8-byte magic "MSOCWAL4" + u64 LE generation
//   [record]*         u32 LE payload size | u64 LE FNV-1a(payload)
//                     | payload bytes
//
// The generation is bumped every time a compactor folds the journal
// into snapshot files and truncates it back to the bare header, so a
// process that cached "bytes [0, N) were valid" can tell a truncated
// journal apart from one that merely grew.
//
// Recovery contract (scan_journal): records are validated in order and
// the scan stops at the first invalid one.
//   * An INCOMPLETE record (fewer bytes than its own header claims, or
//     a truncated record header) classifies the tail as kTorn — the
//     normal artifact of a writer killed mid-append.  Appenders
//     truncate the torn bytes before appending after them.
//   * A COMPLETE record with an insane length or a checksum mismatch
//     classifies the tail as kCorrupt — bit rot or tampering, counted
//     by the cache layer; everything before it stays valid.
// Replay is idempotent: scanning the same bytes twice yields the same
// payload sequence, and the cache applies records with last-writer-
// wins semantics.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace msoc {

inline constexpr std::size_t kJournalHeaderBytes = 16;
inline constexpr std::size_t kJournalRecordOverhead = 12;
/// Sanity bound on one payload: far above any cache record (a partition
/// key over thousands of cores is ~100 KiB) and far below file sizes
/// that could make a bogus length allocate the machine away.
inline constexpr std::uint32_t kJournalMaxPayloadBytes = 16u << 20;

/// 64-bit FNV-1a (the repo's standard content hash).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// One framed record: length prefix + checksum + payload.
[[nodiscard]] std::string encode_journal_record(std::string_view payload);

/// A 16-byte journal header with the given generation.
[[nodiscard]] std::string encode_journal_header(std::uint64_t generation);

enum class JournalTail {
  kClean,   ///< Every byte parsed as a whole record.
  kTorn,    ///< Incomplete trailing record (crash artifact).
  kCorrupt  ///< Complete record with bad length or checksum.
};

struct JournalScan {
  std::uint64_t generation = 0;
  /// True when the file is non-empty but too short for a header or the
  /// magic does not match: the whole journal is unusable (corrupt
  /// class); `payloads` is empty and `valid_size` meaningless.
  bool bad_header = false;
  std::vector<std::string> payloads;  ///< Valid payloads, in order.
  /// Byte offset just past the last valid record: the truncation point
  /// for a torn or corrupt tail, the append offset otherwise.
  std::uint64_t valid_size = kJournalHeaderBytes;
  JournalTail tail = JournalTail::kClean;
};

/// Parses `bytes` (a whole journal file) starting at record boundary
/// `from` (callers resuming an incremental scan pass their previously
/// validated size; `from` below the header or past the end rescans
/// from the header).  Empty input parses as a fresh journal
/// (generation 0, clean).
[[nodiscard]] JournalScan scan_journal(
    std::string_view bytes, std::uint64_t from = kJournalHeaderBytes);

}  // namespace msoc
