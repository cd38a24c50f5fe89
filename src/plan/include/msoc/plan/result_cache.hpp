#pragma once
// Persistent TAM-optimizer result cache (the msoc-cache-v4 sharded,
// journaled store documented in docs/formats.md).  Stores written by
// the v1-v3 single-file layout (<dir>/<digest>.json) and the JSON
// snapshots of earlier v4 stores (<dir>/<pp>/<digest>.json) are not
// read: an unread store costs a recompute, never a wrong answer.
//
// What is cached: schedule_soc makespans — the expensive, pure part of
// a CombinationCost.  Everything else in Eq. 2 (C_A, C_time, the
// weighted total) is cheap arithmetic over the cached time and is
// recomputed at load, so weights can change between runs without
// invalidating a single entry.
//
// How entries are keyed (all content-addressed, nothing positional):
//   * soc::digest_hex — which SOC (stable under core reordering and
//     renames);
//   * an EntryKey value: TAM width, the effective power budget (0 =
//     unconstrained), a fingerprint of the PackingOptions fields that
//     influence the makespan, and a partition key built from per-core
//     content digests — each wrapper group is the sorted list of its
//     members' digests, groups sorted — so relabeled or reordered
//     cores, and even symmetric partitions over tests_equivalent cores
//     (the paper's A/B pair), share one entry.
//
// Partition keys are power-CONDITIONAL: constrained entries (budget >
// 0) key on the full core_digest, while unconstrained entries key on
// packing_core_digest — the power-stripped description, which is all
// an unconstrained pack can observe.  That makes unconstrained entries
// portable across revisions that only touch power annotations: the
// replan path (plan::FrontierEngine::replan) reuses a baseline store's
// entries after such an ECO edit even though the enclosing SOC digest
// changed.  To support that diff without the baseline .soc file, every
// store persists its SOC's soc::DigestInventory in its meta record, in
// the journal and in the snapshot alike.
//
// On-disk layout (msoc-cache-v4):
//   <dir>/<pp>/journal.wal   per-shard append-only WAL (pp = first two
//                            hex chars of the digest); flush() appends
//                            this run's overlay as checksummed records
//                            under an exclusive flock — O(overlay),
//                            one fsync per dirty shard
//   <dir>/<pp>/<digest>.snap v4 snapshot in the journal's framing
//                            (generation 0, one meta record, then the
//                            entries in EntryKey order), written by
//                            compaction when the journal crosses
//                            CacheTuning::compact_threshold_bytes, or
//                            explicitly via compact()
//
// One record parser (stage_record) reads both files.  A store opens as
// snapshot ∪ journal replay (later layers win).  Replay tolerates torn
// journal tails — the artifact of a writer killed mid-append — by
// truncating at the first bad record (readers just stop there; the
// next appender physically truncates under its exclusive lock).
// Complete-but-corrupt records and unusable headers count toward
// corrupt_files() and never abort a run.  A snapshot lands whole by
// atomic rename, so any damage in one drops the whole file (counted).
//
// Read/write discipline: lookups see only the SNAPSHOT present when the
// digest was opened; record() lands in an overlay that becomes visible
// on flush().  This keeps parallel sweeps deterministic — which worker
// computes a cell never changes what another worker can observe — at
// the cost of intra-run cross-series sharing.  Journal records other
// processes append while a digest is open are likewise invisible until
// that digest is re-opened by a fresh cache.  Corrupt, truncated, or
// wrong-schema cache artifacts are treated as absent (and counted),
// never as errors: the cache must only ever make runs faster, not
// wronger.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "msoc/common/file_lock.hpp"
#include "msoc/common/units.hpp"
#include "msoc/mswrap/partition.hpp"
#include "msoc/soc/delta.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/packing.hpp"

namespace msoc {
class JsonValue;
}  // namespace msoc

namespace msoc::plan {

/// Fingerprint (16 hex chars) of the PackingOptions fields a makespan
/// depends on.  Excluded: assign_wires (wire coloring never moves a
/// test), the borrowed hint pointers (runtime plumbing), and max_power
/// — the effective budget is an explicit EntryKey field, so
/// fingerprinting it too would double-count it.
[[nodiscard]] std::string packing_fingerprint(
    const tam::PackingOptions& options);

/// Canonical cache key of a sharing partition over `cores`: per group
/// the sorted member digests, groups sorted.  `powered` picks the
/// digest flavor — full core_digest (constrained entries) or the
/// power-stripped packing_core_digest (unconstrained entries).
[[nodiscard]] std::string partition_key(
    const std::vector<soc::AnalogCore>& cores,
    const mswrap::Partition& partition, bool powered);

/// Size/eviction policy knobs of a disk-backed ResultCache.
struct CacheTuning {
  /// Journal payload bytes past which flush() compacts the shard.
  std::uint64_t compact_threshold_bytes = 1u << 20;
  /// Open in-memory stores past which open() evicts the least
  /// recently used clean store.
  std::size_t max_open_stores = 256;
};

/// What one compact() call did.
struct CompactionStats {
  int shards_compacted = 0;       ///< Journals folded and reset.
  long long records_folded = 0;   ///< Journal records folded away.
  int snapshots_written = 0;      ///< v4 snapshot files (re)written.
};

class ResultCache {
 public:
  /// Typed entry key inside one digest's store — the coordinates a
  /// makespan depends on besides the SOC itself.
  struct EntryKey {
    /// Field-wise construction for loaders that validate elsewhere.
    EntryKey() = default;
    /// Validating constructor (every computed key goes through here):
    /// rejects non-finite or negative budgets — NaN would break the
    /// strict weak ordering below and corrupt every std::map keyed on
    /// EntryKey — non-positive widths, and a half-set window (cycles
    /// and limit must be positive together or zero together).
    EntryKey(int tam_width, double max_power, std::string fingerprint,
             std::string partition, Cycles window_cycles = 0,
             double window_limit = 0.0);

    int tam_width = 0;
    double max_power = 0.0;  ///< Effective budget; 0 = unconstrained.
    /// Effective sliding-window budget; both 0 = unwindowed.  Like
    /// max_power these are explicit key fields (not fingerprinted),
    /// and they serialize only when set, so pre-window stores and
    /// unwindowed entries keep their exact on-disk bytes.
    Cycles window_cycles = 0;
    double window_limit = 0.0;
    std::string fingerprint;
    std::string partition;

    friend bool operator<(const EntryKey& a, const EntryKey& b) {
      if (a.tam_width != b.tam_width) return a.tam_width < b.tam_width;
      if (a.max_power != b.max_power) return a.max_power < b.max_power;
      if (a.window_cycles != b.window_cycles) {
        return a.window_cycles < b.window_cycles;
      }
      if (a.window_limit != b.window_limit) {
        return a.window_limit < b.window_limit;
      }
      if (a.fingerprint != b.fingerprint) {
        return a.fingerprint < b.fingerprint;
      }
      return a.partition < b.partition;
    }
  };

  /// In-memory cache: empty snapshot, flush() merges but writes nothing.
  ResultCache() = default;

  /// Disk-backed cache rooted at `directory` (created on flush).
  explicit ResultCache(std::string directory);

  /// Disk-backed cache with explicit compaction/eviction policy.
  ResultCache(std::string directory, CacheTuning tuning);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Loads the snapshot for one SOC digest: the shard's v4 snapshot,
  /// then a replay of the shard journal (shared-locked; later layers
  /// win).  Idempotent and thread-safe (internally locked), but the
  /// file I/O happens under the lock, so prefer opening every digest
  /// up front before fanning lookups out.
  /// Unreadable or corrupt artifacts load as absent and bump
  /// corrupt_files().  May evict an older clean store (see
  /// CacheTuning::max_open_stores).
  void open(const std::string& digest, const std::string& soc_name = "");

  /// open() with the SOC in hand: additionally computes and pins the
  /// store's soc::DigestInventory (`digest` must be the SOC's own) so
  /// a flushed store can serve as a replan baseline.
  void open(const std::string& digest, const soc::Soc& soc);

  /// The inventory of an opened store — from the SOC it was opened
  /// with, or from a meta record in the journal or the snapshot;
  /// nullopt for never-opened digests and stores that carry none
  /// (those cannot seed a replan).
  [[nodiscard]] std::optional<soc::DigestInventory> inventory(
      const std::string& digest) const;

  /// Snapshot lookup; nullopt on miss (or when the digest was never
  /// opened).  `key.max_power` is the EFFECTIVE budget of the pack
  /// (0 = unconstrained; inherit-from-SOC must be resolved by the
  /// caller).  Thread-safe.
  [[nodiscard]] std::optional<Cycles> lookup(const std::string& digest,
                                             const EntryKey& key) const;

  /// Records a computed makespan in the overlay (visible to lookups
  /// only after the next flush; last writer wins on duplicates).
  /// Thread-safe.
  void record(const std::string& digest, const EntryKey& key,
              const std::string& label, Cycles test_time);

  /// Merges every overlay into its snapshot and, for disk-backed
  /// caches, appends the overlay entries to their shard journals —
  /// O(overlay) work and one fsync per dirty shard, under an exclusive
  /// per-shard file lock (torn tails left by killed writers are
  /// truncated here before appending).  Shards whose journal grew past
  /// the compaction threshold are folded into snapshot files.  No-op
  /// file-wise for in-memory caches (the overlay still merges, so a
  /// subsequent run() in the same process can hit it).
  void flush();

  /// Folds every shard journal under the cache directory into v4
  /// snapshot files and resets the journals.  Files of older layouts
  /// (v1-v3 stores, JSON snapshots) are left untouched.  Safe
  /// against concurrent writers (per-shard exclusive locks).  Also
  /// flushes pending overlays first.
  CompactionStats compact();

  [[nodiscard]] bool disk_backed() const noexcept {
    return !directory_.empty();
  }
  [[nodiscard]] const std::string& directory() const noexcept {
    return directory_;
  }

  /// Counters since construction (thread-safe).
  [[nodiscard]] long long hits() const;
  [[nodiscard]] long long misses() const;
  [[nodiscard]] long long records() const;
  [[nodiscard]] int corrupt_files() const;
  /// Records appended to journals by this cache's flush() calls.
  [[nodiscard]] long long journal_records() const;
  /// Bytes appended to journals by this cache (records + headers).
  [[nodiscard]] long long journal_bytes() const;
  /// Journal records replayed from disk (other writers' and past
  /// runs' appends observed by open()/flush() scans).
  [[nodiscard]] long long replayed_records() const;
  /// Shard compactions performed (threshold-triggered + explicit).
  [[nodiscard]] long long compactions() const;
  /// Clean stores dropped by the LRU bound.
  [[nodiscard]] long long evictions() const;
  /// Torn journal tails observed (killed-writer artifacts; recovered,
  /// not corruption).
  [[nodiscard]] long long torn_tails() const;

 private:
  struct Entry {
    Cycles test_time = 0;
    std::string label;  ///< Informational only; not part of the key.
  };
  struct Store {
    std::string soc_name;
    std::optional<soc::DigestInventory> inventory;
    std::map<EntryKey, Entry> snapshot;  ///< Visible to lookup().
    std::map<EntryKey, Entry> overlay;   ///< Pending record()s.
    /// True once this store's meta record sits in the current journal
    /// generation (re-appended after compaction bumps the generation).
    bool meta_journaled = false;
    std::uint64_t last_used = 0;  ///< LRU stamp (monotonic use tick).
  };
  /// Parsed record image of one digest: what a replay of the current
  /// journal generation (shard tail staging) or of one snapshot file
  /// says about the digest.
  struct Staged {
    std::string soc_name;
    std::optional<soc::DigestInventory> inventory;
    std::map<EntryKey, Entry> entries;
  };
  /// Per-shard scan cache: how far into the journal this process has
  /// validated, and the staged replay image for every digest seen.
  struct ShardState {
    bool scanned = false;
    bool header_bad = false;  ///< Journal header unusable (corrupt).
    std::uint64_t generation = 0;
    std::uint64_t validated = 0;  ///< Valid journal bytes [0, validated).
    std::map<std::string, Staged> tail;
    bool corrupt_counted = false;  ///< Dedup corrupt_files per journal.
    bool torn_counted = false;     ///< Dedup torn_tails per tail.
  };

  [[nodiscard]] std::string shard_dir(const std::string& shard) const;
  [[nodiscard]] std::string journal_path(const std::string& shard) const;
  [[nodiscard]] std::string snapshot_path(const std::string& digest) const;

  void open_locked(const std::string& digest, const std::string& soc_name);
  void maybe_evict_locked();
  /// The key and value of an "entry" record; throws ParseError naming
  /// `path` when malformed.
  [[nodiscard]] static std::pair<EntryKey, Entry> parse_entry(
      const JsonValue& item, const std::string& path);
  /// The one record parser: stages one checksum-valid payload (from a
  /// journal or a snapshot at `path`, whose shard is `shard_key`) into
  /// `images`, keyed by digest.  Throws Error when malformed.
  static void stage_record(std::string_view payload, const std::string& path,
                           const std::string& shard_key,
                           std::map<std::string, Staged>& images);
  /// Merges one staged image into `store` (the image wins entries and
  /// the inventory; the store keeps a non-empty soc_name).
  static void merge_staged(const Staged& staged, Store& store);
  /// Loads the digest's snapshot file into `store` (merge, the file
  /// wins).  Any damage — bad header, torn or corrupt frame, malformed
  /// payload, a record for another digest — loads nothing and counts
  /// the file corrupt.
  void load_snapshot_file_locked(const std::string& digest, Store& store);
  /// Forgets everything cached about one shard journal (tail staging,
  /// dedup flags, the stores' meta-journaled marks) — called when the
  /// generation changes under us or the journal is reset.
  void reset_shard_locked(const std::string& shard_key, ShardState& shard);
  /// Advances the shard scan cache over `bytes` (a whole journal
  /// file): detects generation changes, stages every newly validated
  /// record into shard.tail, and classifies/counts the tail.
  void absorb_journal_locked(const std::string& shard_key, ShardState& shard,
                             std::string_view bytes);
  /// Stages one checksum-valid journal payload into the shard tail
  /// (malformed payloads count as corruption and are skipped).
  void apply_payload_locked(const std::string& shard_key, ShardState& shard,
                            std::string_view payload, bool count_replayed);
  /// Replays the shard journal under a shared file lock (no-op when
  /// the journal does not exist; I/O errors degrade to corrupt_files).
  void scan_shard_shared_locked(const std::string& shard_key);
  /// Appends `payloads` to one shard journal under an exclusive lock
  /// (validating and truncating any bad tail first), then compacts
  /// when past the threshold.  Returns true when it compacted (the
  /// appended records no longer live in the journal).
  bool append_shard_locked(const std::string& shard_key,
                           const std::vector<std::string>& payloads);
  /// Folds the (fully scanned) journal of `shard_key` into snapshot
  /// files and resets the journal, under `lock` (exclusive).
  void compact_shard_locked(const std::string& shard_key, ShardState& shard,
                            FileLock& lock, CompactionStats& stats);
  /// Merges the staged journal image for `digest` (if any) into
  /// `store` (journal wins over file-loaded content).
  void apply_staged_locked(const std::string& digest, Store& store);

  std::string directory_;
  CacheTuning tuning_;
  std::map<std::string, Store> stores_;
  std::map<std::string, ShardState> shards_;
  std::uint64_t use_tick_ = 0;
  mutable std::mutex mutex_;
  mutable long long hits_ = 0;
  mutable long long misses_ = 0;
  long long records_ = 0;
  int corrupt_files_ = 0;
  long long journal_records_ = 0;
  long long journal_bytes_ = 0;
  long long replayed_records_ = 0;
  long long compactions_ = 0;
  long long evictions_ = 0;
  long long torn_tails_ = 0;
};

}  // namespace msoc::plan
