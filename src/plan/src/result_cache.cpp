#include "msoc/plan/result_cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/fileio.hpp"
#include "msoc/common/format.hpp"
#include "msoc/common/journal.hpp"
#include "msoc/common/json.hpp"
#include "msoc/common/logging.hpp"
#include "msoc/soc/digest.hpp"

namespace msoc::plan {

namespace {

namespace fs = std::filesystem;

constexpr const char* kJournalName = "journal.wal";
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

/// The shard a digest's journal records live in: the first two digest
/// characters (hex in practice), sanitized so a hostile digest can
/// never name a directory outside the cache root.
std::string shard_key_of(const std::string& digest) {
  std::string key = digest.substr(0, std::min<std::size_t>(2, digest.size()));
  while (key.size() < 2) key.push_back('_');
  for (char& c : key) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                    (c >= 'A' && c <= 'Z');
    if (!ok) c = '_';
  }
  return key;
}

/// A JSON number that is a non-negative integer representable exactly
/// as a double; nullopt otherwise.
std::optional<Cycles> as_cycles(const JsonValue& value) {
  if (value.type() != JsonValue::Type::kNumber) return std::nullopt;
  const double n = value.as_number();
  if (!(n >= 0.0) || n > kMaxExactInteger || n != std::floor(n)) {
    return std::nullopt;
  }
  return static_cast<Cycles>(n);
}

/// Exactly 16 lowercase hex characters -> value; nullopt otherwise.
std::optional<std::uint64_t> parse_hex64(const std::string& text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    int nibble = 0;
    if (c >= '0' && c <= '9') nibble = c - '0';
    else if (c >= 'a' && c <= 'f') nibble = 10 + (c - 'a');
    else return std::nullopt;
    value = (value << 4) | static_cast<std::uint64_t>(nibble);
  }
  return value;
}

/// One inventory side ("digital"/"analog") of a meta record.
std::vector<soc::CoreDigests> parse_inventory_cores(
    const JsonValue& array, const std::string& path) {
  std::vector<soc::CoreDigests> cores;
  for (const JsonValue& item : array.as_array()) {
    const std::optional<std::uint64_t> full =
        parse_hex64(item.at("digest").as_string());
    const std::optional<std::uint64_t> packing =
        parse_hex64(item.at("packing").as_string());
    if (!full.has_value() || !packing.has_value()) {
      throw ParseError(path, 0, "malformed cache inventory");
    }
    cores.push_back({*full, *packing});
  }
  std::sort(cores.begin(), cores.end());
  return cores;
}

/// The "inventory" object of a meta record.
soc::DigestInventory parse_inventory(const JsonValue& header,
                                     const std::string& path) {
  soc::DigestInventory parsed;
  parsed.digital = parse_inventory_cores(header.at("digital"), path);
  parsed.analog = parse_inventory_cores(header.at("analog"), path);
  const JsonValue& budget = header.at("max_power");
  if (budget.type() != JsonValue::Type::kNumber ||
      !std::isfinite(budget.as_number()) || !(budget.as_number() >= 0.0)) {
    throw ParseError(path, 0, "malformed cache inventory");
  }
  parsed.max_power = budget.as_number();
  return parsed;
}

void write_inventory_cores(std::ostringstream& os,
                           const std::vector<soc::CoreDigests>& cores) {
  os << "[";
  for (std::size_t i = 0; i < cores.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "{\"digest\": \"" << hex64(cores[i].full)
       << "\", \"packing\": \"" << hex64(cores[i].packing) << "\"}";
  }
  os << "]";
}

void write_inventory(std::ostringstream& os,
                     const soc::DigestInventory& inventory) {
  os << "{\"max_power\": " << round_trip_double(inventory.max_power)
     << ", \"digital\": ";
  write_inventory_cores(os, inventory.digital);
  os << ", \"analog\": ";
  write_inventory_cores(os, inventory.analog);
  os << "}";
}

/// The payload of one cache entry (op: "entry"), in journals and
/// snapshots alike.
std::string entry_payload(const std::string& digest,
                          const ResultCache::EntryKey& key,
                          const std::string& label, Cycles test_time) {
  std::ostringstream os;
  os << "{\"op\": \"entry\", \"digest\": \"" << json_escape(digest)
     << "\", \"width\": " << key.tam_width << ", ";
  if (key.max_power > 0.0) {
    os << "\"max_power\": " << round_trip_double(key.max_power) << ", ";
  }
  if (key.window_cycles > 0) {
    os << "\"window_cycles\": " << key.window_cycles
       << ", \"window_limit\": " << round_trip_double(key.window_limit)
       << ", ";
  }
  os << "\"packing\": \"" << json_escape(key.fingerprint)
     << "\", \"partition\": \"" << json_escape(key.partition)
     << "\", \"label\": \"" << json_escape(label)
     << "\", \"test_time\": " << test_time << "}";
  return os.str();
}

/// The payload of one store's identity (op: "meta") — carries the SOC
/// name and digest inventory so a store assembled purely from records
/// can still seed a replan.
std::string meta_payload(const std::string& digest,
                         const std::string& soc_name,
                         const std::optional<soc::DigestInventory>& inventory) {
  std::ostringstream os;
  os << "{\"op\": \"meta\", \"digest\": \"" << json_escape(digest)
     << "\", \"soc_name\": \"" << json_escape(soc_name) << "\"";
  if (inventory.has_value()) {
    os << ", \"inventory\": ";
    write_inventory(os, *inventory);
  }
  os << "}";
  return os.str();
}

}  // namespace

std::string packing_fingerprint(const tam::PackingOptions& options) {
  std::ostringstream canonical;
  canonical << "race=" << options.race_orders
            << ";order=" << static_cast<int>(options.order)
            << ";flex=" << options.flexible_width
            << ";rounds=" << options.improvement_rounds
            << ";pertest=" << options.analog_per_test
            << ";serfb=" << options.serialized_fallback << ";";
  return hex64(fnv1a64(canonical.str()));
}

std::string partition_key(const std::vector<soc::AnalogCore>& cores,
                          const mswrap::Partition& partition, bool powered) {
  std::vector<std::string> group_keys;
  group_keys.reserve(partition.groups().size());
  for (const std::vector<std::size_t>& group : partition.groups()) {
    std::vector<std::uint64_t> members;
    members.reserve(group.size());
    for (const std::size_t index : group) {
      check_invariant(index < cores.size(),
                      "partition index outside the core list");
      members.push_back(powered ? soc::core_digest(cores[index])
                                : soc::packing_core_digest(cores[index]));
    }
    std::sort(members.begin(), members.end());
    std::string key;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i > 0) key += ',';
      key += hex64(members[i]);
    }
    group_keys.push_back(std::move(key));
  }
  std::sort(group_keys.begin(), group_keys.end());
  std::string joined;
  for (std::size_t i = 0; i < group_keys.size(); ++i) {
    if (i > 0) joined += '|';
    joined += group_keys[i];
  }
  return joined;
}

ResultCache::EntryKey::EntryKey(int width, double power, std::string fp,
                                std::string part, Cycles wcycles,
                                double wlimit)
    : tam_width(width),
      max_power(power),
      window_cycles(wcycles),
      window_limit(wlimit),
      fingerprint(std::move(fp)),
      partition(std::move(part)) {
  require(tam_width >= 1, "cache entry key needs a positive TAM width");
  // NaN would break EntryKey's strict weak ordering and silently
  // corrupt every std::map keyed on it; infinities round-trip badly
  // through the JSON store.  Reject both here, at the innermost layer.
  require(std::isfinite(max_power) && max_power >= 0.0,
          "cache entry key needs a finite non-negative power budget");
  require(std::isfinite(window_limit) && window_limit >= 0.0,
          "cache entry key needs a finite non-negative window limit");
  require((window_cycles > 0) == (window_limit > 0.0),
          "cache entry key needs window cycles and limit set together");
}

ResultCache::ResultCache(std::string directory)
    : ResultCache(std::move(directory), CacheTuning{}) {}

ResultCache::ResultCache(std::string directory, CacheTuning tuning)
    : directory_(std::move(directory)), tuning_(tuning) {
  require(!directory_.empty(), "cache directory must not be empty");
  require(tuning_.max_open_stores >= 1,
          "cache tuning needs max_open_stores >= 1");
}

std::string ResultCache::shard_dir(const std::string& shard) const {
  return (fs::path(directory_) / shard).string();
}

std::string ResultCache::journal_path(const std::string& shard) const {
  return (fs::path(directory_) / shard / kJournalName).string();
}

std::string ResultCache::snapshot_path(const std::string& digest) const {
  return (fs::path(directory_) / shard_key_of(digest) / (digest + ".snap"))
      .string();
}

std::pair<ResultCache::EntryKey, ResultCache::Entry> ResultCache::parse_entry(
    const JsonValue& item, const std::string& path) {
  const std::optional<Cycles> width = as_cycles(item.at("width"));
  const std::optional<Cycles> time = as_cycles(item.at("test_time"));
  // Zero-cycle makespans are impossible (every SOC tests something)
  // and a zero T_max baseline would divide costs by zero — reject them
  // here so readers can use entries without re-validating.  Widths
  // share PlanRequest's [1, INT_MAX] range: a wider one would wrap in
  // the int key and answer for a width it was never packed at.
  if (!width.has_value() || *width < 1 ||
      *width > static_cast<Cycles>(std::numeric_limits<int>::max()) ||
      !time.has_value() || *time < 1) {
    throw ParseError(path, 0, "malformed cache entry");
  }
  EntryKey key;
  key.tam_width = static_cast<int>(*width);
  // A power budget the pack honored; absent means unconstrained.
  if (const JsonValue* budget = item.find("max_power")) {
    if (budget->type() != JsonValue::Type::kNumber ||
        !std::isfinite(budget->as_number()) ||
        !(budget->as_number() > 0.0)) {
      throw ParseError(path, 0, "malformed cache entry");
    }
    key.max_power = budget->as_number();
  }
  // Windowed entries carry both fields; absent means unwindowed.
  if (const JsonValue* wcycles = item.find("window_cycles")) {
    const std::optional<Cycles> cycles = as_cycles(*wcycles);
    const JsonValue* wlimit = item.find("window_limit");
    if (!cycles.has_value() || *cycles < 1 || wlimit == nullptr ||
        wlimit->type() != JsonValue::Type::kNumber ||
        !std::isfinite(wlimit->as_number()) ||
        !(wlimit->as_number() > 0.0)) {
      throw ParseError(path, 0, "malformed cache entry");
    }
    key.window_cycles = *cycles;
    key.window_limit = wlimit->as_number();
  }
  key.fingerprint = item.at("packing").as_string();
  key.partition = item.at("partition").as_string();
  Entry entry;
  entry.test_time = *time;
  if (const JsonValue* label = item.find("label")) {
    entry.label = label->as_string();
  }
  return {std::move(key), std::move(entry)};
}

void ResultCache::stage_record(std::string_view payload,
                               const std::string& path,
                               const std::string& shard_key,
                               std::map<std::string, Staged>& images) {
  const JsonValue doc = parse_json(std::string(payload), path);
  const std::string op = doc.at("op").as_string();
  const std::string digest = doc.at("digest").as_string();
  if (digest.empty() || shard_key_of(digest) != shard_key) {
    throw ParseError(path, 0, "cache record digest outside its shard");
  }
  if (op == "entry") {
    auto [key, entry] = parse_entry(doc, path);
    images[digest].entries.insert_or_assign(std::move(key), std::move(entry));
  } else if (op == "meta") {
    Staged& staged = images[digest];
    if (const JsonValue* name = doc.find("soc_name")) {
      const std::string soc_name = name->as_string();
      if (!soc_name.empty()) staged.soc_name = soc_name;
    }
    if (const JsonValue* header = doc.find("inventory")) {
      staged.inventory = parse_inventory(*header, path);
    }
  } else {
    throw ParseError(path, 0, "unknown cache record op");
  }
}

void ResultCache::merge_staged(const Staged& staged, Store& store) {
  for (const auto& [key, entry] : staged.entries) {
    store.snapshot.insert_or_assign(key, entry);
  }
  // Later layers postdate whatever the earlier ones said.
  if (staged.inventory.has_value()) store.inventory = staged.inventory;
  if (store.soc_name.empty()) store.soc_name = staged.soc_name;
}

void ResultCache::load_snapshot_file_locked(const std::string& digest,
                                            Store& store) {
  const std::string path = snapshot_path(digest);
  try {
    const std::optional<std::string> bytes = read_file_if_exists(path);
    if (!bytes.has_value()) return;  // absent is not corrupt
    // Snapshots land whole by atomic rename, so unlike a journal a
    // snapshot with any damage at all is not a crash artifact.
    const JournalScan scan = scan_journal(*bytes);
    if (bytes->empty() || scan.bad_header || scan.generation != 0 ||
        scan.tail != JournalTail::kClean) {
      throw ParseError(path, 0, "damaged snapshot frame");
    }
    std::map<std::string, Staged> images;
    for (const std::string& payload : scan.payloads) {
      stage_record(payload, path, shard_key_of(digest), images);
    }
    if (images.size() > 1 ||
        (images.size() == 1 && images.begin()->first != digest)) {
      throw ParseError(path, 0, "snapshot record for another digest");
    }
    // Commit only after the whole file parsed (no partial merges).
    if (!images.empty()) merge_staged(images.begin()->second, store);
  } catch (const Error& e) {
    // A cache must only ever make runs faster: anything unparseable OR
    // unreadable (ParseError and plain Error alike — e.g. permission
    // problems) is treated as absent and counted.
    log_debug("ignoring corrupt cache file ", path, ": ", e.what());
    ++corrupt_files_;
  }
}

void ResultCache::reset_shard_locked(const std::string& shard_key,
                                     ShardState& shard) {
  shard.tail.clear();
  shard.header_bad = false;
  shard.corrupt_counted = false;
  shard.torn_counted = false;
  shard.validated = kJournalHeaderBytes;
  // Meta records of the old generation are gone; dirty stores must
  // re-announce themselves in the next generation.
  for (auto& [digest, store] : stores_) {
    if (shard_key_of(digest) == shard_key) store.meta_journaled = false;
  }
}

void ResultCache::apply_payload_locked(const std::string& shard_key,
                                       ShardState& shard,
                                       std::string_view payload,
                                       bool count_replayed) {
  try {
    stage_record(payload, journal_path(shard_key), shard_key, shard.tail);
    if (count_replayed) ++replayed_records_;
  } catch (const Error& e) {
    // Checksum-valid but semantically invalid: skip the record, keep
    // replaying — one corruption count per journal generation.
    log_debug("ignoring malformed journal record in ",
              journal_path(shard_key), ": ", e.what());
    if (!shard.corrupt_counted) {
      ++corrupt_files_;
      shard.corrupt_counted = true;
    }
  }
}

void ResultCache::absorb_journal_locked(const std::string& shard_key,
                                        ShardState& shard,
                                        std::string_view bytes) {
  if (bytes.empty()) {
    // Fresh journal (or one lost to a crash mid-reset): nothing to
    // replay; the next appender writes a header.
    if (shard.scanned) reset_shard_locked(shard_key, shard);
    shard.scanned = true;
    shard.generation = 0;
    shard.validated = 0;
    return;
  }
  const JournalScan head = scan_journal(std::string_view(
      bytes.data(), std::min<std::size_t>(bytes.size(), kJournalHeaderBytes)));
  if (head.bad_header) {
    const bool counted = shard.corrupt_counted;
    if (shard.scanned) reset_shard_locked(shard_key, shard);
    if (!counted) ++corrupt_files_;
    shard.scanned = true;
    shard.header_bad = true;
    shard.corrupt_counted = true;
    shard.validated = 0;
    return;
  }
  std::uint64_t from = kJournalHeaderBytes;
  if (shard.scanned && !shard.header_bad &&
      shard.generation == head.generation &&
      shard.validated >= kJournalHeaderBytes &&
      shard.validated <= bytes.size()) {
    // Same generation and the file only grew: resume where the last
    // scan stopped.  (Generation gates this: a compaction elsewhere
    // would have bumped it, invalidating our offset.)
    from = shard.validated;
  } else if (shard.scanned) {
    reset_shard_locked(shard_key, shard);
  }
  shard.scanned = true;
  shard.header_bad = false;
  shard.generation = head.generation;
  const JournalScan scan = scan_journal(bytes, from);
  for (const std::string& payload : scan.payloads) {
    apply_payload_locked(shard_key, shard, payload, /*count_replayed=*/true);
  }
  shard.validated = scan.valid_size;
  switch (scan.tail) {
    case JournalTail::kClean:
      shard.torn_counted = false;
      break;
    case JournalTail::kTorn:
      // The normal artifact of a writer killed mid-append: recovered,
      // not corruption.  The next appender truncates it physically.
      if (!shard.torn_counted) {
        ++torn_tails_;
        shard.torn_counted = true;
      }
      break;
    case JournalTail::kCorrupt:
      if (!shard.corrupt_counted) {
        ++corrupt_files_;
        shard.corrupt_counted = true;
      }
      break;
  }
}

void ResultCache::scan_shard_shared_locked(const std::string& shard_key) {
  ShardState& shard = shards_[shard_key];
  try {
    std::optional<FileLock> lock =
        FileLock::shared_if_exists(journal_path(shard_key));
    if (!lock.has_value()) {
      // No journal (yet, or deleted out from under us): forget any
      // cached scan state.
      if (shard.scanned) {
        reset_shard_locked(shard_key, shard);
        shard.scanned = false;
        shard.generation = 0;
      }
      return;
    }
    absorb_journal_locked(shard_key, shard, lock->read_all());
  } catch (const Error& e) {
    log_debug("cannot replay cache journal ", journal_path(shard_key), ": ",
              e.what());
    if (!shard.corrupt_counted) {
      ++corrupt_files_;
      shard.corrupt_counted = true;
    }
  }
}

void ResultCache::apply_staged_locked(const std::string& digest,
                                      Store& store) {
  const auto sit = shards_.find(shard_key_of(digest));
  if (sit == shards_.end()) return;
  const auto tit = sit->second.tail.find(digest);
  if (tit == sit->second.tail.end()) return;
  merge_staged(tit->second, store);
}

void ResultCache::maybe_evict_locked() {
  while (stores_.size() >= tuning_.max_open_stores) {
    auto victim = stores_.end();
    for (auto it = stores_.begin(); it != stores_.end(); ++it) {
      if (!it->second.overlay.empty()) continue;  // never drop records
      if (victim == stores_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == stores_.end()) return;  // everything dirty: over-admit
    stores_.erase(victim);
    ++evictions_;
  }
}

void ResultCache::open_locked(const std::string& digest,
                              const std::string& soc_name) {
  if (stores_.find(digest) == stores_.end()) maybe_evict_locked();
  auto [it, inserted] = stores_.try_emplace(digest);
  Store& store = it->second;
  store.last_used = ++use_tick_;
  if (!soc_name.empty()) store.soc_name = soc_name;
  if (!inserted || !disk_backed()) return;
  // Layered load, later layers win: the snapshot, then a replay of the
  // shard journal.
  load_snapshot_file_locked(digest, store);
  scan_shard_shared_locked(shard_key_of(digest));
  apply_staged_locked(digest, store);
}

void ResultCache::open(const std::string& digest,
                       const std::string& soc_name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  open_locked(digest, soc_name);
}

void ResultCache::open(const std::string& digest, const soc::Soc& soc) {
  const std::lock_guard<std::mutex> lock(mutex_);
  open_locked(digest, soc.name());
  // The SOC in hand is authoritative over whatever the file header or
  // journal meta said (they agree unless the store was tampered with).
  stores_[digest].inventory = soc::digest_inventory(soc);
}

std::optional<soc::DigestInventory> ResultCache::inventory(
    const std::string& digest) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto store = stores_.find(digest);
  if (store == stores_.end()) return std::nullopt;
  return store->second.inventory;
}

std::optional<Cycles> ResultCache::lookup(const std::string& digest,
                                          const EntryKey& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto store = stores_.find(digest);
  if (store != stores_.end()) {
    const auto it = store->second.snapshot.find(key);
    if (it != store->second.snapshot.end()) {
      ++hits_;
      return it->second.test_time;
    }
  }
  ++misses_;
  return std::nullopt;
}

void ResultCache::record(const std::string& digest, const EntryKey& key,
                         const std::string& label, Cycles test_time) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Store& store = stores_[digest];
  store.last_used = ++use_tick_;
  Entry entry;
  entry.test_time = test_time;
  entry.label = label;
  store.overlay.insert_or_assign(key, std::move(entry));
  ++records_;
}

bool ResultCache::append_shard_locked(
    const std::string& shard_key, const std::vector<std::string>& payloads) {
  const std::string path = journal_path(shard_key);
  std::optional<FileLock> locked = FileLock::exclusive_if_regular(path);
  if (!locked.has_value()) {
    // A cache may make runs slower, never fail them: the records stay
    // in memory and this shard goes unwritten.
    log_warn("cache journal ", path,
             " is not a regular file; its shard was not written");
    ++flush_errors_;
    return false;
  }
  FileLock& lock = *locked;
  ShardState& shard = shards_[shard_key];
  const std::string bytes = lock.read_all();
  absorb_journal_locked(shard_key, shard, bytes);
  std::string out;
  std::uint64_t base = 0;
  if (bytes.empty() || shard.header_bad) {
    // Fresh journal, or one whose header was corrupted: (re)write the
    // header in the same synced write as the records.  A new
    // generation invalidates any offsets other processes cached
    // against the broken file.
    const std::uint64_t generation =
        shard.header_bad ? shard.generation + 1 : 0;
    lock.truncate(0);
    reset_shard_locked(shard_key, shard);
    shard.scanned = true;
    shard.generation = generation;
    out = encode_journal_header(generation);
  } else {
    base = shard.validated;
    if (base < lock.size()) {
      // Drop the torn or corrupt tail before appending after it — an
      // append past garbage would wedge every future replay at the
      // garbage.  Safe: we hold the exclusive lock, and everything
      // past `validated` failed its checksum.
      lock.truncate(base);
      shard.torn_counted = false;
    }
  }
  for (const std::string& payload : payloads) {
    out += encode_journal_record(payload);
  }
  lock.write_at_and_sync(base, out);
  shard.validated = base + out.size();
  journal_records_ += static_cast<long long>(payloads.size());
  journal_bytes_ += static_cast<long long>(out.size());
  // Keep the in-memory journal image complete (an evicted store must
  // be reassemblable from files + tail), without counting our own
  // appends as replays.
  for (const std::string& payload : payloads) {
    apply_payload_locked(shard_key, shard, payload, /*count_replayed=*/false);
  }
  if (shard.validated >
      kJournalHeaderBytes + tuning_.compact_threshold_bytes) {
    CompactionStats stats;
    compact_shard_locked(shard_key, shard, lock, stats);
    return false;
  }
  return true;
}

void ResultCache::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::vector<std::string>> batches;
  // Digests whose meta rides in this flush's batch, per shard.  The
  // meta_journaled flag is set only AFTER the append lands: the append
  // itself may reset the shard (fresh journal, bad header), and
  // marking at batch-build time would leave the flag cleared by that
  // reset — re-appending the same meta on every subsequent flush.
  std::map<std::string, std::vector<std::string>> meta_digests;
  for (auto& [digest, store] : stores_) {
    if (store.overlay.empty()) continue;
    if (disk_backed()) {
      std::vector<std::string>& batch = batches[shard_key_of(digest)];
      if (!store.meta_journaled) {
        batch.push_back(meta_payload(digest, store.soc_name,
                                     store.inventory));
        meta_digests[shard_key_of(digest)].push_back(digest);
      }
      for (const auto& [key, entry] : store.overlay) {
        batch.push_back(
            entry_payload(digest, key, entry.label, entry.test_time));
      }
    }
    for (auto& [key, entry] : store.overlay) {
      store.snapshot.insert_or_assign(key, std::move(entry));
    }
    store.overlay.clear();
  }
  if (!disk_backed() || batches.empty()) return;
  ensure_directory(directory_);
  for (const auto& [shard_key, batch] : batches) {
    try {
      ensure_directory(shard_dir(shard_key));
      // Unless the records stay in the journal, its metas are not there.
      if (!append_shard_locked(shard_key, batch)) continue;
    } catch (const Error& e) {
      // Like a journal that is not a regular file: the records stay in
      // memory, this shard goes unwritten and the others are flushed.
      log_warn("cannot write cache shard ", shard_dir(shard_key), ": ",
               e.what());
      ++flush_errors_;
      continue;
    }
    for (const std::string& digest : meta_digests[shard_key]) {
      stores_[digest].meta_journaled = true;
    }
  }
}

void ResultCache::compact_shard_locked(const std::string& shard_key,
                                       ShardState& shard, FileLock& lock,
                                       CompactionStats& stats) {
  // Precondition: the journal is fully absorbed (tail is the complete
  // replay image of the current generation) and `lock` is exclusive.
  for (const auto& [digest, staged] : shard.tail) {
    // Assemble from ALL durable layers, not just what this process has
    // in memory: a CONCURRENT compactor may have folded records we
    // never saw (appended after our open, compacted before our rescan)
    // into the snapshot file and reset the journal — re-reading the
    // file here is the only way not to lose them when we overwrite it.
    Store assembled;
    load_snapshot_file_locked(digest, assembled);
    const auto it = stores_.find(digest);
    if (it != stores_.end()) {
      // Layer the open store on top: it folds journal-at-open + this
      // cache's own flushed overlays.  Pending (unflushed) overlay
      // entries are deliberately NOT published.
      for (const auto& [key, entry] : it->second.snapshot) {
        assembled.snapshot.insert_or_assign(key, entry);
      }
      if (it->second.inventory.has_value()) {
        assembled.inventory = it->second.inventory;
      }
      if (!it->second.soc_name.empty()) {
        assembled.soc_name = it->second.soc_name;
      }
    }
    for (const auto& [key, entry] : staged.entries) {
      assembled.snapshot.insert_or_assign(key, entry);
    }
    if (staged.inventory.has_value() && !assembled.inventory.has_value()) {
      assembled.inventory = staged.inventory;
    }
    if (assembled.soc_name.empty()) assembled.soc_name = staged.soc_name;
    // The snapshot is a generation-0 journal of the folded image: one
    // meta record, then the entries in EntryKey order.
    std::string bytes = encode_journal_header(0);
    bytes += encode_journal_record(
        meta_payload(digest, assembled.soc_name, assembled.inventory));
    for (const auto& [key, entry] : assembled.snapshot) {
      bytes += encode_journal_record(
          entry_payload(digest, key, entry.label, entry.test_time));
    }
    // Snapshot bytes must be durable BEFORE the journal forgets the
    // records they fold — hence sync=true — so a crash between the two
    // replays to the same state (replay is idempotent).
    write_file_atomic(snapshot_path(digest), bytes, /*sync=*/true);
    ++stats.snapshots_written;
    stats.records_folded += static_cast<long long>(staged.entries.size());
  }
  // Reset the journal: new-generation header first, then drop the
  // folded records.  A crash in between leaves old records under a new
  // header — they replay on top of the snapshots they are already in.
  const std::uint64_t generation = shard.generation + 1;
  const std::string header = encode_journal_header(generation);
  lock.write_at_and_sync(0, header);
  lock.truncate(kJournalHeaderBytes);
  journal_bytes_ += static_cast<long long>(header.size());
  reset_shard_locked(shard_key, shard);
  shard.scanned = true;
  shard.generation = generation;
  ++compactions_;
  ++stats.shards_compacted;
}

CompactionStats ResultCache::compact() {
  flush();
  const std::lock_guard<std::mutex> lock(mutex_);
  CompactionStats stats;
  if (!disk_backed()) return stats;
  std::error_code ec;
  if (!fs::is_directory(directory_, ec) || ec) return stats;
  std::vector<std::string> shard_keys;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(directory_, ec)) {
    std::error_code probe;
    if (entry.is_directory(ec) &&
        fs::is_regular_file(entry.path() / kJournalName, probe)) {
      shard_keys.push_back(entry.path().filename().string());
    }
  }
  std::sort(shard_keys.begin(), shard_keys.end());
  for (const std::string& shard_key : shard_keys) {
    try {
      std::optional<FileLock> journal =
          FileLock::exclusive_if_regular(journal_path(shard_key));
      if (!journal.has_value()) continue;  // replaced since the listing
      ShardState& shard = shards_[shard_key];
      absorb_journal_locked(shard_key, shard, journal->read_all());
      const bool pristine = shard.tail.empty() && !shard.header_bad &&
                            shard.validated == journal->size();
      if (!pristine) compact_shard_locked(shard_key, shard, *journal, stats);
    } catch (const Error& e) {
      log_warn("cannot compact cache shard ", shard_dir(shard_key), ": ",
               e.what());
    }
  }
  return stats;
}

long long ResultCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}
long long ResultCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}
long long ResultCache::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}
int ResultCache::corrupt_files() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return corrupt_files_;
}
int ResultCache::flush_errors() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return flush_errors_;
}
long long ResultCache::journal_records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return journal_records_;
}
long long ResultCache::journal_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return journal_bytes_;
}
long long ResultCache::replayed_records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return replayed_records_;
}
long long ResultCache::compactions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return compactions_;
}
long long ResultCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}
long long ResultCache::torn_tails() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return torn_tails_;
}

}  // namespace msoc::plan
