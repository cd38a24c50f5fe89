// ResultCache journal trajectory: write, replay, compact, contend.
//
// Pins the deterministic counters of the msoc-cache-v4 store for a
// fixed synthetic workload so CI can gate them (tools/check_bench.py):
//
//   * write    — one process records kEntries entries across four
//     shards, flushing every kFlushEvery.  journal_records and
//     journal_bytes are exact for the workload; bytes_per_record is
//     the format's framing overhead and must not creep.
//   * replay   — a cold cache re-opens every digest purely from the
//     journals; replayed_records must equal what write appended.
//   * compact  — folds the journals into v4 .snap snapshots (the
//     journal's framing); records_folded and snapshots_written are
//     exact, and a fresh cache must read every entry back from the
//     snapshots alone (zero replayed records, zero corrupt files).
//   * contend  — kThreads writer caches (one per thread, the
//     multi-process pattern) hammer ONE shard through the file lock,
//     then a cold audit proves every entry survived (all_recovered,
//     a gated flag) with corrupt_files() == 0.  Only wall_ms varies
//     by machine; it is normalized to 0 in the committed baseline.
//
// Writes the counters as JSON (schema "msoc-bench-cache-v1") and
// exits non-zero when any phase breaks its contract — the bench
// doubles as a correctness gate, like incremental_replan.
//
// Usage: cache_contention [output.json] [cache_dir]

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "msoc/plan/result_cache.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using msoc::Cycles;
using msoc::plan::CacheTuning;
using msoc::plan::CompactionStats;
using msoc::plan::ResultCache;

constexpr int kDigests = 4;
constexpr int kEntriesPerDigest = 128;
constexpr int kFlushEvery = 32;
constexpr int kThreads = 4;
constexpr int kContendEntries = 64;

const char* digest_of(int d) {
  static const char* kTable[kDigests] = {
      "aa00000000000001", "bb00000000000002", "cc00000000000003",
      "dd00000000000004"};
  return kTable[d];
}

ResultCache::EntryKey key_of(int digest, int index) {
  return ResultCache::EntryKey(16 + (index % 4) * 8,
                               index % 2 == 0 ? 0.0 : 250.0,
                               "00000000feedbead",
                               "d" + std::to_string(digest) + "-i" +
                                   std::to_string(index));
}

Cycles value_of(int digest, int index) {
  return 1 + static_cast<Cycles>(digest) * 100000 +
         static_cast<Cycles>(index);
}

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_cache.json";
  const std::string cache_dir =
      argc > 2 ? argv[2] : "cache_contention_dir";
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);

  std::printf("ResultCache journal trajectory, %d digests x %d entries, "
              "cache %s\n",
              kDigests, kEntriesPerDigest, cache_dir.c_str());

  // --- write: flush-every-K appends across four shards. ---
  long long journal_records = 0;
  long long journal_bytes = 0;
  int flushes = 0;
  double write_wall_ms = 0.0;
  {
    ResultCache cache(cache_dir);
    const Clock::time_point start = Clock::now();
    for (int d = 0; d < kDigests; ++d) {
      cache.open(digest_of(d), "bench_soc");
    }
    for (int i = 0; i < kEntriesPerDigest; ++i) {
      for (int d = 0; d < kDigests; ++d) {
        cache.record(digest_of(d), key_of(d, i), "bench", value_of(d, i));
      }
      if ((i + 1) % kFlushEvery == 0) {
        cache.flush();
        ++flushes;
      }
    }
    cache.flush();
    write_wall_ms = elapsed_ms(start);
    journal_records = cache.journal_records();
    journal_bytes = cache.journal_bytes();
  }
  const double bytes_per_record =
      journal_records > 0
          ? static_cast<double>(journal_bytes) /
                static_cast<double>(journal_records)
          : 0.0;
  std::printf("  write    %8.1f ms  %lld records / %lld journal bytes "
              "(%.1f B/record, %d flushes)\n",
              write_wall_ms, journal_records, journal_bytes,
              bytes_per_record, flushes);

  // --- replay: a cold cache reassembles every store from journals. ---
  long long replayed_records = 0;
  int replay_corrupt = 0;
  double replay_wall_ms = 0.0;
  bool replay_complete = true;
  {
    ResultCache cache(cache_dir);
    const Clock::time_point start = Clock::now();
    for (int d = 0; d < kDigests; ++d) cache.open(digest_of(d));
    replay_wall_ms = elapsed_ms(start);
    replayed_records = cache.replayed_records();
    replay_corrupt = cache.corrupt_files();
    for (int d = 0; d < kDigests && replay_complete; ++d) {
      for (int i = 0; i < kEntriesPerDigest; ++i) {
        const auto hit = cache.lookup(digest_of(d), key_of(d, i));
        if (!hit.has_value() || *hit != value_of(d, i)) {
          std::fprintf(stderr, "error: replay lost d%d i%d\n", d, i);
          replay_complete = false;
          break;
        }
      }
    }
  }
  std::printf("  replay   %8.1f ms  %lld records replayed, %d corrupt\n",
              replay_wall_ms, replayed_records, replay_corrupt);

  // --- compact: fold the journals into v4 snapshots. ---
  CompactionStats stats;
  double compact_wall_ms = 0.0;
  long long compactions = 0;
  {
    ResultCache cache(cache_dir);
    const Clock::time_point start = Clock::now();
    stats = cache.compact();
    compact_wall_ms = elapsed_ms(start);
    compactions = cache.compactions();
  }
  bool snapshots_complete = true;
  {
    ResultCache cache(cache_dir);
    for (int d = 0; d < kDigests; ++d) cache.open(digest_of(d));
    for (int d = 0; d < kDigests && snapshots_complete; ++d) {
      for (int i = 0; i < kEntriesPerDigest; ++i) {
        const auto hit = cache.lookup(digest_of(d), key_of(d, i));
        if (!hit.has_value() || *hit != value_of(d, i)) {
          std::fprintf(stderr, "error: snapshot lost d%d i%d\n", d, i);
          snapshots_complete = false;
          break;
        }
      }
    }
    if (cache.replayed_records() != 0 || cache.corrupt_files() != 0) {
      std::fprintf(stderr,
                   "error: snapshot reload replayed %lld records, "
                   "%d corrupt\n",
                   cache.replayed_records(), cache.corrupt_files());
      snapshots_complete = false;
    }
  }
  std::printf("  compact  %8.1f ms  %d shards, %lld records folded, "
              "%d snapshots, read back=%s\n",
              compact_wall_ms, stats.shards_compacted, stats.records_folded,
              stats.snapshots_written, snapshots_complete ? "yes" : "NO");

  // --- contend: one shard, one cache per thread, file-lock traffic. ---
  const char* contended = "ee00000000000005";
  double contend_wall_ms = 0.0;
  {
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache_dir, contended, t] {
        ResultCache cache(cache_dir);
        cache.open(contended, "bench_soc");
        for (int i = 0; i < kContendEntries; ++i) {
          cache.record(contended, key_of(100 + t, i), "contend",
                       value_of(100 + t, i));
          if (i % 4 == 3) cache.flush();
        }
        cache.flush();
      });
    }
    for (std::thread& t : threads) t.join();
    contend_wall_ms = elapsed_ms(start);
  }
  bool all_recovered = true;
  int contend_corrupt = 0;
  {
    ResultCache audit(cache_dir);
    audit.open(contended);
    for (int t = 0; t < kThreads; ++t) {
      for (int i = 0; i < kContendEntries; ++i) {
        const auto hit = audit.lookup(contended, key_of(100 + t, i));
        if (!hit.has_value() || *hit != value_of(100 + t, i)) {
          std::fprintf(stderr, "error: contention lost t%d i%d\n", t, i);
          all_recovered = false;
        }
      }
    }
    contend_corrupt = audit.corrupt_files();
  }
  std::printf("  contend  %8.1f ms  %d threads x %d entries, "
              "recovered=%s, %d corrupt\n",
              contend_wall_ms, kThreads, kContendEntries,
              all_recovered ? "yes" : "NO", contend_corrupt);

  const bool ok = replay_complete && snapshots_complete && all_recovered &&
                  replay_corrupt == 0 && contend_corrupt == 0 &&
                  stats.shards_compacted == kDigests;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"schema\": \"msoc-bench-cache-v1\",\n"
      << "  \"write\": {\"digests\": " << kDigests
      << ", \"entries_per_digest\": " << kEntriesPerDigest
      << ", \"flushes\": " << flushes
      << ", \"journal_records\": " << journal_records
      << ", \"journal_bytes\": " << journal_bytes
      << ", \"bytes_per_record\": " << bytes_per_record
      << ", \"wall_ms\": " << write_wall_ms << "},\n"
      << "  \"replay\": {\"replayed_records\": " << replayed_records
      << ", \"corrupt_files\": " << replay_corrupt
      << ", \"wall_ms\": " << replay_wall_ms << "},\n"
      << "  \"compact\": {\"compactions\": " << compactions
      << ", \"records_folded\": " << stats.records_folded
      << ", \"snapshots_written\": " << stats.snapshots_written
      << ", \"wall_ms\": " << compact_wall_ms << "},\n"
      << "  \"contend\": {\"threads\": " << kThreads
      << ", \"entries_per_thread\": " << kContendEntries
      << ", \"corrupt_files\": " << contend_corrupt
      << ", \"all_recovered\": " << (all_recovered ? "true" : "false")
      << ", \"wall_ms\": " << contend_wall_ms << "}\n}\n";
  out.close();
  std::printf("trajectory written to %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
