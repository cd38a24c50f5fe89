#pragma once
// Deterministic instrumentation counters for the packer's hot kernels.
//
// The CI perf-trajectory gate (tools/check_bench.py over BENCH_*.json)
// compares these counters — not wall-clock — against committed
// baselines, so they must be exactly reproducible for a given workload.
// They are: admission checks and reservations are decided by the
// deterministic packing algorithm, and events_visited counts skyline
// segments walked, which is a pure function of the same decisions.
//
// The kernels do not count.  Each tam::Timeline (one pack, or one repair
// round) sums its own probes into a plain snapshot and adds it to the
// process-wide totals once, when it is destroyed, so parallel plan
// evaluation (which runs the same set of packs regardless of job count)
// produces the same sums on any thread ladder.  Read the totals between
// packs: a pack still running has published nothing yet.

#include <cstdint>

namespace msoc::tam {

/// A plain-value counter block, for one Timeline's counts and for
/// reporting and differencing the process-wide totals.
struct PackCounterSnapshot {
  std::uint64_t admission_checks = 0;  ///< admission probes run.
  std::uint64_t events_visited = 0;    ///< skyline segments walked.
  std::uint64_t retries = 0;           ///< failed admission probes.
  std::uint64_t reservations = 0;      ///< envelopes reserved into.
};

/// Adds `counts` to the process-wide totals (thread-safe).
void add_pack_counters(const PackCounterSnapshot& counts) noexcept;

[[nodiscard]] PackCounterSnapshot snapshot_pack_counters() noexcept;
void reset_pack_counters() noexcept;

}  // namespace msoc::tam
