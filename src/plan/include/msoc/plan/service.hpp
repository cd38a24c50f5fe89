#pragma once
// Transport-agnostic msoc-rpc-v1 serving layer: the planning daemon's
// brain, separated from its socket loop (src/pland) so tests and
// benches can drive it in-process.
//
// One PlanService owns what a standalone msoc_plan run pays per
// invocation: the built-in benchmark SOCs (parsed once), a bounded
// cache of parsed .soc texts, and — when configured with a cache
// directory — ONE shared ResultCache whose in-memory snapshot/overlay
// is the hot layer over the msoc-cache-v4 store on disk.  handle()
// decodes a JSON request envelope into a plan::PlanRequest and runs it
// through plan::execute — the same executor a standalone msoc_plan run
// calls (msoc/plan/request.hpp) — so planning documents travel inside
// the reply envelope as escaped strings, byte-identical to the JSON
// `msoc_plan` with the same flags writes (docs/formats.md,
// "msoc-rpc-v1").
//
// Concurrency contract (the "millions of users" shape):
//   * handle() is thread-safe and called concurrently by the server's
//     worker pool.
//   * Identical requests IN FLIGHT coalesce: one evaluation runs, every
//     waiter gets the leader's exact reply bytes (single-flight).
//   * Identical requests REPEATED hit a bounded LRU response memo and
//     return the first evaluation's bytes without planning at all —
//     which is also what keeps replies bit-stable while the shared
//     cache warms up underneath.
//   * Evaluation errors are never memoized; every retry re-plans.

#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "msoc/plan/result_cache.hpp"
#include "msoc/soc/soc.hpp"

namespace msoc::plan {

struct PlanRequest;

struct ServiceLimits {
  /// Hard cap on one request's evaluation threads (0 = uncapped).
  /// NOTE: a cap below a client's --jobs changes the informational
  /// "jobs" field of sweep documents vs a standalone run (results
  /// themselves are jobs-invariant).
  int jobs_cap = 0;
  /// Response-memo entries kept (canonical request -> reply bytes).
  std::size_t memo_capacity = 64;
  /// Parsed .soc texts kept (content hash -> Soc).
  std::size_t soc_cache_capacity = 16;
};

struct ServiceStats {
  long long requests = 0;     ///< Envelopes handled, every op.
  long long evaluations = 0;  ///< Planning runs actually executed.
  long long memo_hits = 0;    ///< Replies served from the memo.
  long long coalesced = 0;    ///< Waits on an identical in-flight run.
  long long errors = 0;       ///< ok=false replies.
  long long frontier_requests = 0;
  long long sweep_requests = 0;
  long long plan_requests = 0;
};

class PlanService {
 public:
  /// Empty `cache_dir` = no persistent cache: every evaluated document
  /// is byte-identical to a cacheless standalone run (the golden-diff
  /// contract).  Non-empty: the shared hot cache layered over the v4
  /// store in that directory.
  explicit PlanService(std::string cache_dir = {},
                       ServiceLimits limits = {});

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// One request envelope in, one response envelope out.  Never
  /// throws — malformed JSON, unknown ops and planning failures all
  /// become ok=false envelopes.
  [[nodiscard]] std::string handle(std::string_view request_json);

  [[nodiscard]] ServiceStats stats() const;

  /// True once a shutdown op was accepted; the server should drain.
  [[nodiscard]] bool shutdown_requested() const;

  /// The shared cache (nullptr when running cacheless).
  [[nodiscard]] ResultCache* cache() noexcept {
    return cache_.has_value() ? &*cache_ : nullptr;
  }

 private:
  struct Pending;

  /// Runs one planning request through execute() and wraps the
  /// outcome in the reply envelope.
  [[nodiscard]] std::string evaluate(const PlanRequest& request);
  /// By value: a reference into soc_lru_ could be evicted by a
  /// concurrent request while an evaluation still holds it.
  [[nodiscard]] std::vector<soc::Soc> resolve_socs(
      const PlanRequest& request);
  [[nodiscard]] int effective_jobs(int jobs) const;
  [[nodiscard]] std::string stats_reply() const;
  void memo_insert_locked(const std::string& key, const std::string& reply);

  ServiceLimits limits_;
  std::optional<ResultCache> cache_;
  std::map<std::string, soc::Soc> benches_;  ///< Loaded once, immutable.

  mutable std::mutex mutex_;
  /// LRU response memo: front = most recent.  The map's string keys
  /// are canonical request keys; values point into the list.
  std::list<std::pair<std::string, std::string>> memo_lru_;
  std::map<std::string, std::list<std::pair<std::string, std::string>>::
                            iterator>
      memo_;
  std::map<std::string, std::shared_ptr<Pending>> inflight_;
  /// Parsed .soc-text cache, most recent first (linear scan; the
  /// capacity is small).
  std::list<std::pair<std::uint64_t, soc::Soc>> soc_lru_;
  ServiceStats stats_;
  bool shutdown_ = false;
};

}  // namespace msoc::plan
