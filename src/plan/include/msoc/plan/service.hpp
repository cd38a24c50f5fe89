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
//
// A memo entry stores its reply once, already framed as one msoc-rpc
// frame, and is found two ways: by request key (PlanRequest::to_json),
// and by the exact bytes of the latest request that reached it.  The
// byte lookup runs before any decoding and is exact because the key is
// a pure function of the bytes; a hit is a hash lookup, and the server
// writes the stored frame as it is.

#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "msoc/plan/request.hpp"
#include "msoc/plan/result_cache.hpp"
#include "msoc/soc/soc.hpp"

namespace msoc::plan {

struct ServiceLimits {
  /// Hard cap on one request's evaluation threads (0 = uncapped).
  /// NOTE: a cap below a client's --jobs changes the informational
  /// "jobs" field of sweep documents vs a standalone run (results
  /// themselves are jobs-invariant).
  int jobs_cap = 0;
  /// Response-memo entries kept (request key -> reply frame).
  std::size_t memo_capacity = 64;
  /// Parsed .soc texts kept (content -> Soc).
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

  /// One msoc-rpc frame (msoc/common/journal.hpp framing) per reply.
  using Frame = std::shared_ptr<const std::string>;

  /// One request envelope in, one response envelope out, framed.
  /// Never throws — malformed JSON, unknown ops and planning failures
  /// all become ok=false envelopes.  A memo hit returns the frame the
  /// entry stores, so the server sends it without re-encoding.
  [[nodiscard]] Frame handle_frame(std::string_view request_json);

  /// handle_frame()'s reply envelope without the frame header.
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
  /// One memoized reply.  `alias` is the latest raw request that
  /// reached the entry; memo_ and memo_by_bytes_ key on views into
  /// `key` and `alias`, which list nodes keep in place.
  struct MemoEntry {
    std::string key;
    std::string alias;
    PlanOp op;
    Frame frame;
  };
  using MemoList = std::list<MemoEntry>;

  /// Runs one planning request through execute() and wraps the
  /// outcome in the reply envelope.
  [[nodiscard]] std::string evaluate(const PlanRequest& request);
  /// By value: a reference into soc_lru_ could be evicted by a
  /// concurrent request while an evaluation still holds it.
  [[nodiscard]] std::vector<soc::Soc> resolve_socs(
      const PlanRequest& request);
  [[nodiscard]] int effective_jobs(int jobs) const;
  [[nodiscard]] std::string stats_reply() const;
  void count_op_locked(PlanOp op);
  [[nodiscard]] Frame memo_hit_locked(MemoList::iterator entry);
  void set_alias_locked(MemoList::iterator entry, std::string_view bytes);
  void drop_alias_locked(MemoList::iterator entry);
  void memo_insert_locked(std::string key, std::string_view bytes, PlanOp op,
                          Frame frame);

  ServiceLimits limits_;
  std::optional<ResultCache> cache_;
  std::map<std::string, soc::Soc> benches_;  ///< Loaded once, immutable.

  mutable std::mutex mutex_;
  /// LRU response memo: front = most recent.
  MemoList memo_lru_;
  std::unordered_map<std::string_view, MemoList::iterator> memo_;
  std::unordered_map<std::string_view, MemoList::iterator> memo_by_bytes_;
  std::map<std::string, std::shared_ptr<Pending>> inflight_;
  /// Parsed .soc-text cache keyed by the text itself, most recent
  /// first (linear scan; the capacity is small).
  std::list<std::pair<std::string, soc::Soc>> soc_lru_;
  ServiceStats stats_;
  bool shutdown_ = false;
};

}  // namespace msoc::plan
