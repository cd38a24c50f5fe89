#include "msoc/plan/service.hpp"

#include <condition_variable>
#include <iterator>
#include <sstream>
#include <vector>

#include "msoc/common/journal.hpp"
#include "msoc/common/json.hpp"
#include "msoc/plan/request.hpp"
#include "msoc/soc/itc02.hpp"

namespace msoc::plan {

namespace {

constexpr const char* kRpcSchema = "msoc-rpc-v1";

/// ok=false envelope; the only reply shape that may omit "op" (the
/// request may not have parsed far enough to know one).
std::string error_envelope(const std::string& message) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kRpcSchema << "\",\"ok\":false,\"error\":\""
      << json_escape(message) << "\"}";
  return out.str();
}

std::string ok_envelope(const std::string& op, const std::string& document,
                        const std::string& csv) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kRpcSchema << "\",\"ok\":true,\"op\":\""
      << json_escape(op) << "\",\"document\":\"" << json_escape(document)
      << "\",\"csv\":\"" << json_escape(csv) << "\"}";
  return out.str();
}

PlanService::Frame frame_of(std::string_view envelope) {
  return std::make_shared<const std::string>(encode_journal_record(envelope));
}

}  // namespace

/// Single-flight rendezvous for one request key: the leader fills
/// reply/ok, flips done, and notifies; followers wait and share it.
struct PlanService::Pending {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  bool ok = false;
  Frame reply;
};

PlanService::PlanService(std::string cache_dir, ServiceLimits limits)
    : limits_(limits) {
  if (!cache_dir.empty()) cache_.emplace(std::move(cache_dir));
  for (const char* name : {"p93791m", "d695m", "p93791", "d695"}) {
    benches_.emplace(name, make_builtin_soc(name));
  }
}

std::vector<soc::Soc> PlanService::resolve_socs(const PlanRequest& request) {
  std::vector<soc::Soc> socs;
  if (!request.soc_text) {
    for (const std::string& name : request.bench_names()) {
      socs.push_back(benches_.at(name));
    }
    return socs;
  }
  const std::string& text = *request.soc_text;
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = soc_lru_.begin(); it != soc_lru_.end(); ++it) {
    // The text itself, not a hash of it: colliding texts are
    // different SOCs.
    if (it->first == text) {
      soc_lru_.splice(soc_lru_.begin(), soc_lru_, it);
      socs.push_back(soc_lru_.front().second);
      return socs;
    }
  }
  socs.push_back(soc::parse_soc_string(text, "<rpc soc_text>"));
  if (limits_.soc_cache_capacity > 0) {
    soc_lru_.emplace_front(text, socs.front());
    while (soc_lru_.size() > limits_.soc_cache_capacity) {
      soc_lru_.pop_back();
    }
  }
  return socs;
}

int PlanService::effective_jobs(int jobs) const {
  if (limits_.jobs_cap <= 0) return jobs;
  if (jobs <= 0 || jobs > limits_.jobs_cap) return limits_.jobs_cap;
  return jobs;
}

std::string PlanService::evaluate(const PlanRequest& request) {
  PlanRequest capped = request;
  if (limits_.jobs_cap > 0) {
    capped.jobs = effective_jobs(static_cast<int>(request.jobs.value_or(1)));
  }
  const PlanOutcome outcome =
      execute(capped, resolve_socs(request), cache());
  return ok_envelope(op_name(request.op), outcome.document, outcome.csv);
}

std::string PlanService::stats_reply() const {
  std::ostringstream out;
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"schema\":\"" << kRpcSchema << "\",\"ok\":true,\"op\":\"stats\""
      << ",\"requests\":" << stats_.requests
      << ",\"evaluations\":" << stats_.evaluations
      << ",\"memo_hits\":" << stats_.memo_hits
      << ",\"coalesced\":" << stats_.coalesced
      << ",\"errors\":" << stats_.errors
      << ",\"frontier_requests\":" << stats_.frontier_requests
      << ",\"sweep_requests\":" << stats_.sweep_requests
      << ",\"plan_requests\":" << stats_.plan_requests;
  if (cache_.has_value()) {
    out << ",\"cache\":{\"directory\":\""
        << json_escape(cache_->directory()) << "\",\"hits\":"
        << cache_->hits() << ",\"misses\":" << cache_->misses()
        << ",\"records\":" << cache_->records()
        << ",\"corrupt_files\":" << cache_->corrupt_files() << "}";
  }
  out << "}";
  return out.str();
}

void PlanService::count_op_locked(PlanOp op) {
  if (op == PlanOp::kFrontier) ++stats_.frontier_requests;
  else if (op == PlanOp::kSweep) ++stats_.sweep_requests;
  else ++stats_.plan_requests;
}

PlanService::Frame PlanService::memo_hit_locked(MemoList::iterator entry) {
  memo_lru_.splice(memo_lru_.begin(), memo_lru_, entry);
  ++stats_.memo_hits;
  return entry->frame;
}

void PlanService::set_alias_locked(MemoList::iterator entry,
                                   std::string_view bytes) {
  drop_alias_locked(entry);
  entry->alias.assign(bytes);
  memo_by_bytes_.emplace(entry->alias, entry);
}

void PlanService::drop_alias_locked(MemoList::iterator entry) {
  const auto it = memo_by_bytes_.find(entry->alias);
  if (it != memo_by_bytes_.end() && it->second == entry) {
    memo_by_bytes_.erase(it);
  }
}

void PlanService::memo_insert_locked(std::string key, std::string_view bytes,
                                     PlanOp op, Frame frame) {
  if (limits_.memo_capacity == 0) return;
  memo_lru_.push_front(MemoEntry{std::move(key), {}, op, std::move(frame)});
  const auto entry = memo_lru_.begin();
  memo_.emplace(entry->key, entry);
  set_alias_locked(entry, bytes);
  while (memo_lru_.size() > limits_.memo_capacity) {
    const auto last = std::prev(memo_lru_.end());
    drop_alias_locked(last);
    memo_.erase(last->key);
    memo_lru_.pop_back();
  }
}

std::string PlanService::handle(std::string_view request_json) {
  return handle_frame(request_json)->substr(kJournalRecordOverhead);
}

PlanService::Frame PlanService::handle_frame(std::string_view request_json) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests;
    // Exact bytes first: they decode to the entry's key.
    const auto alias_it = memo_by_bytes_.find(request_json);
    if (alias_it != memo_by_bytes_.end()) {
      count_op_locked(alias_it->second->op);
      return memo_hit_locked(alias_it->second);
    }
  }
  PlanRequest request;
  try {
    request = PlanRequest::from_json(request_json);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
    return frame_of(error_envelope(e.what()));
  }

  if (request.op == PlanOp::kPing) {
    return frame_of(std::string("{\"schema\":\"") + kRpcSchema +
                    "\",\"ok\":true,\"op\":\"ping\"}");
  }
  if (request.op == PlanOp::kStats) return frame_of(stats_reply());
  if (request.op == PlanOp::kShutdown) {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    return frame_of(std::string("{\"schema\":\"") + kRpcSchema +
                    "\",\"ok\":true,\"op\":\"shutdown\"}");
  }

  std::string key = request.to_json();
  std::shared_ptr<Pending> pending;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    count_op_locked(request.op);
    const auto memo_it = memo_.find(key);
    if (memo_it != memo_.end()) {
      set_alias_locked(memo_it->second, request_json);
      return memo_hit_locked(memo_it->second);
    }
    auto [inflight_it, inserted] =
        inflight_.try_emplace(key, std::shared_ptr<Pending>());
    if (inserted) {
      inflight_it->second = std::make_shared<Pending>();
      leader = true;
    }
    pending = inflight_it->second;
  }

  if (!leader) {
    std::unique_lock<std::mutex> wait_lock(pending->mutex);
    pending->cv.wait(wait_lock, [&] { return pending->done; });
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.coalesced;
    if (!pending->ok) ++stats_.errors;
    return pending->reply;
  }

  Frame reply;
  bool ok = true;
  try {
    reply = frame_of(evaluate(request));
  } catch (const std::exception& e) {
    ok = false;
    reply = frame_of(error_envelope(e.what()));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.evaluations;
    inflight_.erase(key);
    if (ok) {
      memo_insert_locked(std::move(key), request_json, request.op, reply);
    } else {
      ++stats_.errors;
    }
  }
  {
    std::lock_guard<std::mutex> done_lock(pending->mutex);
    pending->done = true;
    pending->ok = ok;
    pending->reply = reply;
  }
  pending->cv.notify_all();
  return reply;
}

ServiceStats PlanService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool PlanService::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutdown_;
}

}  // namespace msoc::plan
