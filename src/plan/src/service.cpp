#include "msoc/plan/service.hpp"

#include <condition_variable>
#include <cstdint>
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

}  // namespace

/// Single-flight rendezvous for one canonical key: the leader fills
/// reply/ok, flips done, and notifies; followers wait and copy.
struct PlanService::Pending {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  bool ok = false;
  std::string reply;
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
  const std::uint64_t hash = fnv1a64(*request.soc_text);
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = soc_lru_.begin(); it != soc_lru_.end(); ++it) {
    if (it->first == hash) {
      soc_lru_.splice(soc_lru_.begin(), soc_lru_, it);
      socs.push_back(soc_lru_.front().second);
      return socs;
    }
  }
  socs.push_back(soc::parse_soc_string(*request.soc_text, "<rpc soc_text>"));
  if (limits_.soc_cache_capacity > 0) {
    soc_lru_.emplace_front(hash, socs.front());
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

void PlanService::memo_insert_locked(const std::string& key,
                                     const std::string& reply) {
  if (limits_.memo_capacity == 0) return;
  memo_lru_.emplace_front(key, reply);
  memo_.emplace(key, memo_lru_.begin());
  while (memo_lru_.size() > limits_.memo_capacity) {
    memo_.erase(memo_lru_.back().first);
    memo_lru_.pop_back();
  }
}

std::string PlanService::handle(std::string_view request_json) {
  PlanRequest request;
  try {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.requests;
    }
    request = PlanRequest::from_json(request_json);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.errors;
    return error_envelope(e.what());
  }

  if (request.op == PlanOp::kPing) {
    return std::string("{\"schema\":\"") + kRpcSchema +
           "\",\"ok\":true,\"op\":\"ping\"}";
  }
  if (request.op == PlanOp::kStats) return stats_reply();
  if (request.op == PlanOp::kShutdown) {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    return std::string("{\"schema\":\"") + kRpcSchema +
           "\",\"ok\":true,\"op\":\"shutdown\"}";
  }

  const std::string key = request.canonical_key();
  std::shared_ptr<Pending> pending;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (request.op == PlanOp::kFrontier) ++stats_.frontier_requests;
    else if (request.op == PlanOp::kSweep) ++stats_.sweep_requests;
    else ++stats_.plan_requests;
    const auto memo_it = memo_.find(key);
    if (memo_it != memo_.end()) {
      memo_lru_.splice(memo_lru_.begin(), memo_lru_, memo_it->second);
      ++stats_.memo_hits;
      return memo_it->second->second;
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

  std::string reply;
  bool ok = true;
  try {
    reply = evaluate(request);
  } catch (const std::exception& e) {
    ok = false;
    reply = error_envelope(e.what());
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.evaluations;
    if (ok) {
      memo_insert_locked(key, reply);
    } else {
      ++stats_.errors;
    }
    inflight_.erase(key);
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
