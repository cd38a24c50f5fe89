#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark itself around each call it makes
// into a layer's public functions (no instrumentation inside the
// program).  Each worker thread owns one Sink and installs it in
// `current` for the traced phase; with no sink installed a Span costs
// one thread-local load.  Spans nest through the sink's open-span
// index, so every record knows its parent, and carry the id of the op
// they belong to.  Nothing is written until the run ends.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Record {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< Index into the same sink; -1 = root.
  std::uint64_t op = 0;
};

struct Sink {
  std::vector<Record> records;
  std::int32_t open = -1;  ///< Innermost open span.
  std::uint64_t op = 0;    ///< Op id stamped on new spans.
};

inline thread_local Sink* current = nullptr;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// RAII span on the calling thread's sink (no-op without one).
class Span {
 public:
  explicit Span(const char* name) : sink_(current) {
    if (sink_ == nullptr) return;
    index_ = static_cast<std::int32_t>(sink_->records.size());
    sink_->records.push_back({name, now_ns(), 0, sink_->open, sink_->op});
    sink_->open = index_;
  }
  ~Span() {
    if (sink_ == nullptr) return;
    Record& record = sink_->records[static_cast<std::size_t>(index_)];
    record.end_ns = now_ns();
    sink_->open = record.parent;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Sink* sink_;
  std::int32_t index_ = -1;
};

/// Self time per span name, in ms: each span's duration minus the part
/// its direct children cover.
inline std::map<std::string, double> self_ms_by_name(
    const std::vector<Sink>& sinks) {
  std::map<std::string, double> out;
  for (const Sink& sink : sinks) {
    std::vector<std::int64_t> self(sink.records.size());
    for (std::size_t i = 0; i < sink.records.size(); ++i) {
      const Record& r = sink.records[i];
      self[i] += r.end_ns - r.start_ns;
      if (r.parent >= 0) {
        self[static_cast<std::size_t>(r.parent)] -= r.end_ns - r.start_ns;
      }
    }
    for (std::size_t i = 0; i < sink.records.size(); ++i) {
      out[sink.records[i].name] += static_cast<double>(self[i]) / 1e6;
    }
  }
  return out;
}

/// Chrome trace-event JSON (loadable in Perfetto), one tid per sink.
inline void write_chrome_trace(std::ostream& out,
                               const std::vector<Sink>& sinks) {
  std::int64_t origin = INT64_MAX;
  for (const Sink& sink : sinks) {
    for (const Record& r : sink.records) origin = std::min(origin, r.start_ns);
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t tid = 0; tid < sinks.size(); ++tid) {
    for (const Record& r : sinks[tid].records) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << r.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << static_cast<double>(r.start_ns - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
          << ",\"args\":{\"op\":" << r.op << ",\"parent\":" << r.parent
          << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

}  // namespace perfbench::trace
