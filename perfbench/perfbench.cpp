// msoc_perfbench: the repository benchmark (see perfbench/README.md).
//
// One process runs one workload for a fixed time and prints, as the
// last line of stdout, {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.  Earlier lines record the run's context and details.
// perfbench/run.py builds this binary and is the benchmark's entry
// point.
//
// Usage:
//   msoc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --tmp DIR [--revision REV] [--inject-wrong K]
//                  [--trace-out FILE]
//
// Every op's output is checked by an oracle that does not share the
// path under test; wrong outputs count as failed.  --inject-wrong K
// corrupts op K's output before the oracle sees it (the self-test
// proves a broken output is caught).  All files the run creates live
// under --tmp.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "msoc/common/journal.hpp"
#include "msoc/common/json.hpp"
#include "msoc/common/net.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/plan/pipeline.hpp"
#include "msoc/plan/result_cache.hpp"
#include "msoc/plan/service.hpp"
#include "msoc/pland/server.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/delta.hpp"
#include "msoc/soc/digest.hpp"
#include "msoc/soc/itc02.hpp"
#include "msoc/tam/counters.hpp"
#include "msoc/tam/packing.hpp"
#include "msoc/tam/schedule.hpp"
#include "trace.hpp"

#ifndef MSOC_PERFBENCH_BUILD_TYPE
#define MSOC_PERFBENCH_BUILD_TYPE ""
#endif

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::trace::Span;
namespace fs = std::filesystem;
namespace trace = perfbench::trace;
using namespace msoc;

// ---------------------------------------------------------------------------
// Metric names.  BENCHMARK.json lists the same names; run.py --self-test
// checks that every run emits exactly them, with these units.
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"latency_ms_p50", "ms"},   {"latency_ms_tail", "ms"},
    {"throughput_ops_s", "1/s"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},       {"makespan_cycles", "cycles"},
};

constexpr MetricSpec kPerLayer[] = {
    {"failed_ratio", "ratio"},
    {"trace.overhead_ms", "ms"},
    {"op.self_ms", "ms"},
    {"soc.parse_ms", "ms"},
    {"soc.digest_ms", "ms"},
    {"wrapper.pareto_ms", "ms"},
    {"wrapper.pareto_calls", "count"},
    {"mswrap.space_ms", "ms"},
    {"mswrap.partitions", "count"},
    {"tam.pack_ms", "ms"},
    {"tam.packs", "count"},
    {"tam.admission_checks", "count"},
    {"tam.events_visited", "count"},
    {"tam.retries", "count"},
    {"tam.reservations", "count"},
    {"tam.retry_ratio", "ratio"},
    {"tam.check_ms", "ms"},
    {"plan.engine_ms", "ms"},
    {"plan.evaluations", "count"},
    {"plan.cache_hits", "count"},
    {"plan.reused", "count"},
    {"plan.cache_hit_ratio", "ratio"},
    {"plan.cache_open_ms", "ms"},
    {"plan.cache_flush_ms", "ms"},
    {"plan.replayed_records", "count"},
    {"plan.journal_bytes", "bytes"},
    {"plan.serialize_ms", "ms"},
    {"plan.service_ms", "ms"},
    {"plan.memo_hit_ratio", "ratio"},
    {"plan.coalesced", "count"},
    {"pland.rpc_ms", "ms"},
    {"pland.frame_bytes", "bytes"},
    {"pland.busy_rejected", "count"},
    {"pland.frame_errors", "count"},
};

// Span names; a layer's "<name>_ms" metric is its self time per op.
constexpr const char* kSpanNames[] = {
    "soc.parse",  "soc.digest",       "wrapper.pareto",   "mswrap.space",
    "tam.pack",   "tam.check",        "plan.engine",      "plan.cache_open",
    "plan.cache_flush", "plan.serialize", "plan.service", "pland.rpc",
};

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double unit_draw(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Shortest text that reads back as the same double.
std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string quoted(const std::string& text) {
  return "\"" + json_escape(text) + "\"";
}

/// A "/proc/self/status" field in its own units (kB for memory).
long long proc_status(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atoll(line.c_str() + prefix.size());
    }
  }
  return 0;
}

/// Resets the process's peak RSS (VmHWM) to its current RSS, so a peak
/// read later covers only what ran since.  False where the kernel does
/// not allow it.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5" << std::flush;
  return static_cast<bool>(out);
}

/// A fixed integer loop, timed: lets readers scale wall-clock numbers
/// between machines.  Recorded with the context, never gated.
double calibration_ms() {
  std::vector<double> runs;
  volatile std::uint64_t sink = 0;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point start = Clock::now();
    std::uint64_t x = 0x12345678u + static_cast<std::uint64_t>(r);
    for (int i = 0; i < (1 << 24); ++i) {
      x = (x * 6364136223846793005ull + 1442695040888963407ull) ^ (x >> 29);
    }
    sink = sink ^ x;
    runs.push_back(ms_since(start));
  }
  return median(runs);
}

// ---------------------------------------------------------------------------
// Output oracle helpers.
// ---------------------------------------------------------------------------

/// Timing fields: the only ones a cold reply may differ from its
/// in-process reference in.
const std::set<std::string> kTimingFields = {"wall_ms", "total_wall_ms"};

/// Timing plus provenance: the fields that record how an answer was
/// obtained (cold solve, cache hit, replan splice, memo replay) rather
/// than what the answer is.
const std::set<std::string> kProvenanceFields = {
    "wall_ms",      "total_wall_ms",  "schema",
    "evaluations",  "cache_hits",     "cache",
    "reused",       "replanned_from", "dirty_partitions",
    "evaluation_reduction_percent"};

void canonical_into(const JsonValue& value,
                    const std::set<std::string>& ignore, std::string& out) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      out += "null";
      return;
    case JsonValue::Type::kBool:
      out += value.as_bool() ? "true" : "false";
      return;
    case JsonValue::Type::kNumber:
      out += number(value.as_number());
      return;
    case JsonValue::Type::kString:
      out += quoted(value.as_string());
      return;
    case JsonValue::Type::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : value.as_array()) {
        if (!first) out += ',';
        first = false;
        canonical_into(item, ignore, out);
      }
      out += ']';
      return;
    }
    case JsonValue::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, item] : value.as_object()) {
        if (ignore.count(key) != 0) continue;
        if (!first) out += ',';
        first = false;
        out += quoted(key) + ":";
        canonical_into(item, ignore, out);
      }
      out += '}';
      return;
    }
  }
}

/// A planning document with `ignore` fields dropped at every depth,
/// keys sorted: two documents compare equal iff their answers do.
std::string canonical(const std::string& document,
                      const std::set<std::string>& ignore) {
  std::string out;
  canonical_into(parse_json(document, "document"), ignore, out);
  return out;
}

struct Envelope {
  bool ok = false;
  std::string document;
};

Envelope parse_envelope(const std::string& reply) {
  const JsonValue root = parse_json(reply, "reply");
  Envelope envelope;
  envelope.ok = root.at("ok").as_bool();
  if (envelope.ok) envelope.document = root.at("document").as_string();
  return envelope;
}

/// What a frontier or sweep document says about its own work.
struct DocFacts {
  double makespan = 0.0;  ///< Shortest best test time over its cells.
  double evaluations = 0.0;
  double cache_hits = 0.0;
  double reused = 0.0;
};

DocFacts doc_facts(const std::string& document) {
  const JsonValue doc = parse_json(document, "document");
  DocFacts facts;
  const JsonValue* points = doc.find("points");
  const JsonValue& rows = points != nullptr ? *points : doc.at("cases");
  for (const JsonValue& row : rows.as_array()) {
    if (const JsonValue* best = row.find("best")) {
      const double t = best->at("test_time").as_number();
      if (facts.makespan == 0.0 || t < facts.makespan) facts.makespan = t;
    }
    if (points == nullptr) {
      if (const JsonValue* e = row.find("evaluations")) {
        facts.evaluations += e->as_number();
      }
    }
  }
  if (points != nullptr) {
    facts.evaluations = doc.at("evaluations").as_number();
    facts.cache_hits = doc.at("cache_hits").as_number();
  } else if (const JsonValue* cache = doc.find("cache")) {
    facts.cache_hits = cache->at("hits").as_number();
  }
  if (const JsonValue* reused = doc.find("reused")) {
    facts.reused = reused->as_number();
  }
  return facts;
}

/// The self-test's injected fault: bumps the first digit after the
/// first "test_time", in a raw document or an escaped envelope alike.
void corrupt(std::string& text) {
  std::size_t at = text.find("test_time");
  while (at < text.size() && (text[at] < '0' || text[at] > '9')) ++at;
  if (at < text.size()) text[at] = text[at] == '9' ? '8' : text[at] + 1;
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

constexpr int kSocSetSize = 16;
constexpr int kScaleCores = 500;
constexpr int kScaleWidth = 64;

/// A seeded variant of `base`: every digital core's pattern count and
/// scan-chain lengths scaled by factors drawn from [0.9, 1.1].  Power
/// annotations, budgets, analog cores and the declaration order are
/// kept.  Variants of one base cost about the same to plan, so a set of
/// them gives steady medians, while no two seeds give the same inputs.
soc::Soc variant_of(const soc::Soc& base, std::uint64_t seed,
                    const std::string& name) {
  std::uint64_t state = seed;
  const auto scaled = [&](double value) {
    return value * (0.9 + 0.2 * unit_draw(state)) + 0.5;
  };
  std::vector<soc::DigitalCore> cores = base.digital_cores();
  for (soc::DigitalCore& core : cores) {
    core.patterns = std::max(
        1LL, static_cast<long long>(scaled(static_cast<double>(core.patterns))));
    for (int& length : core.scan_chain_lengths) {
      length = std::max(1, static_cast<int>(scaled(length)));
    }
  }
  soc::Soc out(name);
  out.set_max_power(base.max_power());
  out.set_power_window(base.power_window());
  for (soc::DigitalCore& core : cores) out.add_digital(std::move(core));
  for (const soc::AnalogCore& core : base.analog_cores()) out.add_analog(core);
  return out;
}

/// The seeded SOC set of frontier_cold and eco_warm, as .soc text:
/// variants of p93791m (32 digital cores plus the five Table-2 analog
/// cores).
std::vector<std::string> p93791m_class_texts(std::uint64_t seed) {
  const soc::Soc base = soc::make_p93791m();
  std::uint64_t state = seed;
  std::vector<std::string> texts;
  for (int i = 0; i < kSocSetSize; ++i) {
    texts.push_back(soc::write_soc_string(variant_of(
        base, splitmix64(state), "p93791m_class_" + std::to_string(i))));
  }
  return texts;
}

/// `soc` with the SOC budget and, optionally, one digital core's power
/// edited (Soc has no mutable core accessors, so it is rebuilt).
soc::Soc with_power_edit(const soc::Soc& soc, std::optional<std::size_t> core,
                         double power, double max_power) {
  soc::Soc out(soc.name());
  out.set_max_power(max_power);
  out.set_power_window(soc.power_window());
  for (std::size_t i = 0; i < soc.digital_count(); ++i) {
    soc::DigitalCore copy = soc.digital_cores()[i];
    if (i == core) copy.power = power;
    out.add_digital(std::move(copy));
  }
  for (const soc::AnalogCore& analog : soc.analog_cores()) {
    out.add_analog(analog);
  }
  return out;
}

std::string frontier_request(const std::string& soc_text,
                             const std::string& extra_fields) {
  return "{\"schema\":\"msoc-rpc-v1\",\"op\":\"frontier\",\"jobs\":1,"
         "\"soc_text\":" +
         quoted(soc_text) + extra_fields + "}";
}

/// The in-process reference a frontier reply must match: the same SOC
/// text solved by a cacheless FrontierEngine.
std::string reference_frontier(const std::string& soc_text,
                               bool unconstrained) {
  const soc::Soc soc = soc::parse_soc_string(soc_text, "<reference>");
  plan::FrontierOptions options;
  options.jobs = 1;
  if (unconstrained) options.max_powers = {0.0};
  plan::FrontierEngine engine(soc, options);
  return engine.run().to_json();
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct OpResult {
  double latency_ms = 0.0;
  bool failed = false;  ///< Error reply, refusal or transport failure.
  bool wrong = false;   ///< Output disagreed with the oracle.
  double makespan = 0.0;  ///< Best test time the output reports.
  int kind = 0;           ///< Index into Workload::op_kinds().
};

/// Counts taken at the layer boundaries, summed over a phase's ops.
struct LayerCounts {
  double pareto_calls = 0.0;
  double partitions = 0.0;
  double packs = 0.0;
  double evaluations = 0.0;
  double cache_hits = 0.0;
  double reused = 0.0;
  double replayed_records = 0.0;
  double journal_bytes = 0.0;
  double frame_bytes = 0.0;

  void add(const LayerCounts& o) {
    pareto_calls += o.pareto_calls;
    partitions += o.partitions;
    packs += o.packs;
    evaluations += o.evaluations;
    cache_hits += o.cache_hits;
    reused += o.reused;
    replayed_records += o.replayed_records;
    journal_bytes += o.journal_bytes;
    frame_bytes += o.frame_bytes;
  }
  void add_facts(const DocFacts& facts) {
    packs += facts.evaluations;
    evaluations += facts.evaluations;
    cache_hits += facts.cache_hits;
    reused += facts.reused;
  }
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Threads running ops concurrently (closed loop, one op at a time
  /// each).  Counted against nproc with any server workers.
  [[nodiscard]] virtual int client_threads() const { return 1; }
  [[nodiscard]] virtual int server_threads() const { return 0; }
  [[nodiscard]] virtual int setup_repetitions() const { return 25; }
  /// Consecutive ops whose mean latency makes one latency sample; 1
  /// times every op on its own.
  [[nodiscard]] virtual std::size_t latency_pool() const { return 1; }
  /// Brings the system to its ready state; timed as setup_s.  Each
  /// repetition starts from scratch and replaces the previous one.
  virtual void setup(int repetition) = 0;
  /// Builds the oracle's references (untimed).
  virtual void prepare_oracle() {}
  virtual OpResult run_op(int worker, std::uint64_t index, bool traced,
                          bool inject, LayerCounts& counts) = 0;
  virtual void begin_phase() {}
  /// Per-layer values only the workload can measure, per op.
  virtual void end_phase(long long /*ops*/,
                         std::map<std::string, double>& /*layer*/) {}
  /// Names of the op kinds of a mixed workload, whose median latencies
  /// `detail` reports one by one; empty for a single kind.
  [[nodiscard]] virtual std::vector<std::string> op_kinds() const {
    return {};
  }
};

/// One frontier request decomposed into the public calls
/// PlanService::handle makes, each under a span.  The Pareto tables
/// are computed here and lent to the engine (FrontierOptions::
/// pareto_tables), so they are not computed twice; PartitionSpace and
/// the replan digest diff have no such seam, so the engine repeats
/// them and the traced op pays them twice (counted in
/// trace.overhead_ms).  Returns the frontier document.
std::string traced_frontier(const std::string& soc_text,
                            const std::string& cache_dir,
                            const std::string& replan_from,
                            bool unconstrained, LayerCounts& counts) {
  soc::Soc soc;
  {
    Span span("soc.parse");
    soc = soc::parse_soc_string(soc_text, "<rpc soc_text>");
  }
  std::string digest;
  {
    Span span("soc.digest");
    digest = soc::digest_hex(soc);
  }
  std::optional<plan::ResultCache> cache;
  {
    Span span("plan.cache_open");
    cache.emplace(cache_dir);
    cache->open(digest, soc);
    if (!replan_from.empty()) cache->open(replan_from);
  }
  if (!replan_from.empty()) {
    Span span("soc.digest");
    if (const auto baseline = cache->inventory(replan_from)) {
      [[maybe_unused]] const soc::DigestDelta delta =
          soc::diff(*baseline, soc::digest_inventory(soc));
    }
  }

  plan::FrontierOptions options;
  options.jobs = 1;
  options.cache = &*cache;
  if (unconstrained) options.max_powers = {0.0};
  tam::ParetoTables tables;
  {
    Span span("wrapper.pareto");
    tables = tam::compute_pareto_tables(
        soc, *std::max_element(options.widths.begin(), options.widths.end()));
  }
  // wrapper::pareto_widths designs one wrapper per width up to the
  // table's width, for every digital core.
  counts.pareto_calls += static_cast<double>(tables.by_core.size()) *
                         static_cast<double>(tables.max_width);
  options.pareto_tables = &tables;
  {
    Span span("mswrap.space");
    const plan::PartitionSpace space(soc, options.weights, options.area_model,
                                     options.policy, options.enumeration);
    counts.partitions += static_cast<double>(space.cells.size());
  }
  plan::FrontierResult result;
  {
    Span span("plan.engine");
    plan::FrontierEngine engine(soc, options);
    result = replan_from.empty() ? engine.run() : engine.replan(replan_from);
  }
  {
    Span span("plan.cache_flush");
    cache->flush();
  }
  std::string document;
  std::string csv;
  {
    Span span("plan.serialize");
    document = result.to_json();
    csv = result.to_csv();
  }
  counts.packs += result.evaluations;
  counts.evaluations += result.evaluations;
  counts.cache_hits += result.cache_hits;
  counts.reused += result.reused;
  counts.replayed_records += static_cast<double>(cache->replayed_records());
  counts.journal_bytes += static_cast<double>(cache->journal_bytes());
  return document;
}

/// Checks one frontier reply (a service envelope, or a bare document
/// from the traced path) against its canonical reference.
void judge_frontier(const std::string& output, bool is_envelope,
                    const std::string& reference,
                    const std::set<std::string>& ignore, OpResult& out) {
  try {
    std::string document = output;
    if (is_envelope) {
      Envelope envelope = parse_envelope(output);
      if (!envelope.ok) {
        out.failed = true;
        return;
      }
      document = std::move(envelope.document);
    }
    out.wrong = canonical(document, ignore) != reference;
    out.makespan = doc_facts(document).makespan;
  } catch (const std::exception&) {
    out.wrong = true;
  }
}

/// frontier_cold: one cold frontier request per op, through a fresh
/// PlanService over an empty cache directory — a cold msoc_plan run.
class FrontierCold final : public Workload {
 public:
  FrontierCold(std::uint64_t seed, fs::path tmp)
      : seed_(seed), tmp_(std::move(tmp)) {}

  /// One latency sample per pass over the SOC set: the sixteen SOCs
  /// cost different amounts, and the host's speed drifts over seconds,
  /// so single requests gave medians that moved 25% from run to run.
  [[nodiscard]] std::size_t latency_pool() const override {
    return kSocSetSize;
  }

  void setup(int /*repetition*/) override {
    texts_ = p93791m_class_texts(seed_);
    requests_.clear();
    for (const std::string& text : texts_) {
      requests_.push_back(frontier_request(text, ""));
    }
  }

  void prepare_oracle() override {
    for (const std::string& text : texts_) {
      references_.push_back(
          canonical(reference_frontier(text, false), kTimingFields));
    }
  }

  OpResult run_op(int /*worker*/, std::uint64_t index, bool traced,
                  bool inject, LayerCounts& counts) override {
    const std::size_t i = index % texts_.size();
    const fs::path dir = tmp_ / ("cold-" + std::to_string(index));
    OpResult out;
    std::string output;
    const Clock::time_point start = Clock::now();
    try {
      if (traced) {
        Span span("op");
        output = traced_frontier(texts_[i], dir.string(), "", false, counts);
      } else {
        plan::PlanService service(dir.string());
        output = service.handle(requests_[i]);
      }
    } catch (const std::exception&) {
      out.failed = true;
    }
    out.latency_ms = ms_since(start);
    fs::remove_all(dir);
    if (out.failed) return out;
    if (inject) corrupt(output);
    judge_frontier(output, !traced, references_[i], kTimingFields, out);
    return out;
  }

 private:
  std::uint64_t seed_;
  fs::path tmp_;
  std::vector<std::string> texts_;
  std::vector<std::string> requests_;
  std::vector<std::string> references_;
};

/// eco_warm: the same SOCs solved cold into a template cache; each op
/// copies the template (untimed) and sends a warm repeat of an original
/// request (one op in four) or a replan_from ECO of it (the other
/// three).  An uneven mix keeps the median inside one kind of op.
class EcoWarm final : public Workload {
 public:
  EcoWarm(std::uint64_t seed, fs::path tmp)
      : seed_(seed), tmp_(std::move(tmp)) {}

  ~EcoWarm() override {
    std::error_code ignored;
    if (!template_.empty()) fs::remove_all(template_, ignored);
  }

  [[nodiscard]] int setup_repetitions() const override { return 3; }

  /// One latency sample per cycle through the SOC set's four ops each,
  /// for the reasons given at FrontierCold::latency_pool.
  [[nodiscard]] std::size_t latency_pool() const override {
    return 4 * kSocSetSize;
  }

  void setup(int repetition) override {
    texts_ = p93791m_class_texts(seed_);
    if (!template_.empty()) fs::remove_all(template_);
    template_ = tmp_ / ("eco-template-" + std::to_string(repetition));
    {
      plan::PlanService service(template_.string());
      for (const std::string& text : texts_) {
        if (!parse_envelope(service.handle(frontier_request(text, ""))).ok) {
          throw std::runtime_error("eco_warm: template solve failed");
        }
      }
    }
    // One ECO per SOC: a power annotation on one seeded digital core
    // (even SOCs) or a MaxPower edit (odd SOCs), both planned with
    // max_powers [0] so every cell can be spliced from the baseline.
    std::uint64_t state = seed_ ^ 0xEC0EC0ull;
    mutant_texts_.clear();
    baselines_.clear();
    repeat_requests_.clear();
    eco_requests_.clear();
    for (std::size_t i = 0; i < texts_.size(); ++i) {
      const soc::Soc original = soc::parse_soc_string(texts_[i]);
      const std::size_t core = splitmix64(state) % original.digital_count();
      const double power = 10.0 + static_cast<double>(splitmix64(state) % 90);
      const double budget = 500.0 + static_cast<double>(splitmix64(state) % 1000);
      const soc::Soc mutant =
          i % 2 == 0
              ? with_power_edit(original, core, power, original.max_power())
              : with_power_edit(original, std::nullopt, 0.0, budget);
      mutant_texts_.push_back(soc::write_soc_string(mutant));
      repeat_requests_.push_back(frontier_request(texts_[i], ""));
      eco_requests_.push_back(frontier_request(
          mutant_texts_.back(), ",\"max_powers\":[0],\"replan_from\":" +
                                    quoted(soc::digest_hex(original))));
      baselines_.push_back(soc::digest_hex(original));
    }
  }

  void prepare_oracle() override {
    for (std::size_t i = 0; i < texts_.size(); ++i) {
      repeat_references_.push_back(canonical(
          reference_frontier(texts_[i], false), kProvenanceFields));
      eco_references_.push_back(canonical(
          reference_frontier(mutant_texts_[i], true), kProvenanceFields));
    }
  }

  [[nodiscard]] std::vector<std::string> op_kinds() const override {
    return {"warm_repeat", "replan_eco"};
  }

  OpResult run_op(int /*worker*/, std::uint64_t index, bool traced,
                  bool inject, LayerCounts& counts) override {
    const std::size_t i = (index / 4) % texts_.size();
    const bool eco = index % 4 != 0;
    const fs::path dir = tmp_ / ("eco-" + std::to_string(index));
    fs::copy(template_, dir, fs::copy_options::recursive);
    OpResult out;
    out.kind = eco ? 1 : 0;
    std::string output;
    const Clock::time_point start = Clock::now();
    try {
      if (traced) {
        Span span("op");
        output = traced_frontier(eco ? mutant_texts_[i] : texts_[i],
                                 dir.string(), eco ? baselines_[i] : "", eco,
                                 counts);
      } else {
        plan::PlanService service(dir.string());
        output = service.handle(eco ? eco_requests_[i] : repeat_requests_[i]);
      }
    } catch (const std::exception&) {
      out.failed = true;
    }
    out.latency_ms = ms_since(start);
    fs::remove_all(dir);
    if (out.failed) return out;
    if (inject) corrupt(output);
    judge_frontier(output, !traced,
                   eco ? eco_references_[i] : repeat_references_[i],
                   kProvenanceFields, out);
    return out;
  }

 private:
  std::uint64_t seed_;
  fs::path tmp_;
  fs::path template_;
  std::vector<std::string> texts_;
  std::vector<std::string> mutant_texts_;
  std::vector<std::string> baselines_;
  std::vector<std::string> repeat_requests_;
  std::vector<std::string> eco_requests_;
  std::vector<std::string> repeat_references_;
  std::vector<std::string> eco_references_;
};

std::optional<std::string> rpc(const std::string& socket_path,
                               const std::string& request) {
  std::optional<net::UnixSocket> socket =
      net::UnixSocket::connect_if_listening(socket_path);
  if (!socket.has_value()) return std::nullopt;
  socket->send_frame(request);
  net::FrameResult reply = socket->recv_frame();
  if (reply.status != net::FrameStatus::kOk) return std::nullopt;
  return std::move(reply.payload);
}

/// daemon_mix: an in-process PlanServer with a shared cache directory,
/// warmed with every request of a fixed universe, driven by a
/// closed-loop client that sends one request per fresh connection.
/// One client and one server worker: with two of each, the client
/// threads shared the cores with re-evaluations and with the host's
/// other load, and the latencies moved 16% (p50) and 42% (tail) from
/// seed to seed on a 4-vCPU VM.
class DaemonMix final : public Workload {
 public:
  DaemonMix(std::uint64_t seed, fs::path tmp)
      : seed_(seed), tmp_(std::move(tmp)) {
    build_universe();
  }

  ~DaemonMix() override { stop_server(); }

  [[nodiscard]] int client_threads() const override { return kClients; }
  [[nodiscard]] int server_threads() const override { return kWorkers; }
  [[nodiscard]] int setup_repetitions() const override { return 3; }

  void setup(int repetition) override {
    stop_server();
    dir_ = tmp_ / ("daemon-" + std::to_string(repetition));
    fs::create_directories(dir_);
    socket_ = (dir_ / "d.sock").string();
    pland::ServerConfig config;
    config.socket_path = socket_;
    config.threads = kWorkers;
    config.cache_dir = (dir_ / "cache").string();
    server_ = std::make_unique<pland::PlanServer>(config);
    server_->start();
    // Every key once, plan keys last so they start in the memo.
    warm_replies_.assign(universe_.size(), std::string());
    std::vector<std::size_t> order = tail_keys_;
    order.insert(order.end(), plan_keys_.begin(), plan_keys_.end());
    for (const std::size_t key : order) {
      std::optional<std::string> reply = rpc(socket_, universe_[key]);
      if (!reply.has_value() || !parse_envelope(*reply).ok) {
        throw std::runtime_error("daemon_mix: warm-up request failed");
      }
      warm_replies_[key] = std::move(*reply);
    }
  }

  void prepare_oracle() override {
    const fs::path reference_dir = tmp_ / "daemon-reference";
    {
      plan::PlanService reference(reference_dir.string());
      for (const std::string& request : universe_) {
        const Envelope envelope = parse_envelope(reference.handle(request));
        if (!envelope.ok) {
          throw std::runtime_error("daemon_mix: reference request failed");
        }
        references_.push_back(canonical(envelope.document, kProvenanceFields));
      }
    }
    fs::remove_all(reference_dir);
    clients_state_.assign(static_cast<std::size_t>(kClients), Client{});
    for (std::size_t c = 0; c < clients_state_.size(); ++c) {
      Client& client = clients_state_[c];
      client.rng = seed_ * 0x100000001B3ull + c;
      client.last = warm_replies_;
      client.last_verdict.assign(universe_.size(), Verdict{});
      LayerCounts ignored;
      for (std::size_t key = 0; key < universe_.size(); ++key) {
        client.last_verdict[key] = judge(key, warm_replies_[key], ignored);
      }
    }
  }

  OpResult run_op(int worker, std::uint64_t /*index*/, bool traced,
                  bool inject, LayerCounts& counts) override {
    Client& client = clients_state_[static_cast<std::size_t>(worker)];
    const std::uint64_t n = client.ops++;
    // One request in four is a plan request, cycling over the plan
    // keys; every client refreshes each plan key at least once per 16
    // of its requests, so the memo (capacity 64) never evicts them.
    // The rest follow a Zipf draw over the other keys.
    const std::size_t key = n % 4 == 3
                                ? plan_keys_[(n / 4) % plan_keys_.size()]
                                : tail_keys_[zipf_rank(client.rng)];
    const std::string& request = universe_[key];
    OpResult out;
    std::optional<std::string> reply;
    const Clock::time_point start = Clock::now();
    try {
      if (traced) {
        // The traced op first runs the request through the daemon's
        // own PlanService in-process (what a worker spends on it), then
        // sends it over the socket, where the memo now answers it.
        Span span("op");
        {
          Span service_span("plan.service");
          static_cast<void>(server_->service().handle(request));
        }
        Span rpc_span("pland.rpc");
        reply = rpc(socket_, request);
      } else {
        reply = rpc(socket_, request);
      }
    } catch (const std::exception&) {
      reply.reset();
    }
    out.latency_ms = ms_since(start);
    if (!reply.has_value()) {
      out.failed = true;
      return out;
    }
    counts.frame_bytes +=
        static_cast<double>(request.size() + reply->size() + 2 * kFrameHeader);
    if (inject) corrupt(*reply);
    // Memo hits repeat the previous bytes exactly; only changed bytes
    // (a re-evaluation, or a failure) need the oracle.
    if (*reply != client.last[key]) {
      client.last_verdict[key] = judge(key, *reply, counts);
      client.last[key] = std::move(*reply);
    }
    out.failed = !client.last_verdict[key].ok;
    out.wrong = client.last_verdict[key].ok && !client.last_verdict[key].correct;
    out.makespan = client.last_verdict[key].makespan;
    return out;
  }

  void begin_phase() override {
    service_before_ = server_->service().stats();
    server_before_ = server_->stats();
    const plan::ResultCache* cache = server_->service().cache();
    replayed_before_ = cache->replayed_records();
    journal_before_ = cache->journal_bytes();
  }

  void end_phase(long long ops, std::map<std::string, double>& layer) override {
    if (ops <= 0) return;
    const double n = static_cast<double>(ops);
    const plan::ServiceStats service = server_->service().stats();
    const pland::ServerStats server = server_->stats();
    const plan::ResultCache* cache = server_->service().cache();
    // Each traced op is a probe plus an RPC the memo answers, so the
    // probes' own hits are the memo hits beyond one per op.
    const double probe_hits =
        static_cast<double>(service.memo_hits - service_before_.memo_hits) - n;
    layer["plan.memo_hit_ratio"] = std::max(0.0, probe_hits) / n;
    layer["plan.coalesced"] =
        static_cast<double>(service.coalesced - service_before_.coalesced) / n;
    layer["pland.busy_rejected"] =
        static_cast<double>(server.busy_rejected - server_before_.busy_rejected);
    layer["pland.frame_errors"] =
        static_cast<double>(server.frame_errors - server_before_.frame_errors);
    layer["plan.replayed_records"] =
        static_cast<double>(cache->replayed_records() - replayed_before_) / n;
    layer["plan.journal_bytes"] =
        static_cast<double>(cache->journal_bytes() - journal_before_) / n;
  }

 private:
  static constexpr int kClients = 1;
  static constexpr int kWorkers = 1;
  static constexpr std::size_t kFrameHeader = 12;  // u32 size + u64 checksum

  struct Verdict {
    bool ok = false;
    bool correct = false;
    double makespan = 0.0;
  };

  struct Client {
    std::uint64_t rng = 0;
    std::uint64_t ops = 0;
    std::vector<std::string> last;  ///< Last reply bytes per key.
    std::vector<Verdict> last_verdict;
  };

  void build_universe() {
    const char* benches[] = {"d695m", "p93791m"};
    const char* frontier_ladders[] = {"16,32",    "16,24,32",       "24,48",
                                      "32,64",    "16,24,32,48,64", "40,56",
                                      "24,40,56", "48,64"};
    const char* sweep_ladders[] = {"16,32", "24,48",    "32,64", "40,56",
                                   "16,24,32,48,64", "24,40,56", "48,64"};
    const char* frontier_wts[] = {"0.3", "0.5", "0.7", "0.9"};
    const char* sweep_wts[] = {"0.2", "0.4", "0.6", "0.8"};
    const auto head = [](const char* op, const char* bench) {
      return std::string("{\"schema\":\"msoc-rpc-v1\",\"op\":\"") + op +
             "\",\"jobs\":1,\"bench\":\"" + bench + "\"";
    };
    for (const char* bench : benches) {
      for (const char* ladder : frontier_ladders) {
        for (const char* wt : frontier_wts) {
          universe_.push_back(head("frontier", bench) + ",\"widths\":[" +
                              ladder + "],\"wt\":" + wt + "}");
        }
      }
      for (const char* ladder : sweep_ladders) {
        for (const char* wt : sweep_wts) {
          universe_.push_back(head("sweep", bench) + ",\"widths\":[" + ladder +
                              "],\"wt\":" + wt + "}");
        }
      }
    }
    // A fixed (seed-independent) order for the Zipf ranks, so the
    // request mix is the same for every seed; the seed only draws.
    tail_keys_.resize(universe_.size());
    for (std::size_t i = 0; i < tail_keys_.size(); ++i) tail_keys_[i] = i;
    std::uint64_t state = 0x5EED;
    for (std::size_t i = tail_keys_.size(); i > 1; --i) {
      std::swap(tail_keys_[i - 1], tail_keys_[splitmix64(state) % i]);
    }
    for (const char* bench : benches) {
      for (const char* width : {"32", "48"}) {
        plan_keys_.push_back(universe_.size());
        universe_.push_back(head("plan", bench) + ",\"width\":" + width +
                            ",\"wt\":0.5}");
      }
    }
    double total = 0.0;
    for (std::size_t r = 0; r < tail_keys_.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  std::size_t zipf_rank(std::uint64_t& rng) const {
    const double u = unit_draw(rng);
    const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - zipf_cdf_.begin()),
        zipf_cdf_.size() - 1);
  }

  /// Oracle for one distinct reply, memoized by content hash across
  /// clients; the first client to see a reply also counts the work its
  /// document reports.
  Verdict judge(std::size_t key, const std::string& reply,
                LayerCounts& counts) {
    const std::uint64_t hash = fnv1a64(reply) ^ (key * 0x9E3779B97F4A7C15ull);
    {
      std::lock_guard<std::mutex> lock(verdicts_mutex_);
      const auto it = verdicts_.find(hash);
      if (it != verdicts_.end()) return it->second;
    }
    Verdict verdict;
    DocFacts facts;
    try {
      const Envelope envelope = parse_envelope(reply);
      verdict.ok = envelope.ok;
      if (envelope.ok) {
        verdict.correct =
            canonical(envelope.document, kProvenanceFields) == references_[key];
        facts = doc_facts(envelope.document);
        verdict.makespan = facts.makespan;
      }
    } catch (const std::exception&) {
      verdict.ok = true;
      verdict.correct = false;
    }
    std::lock_guard<std::mutex> lock(verdicts_mutex_);
    if (verdicts_.emplace(hash, verdict).second) counts.add_facts(facts);
    return verdict;
  }

  void stop_server() {
    if (server_ == nullptr) return;
    server_->stop_and_join();
    server_.reset();
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  std::uint64_t seed_;
  fs::path tmp_;
  std::vector<std::string> universe_;
  std::vector<std::size_t> tail_keys_;
  std::vector<std::size_t> plan_keys_;
  std::vector<double> zipf_cdf_;
  fs::path dir_;
  std::string socket_;
  std::unique_ptr<pland::PlanServer> server_;
  std::vector<std::string> warm_replies_;
  std::vector<std::string> references_;
  std::vector<Client> clients_state_;
  std::mutex verdicts_mutex_;
  std::unordered_map<std::uint64_t, Verdict> verdicts_;
  plan::ServiceStats service_before_;
  pland::ServerStats server_before_;
  long long replayed_before_ = 0;
  long long journal_before_ = 0;
};

/// scale_pack: one schedule_soc per op on a 500-core scale SOC at 64
/// wires, default PackingOptions, with both the peak and the
/// sliding-window power budgets active.  The SOC is a seeded variant of
/// the scale ladder's 500-core rung.  One worker: the packer's counters
/// are process-wide atomics, and two packs at once slowed each other
/// from about 5 s to 9 s per op.
class ScalePack final : public Workload {
 public:
  explicit ScalePack(std::uint64_t seed) : seed_(seed) {}

  void setup(int /*repetition*/) override {
    soc_ = variant_of(soc::make_scale_soc(kScaleCores), seed_, "scale_500");
    partition_ = tam::singleton_partition(soc_);
  }

  OpResult run_op(int /*worker*/, std::uint64_t /*index*/, bool /*traced*/,
                  bool inject, LayerCounts& counts) override {
    OpResult out;
    tam::Schedule schedule;
    const Clock::time_point start = Clock::now();
    try {
      Span span("op");
      Span pack_span("tam.pack");
      schedule = tam::schedule_soc(soc_, kScaleWidth, partition_);
    } catch (const std::exception&) {
      out.failed = true;
    }
    out.latency_ms = ms_since(start);
    if (out.failed) return out;
    counts.packs += 1.0;
    if (inject) schedule.tam_width = 1;
    std::vector<tam::ScheduleViolation> violations;
    {
      Span span("tam.check");
      violations = tam::check_schedule(schedule);
    }
    out.wrong = !violations.empty() || schedule.max_power <= 0.0 ||
                schedule.window_cycles == 0 ||
                schedule.tests.size() !=
                    soc_.digital_count() + soc_.analog_count();
    out.makespan = static_cast<double>(schedule.makespan());
    return out;
  }

 private:
  std::uint64_t seed_;
  soc::Soc soc_;
  tam::AnalogPartition partition_;
};

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp;
  std::string revision = "unknown";
  long long inject_wrong = -1;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::runtime_error("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--tmp") {
      args.tmp = value;
    } else if (flag == "--revision") {
      args.revision = value;
    } else if (flag == "--inject-wrong") {
      args.inject_wrong = std::stoll(value);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      args.tmp.empty()) {
    throw std::runtime_error(
        "usage: msoc_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 --tmp DIR [--revision REV] [--inject-wrong K] "
        "[--trace-out FILE]");
  }
  if (!(args.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  if (!fs::is_directory(args.tmp)) {
    throw std::runtime_error("--tmp must be an existing directory");
  }
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  const fs::path tmp(args.tmp);
  if (args.workload == "frontier_cold") {
    return std::make_unique<FrontierCold>(args.seed, tmp);
  }
  if (args.workload == "eco_warm") {
    return std::make_unique<EcoWarm>(args.seed, tmp);
  }
  if (args.workload == "daemon_mix") {
    return std::make_unique<DaemonMix>(args.seed, tmp);
  }
  if (args.workload == "scale_pack") {
    return std::make_unique<ScalePack>(args.seed);
  }
  throw std::runtime_error("unknown workload " + args.workload +
                           " (frontier_cold, eco_warm, daemon_mix, "
                           "scale_pack)");
}

struct Phase {
  bool traced = false;
  std::vector<OpResult> ops;
  double wall_s = 0.0;
  /// Correct ops per second, summed over the client threads, each over
  /// its own time to its last op: with a few long ops the threads end
  /// at different times, and one shared wall clock would count a
  /// thread's idle tail against the rate.
  double throughput_ops_s = 0.0;
  LayerCounts counts;
  tam::PackCounterSnapshot counters;
  std::vector<trace::Sink> sinks;
  std::map<std::string, double> layer;
  long long os_threads = 0;
};

/// Runs ops on the workload's client threads until `seconds` pass.  Op
/// indices restart at 0 in every phase, so the untraced and traced
/// halves of a traced run see the same inputs in the same order.
Phase run_phase(Workload& workload, bool traced, double seconds,
                long long inject_index) {
  std::atomic<std::uint64_t> next{0};
  const int threads = workload.client_threads();
  Phase phase;
  phase.traced = traced;
  phase.sinks.resize(static_cast<std::size_t>(threads));
  std::vector<std::vector<OpResult>> results(static_cast<std::size_t>(threads));
  std::vector<LayerCounts> counts(static_cast<std::size_t>(threads));
  std::vector<double> busy_s(static_cast<std::size_t>(threads));
  std::mutex error_mutex;
  std::exception_ptr error;
  std::atomic<bool> stop{false};

  workload.begin_phase();
  const tam::PackCounterSnapshot before = tam::snapshot_pack_counters();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      const auto slot = static_cast<std::size_t>(w);
      try {
        if (traced) trace::current = &phase.sinks[slot];
        while (!stop.load() && Clock::now() < deadline) {
          const std::uint64_t index = next.fetch_add(1);
          phase.sinks[slot].op = index;
          results[slot].push_back(workload.run_op(
              w, index, traced,
              static_cast<long long>(index) == inject_index, counts[slot]));
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        stop.store(true);
      }
      busy_s[slot] = ms_since(start) / 1e3;
      trace::current = nullptr;
    });
  }
  std::this_thread::sleep_until(start + (deadline - start) / 2);
  phase.os_threads = proc_status("Threads");
  for (std::thread& worker : workers) worker.join();
  if (error) std::rethrow_exception(error);
  phase.wall_s = ms_since(start) / 1e3;

  const tam::PackCounterSnapshot after = tam::snapshot_pack_counters();
  phase.counters.admission_checks =
      after.admission_checks - before.admission_checks;
  phase.counters.events_visited = after.events_visited - before.events_visited;
  phase.counters.retries = after.retries - before.retries;
  phase.counters.reservations = after.reservations - before.reservations;
  for (std::size_t w = 0; w < results.size(); ++w) {
    phase.ops.insert(phase.ops.end(), results[w].begin(), results[w].end());
    phase.counts.add(counts[w]);
    const auto good = std::count_if(
        results[w].begin(), results[w].end(),
        [](const OpResult& op) { return !op.failed && !op.wrong; });
    phase.throughput_ops_s += static_cast<double>(good) / busy_s[w];
  }
  workload.end_phase(static_cast<long long>(phase.ops.size()), phase.layer);
  return phase;
}

/// The phase's latency samples: the mean of each `pool` consecutive
/// ops, in run order (an unfinished last pool is dropped).  A phase
/// shorter than one pool gives one sample per op.
std::vector<double> latencies(const Phase& phase, std::size_t pool) {
  std::vector<double> out;
  for (const OpResult& op : phase.ops) out.push_back(op.latency_ms);
  if (pool <= 1 || out.size() < pool) return out;
  std::vector<double> pooled;
  for (std::size_t i = 0; i + pool <= out.size(); i += pool) {
    double sum = 0.0;
    for (std::size_t j = i; j < i + pool; ++j) sum += out[j];
    pooled.push_back(sum / static_cast<double>(pool));
  }
  return pooled;
}

/// The highest percentile with at least ten samples beyond it.  Below
/// 21 samples that percentile is under the median, so the maximum is
/// reported instead (with zero samples beyond it).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 21) {
    tail.value = values.back();
    return tail;
  }
  const std::size_t k = n - 11;
  tail.value = values[k];
  tail.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  tail.beyond = 10;
  return tail;
}

std::map<std::string, double> per_layer_metrics(const Phase& traced,
                                                const Phase& untraced,
                                                std::size_t pool,
                                                double failed_ratio) {
  std::map<std::string, double> m;
  const double ops =
      std::max(1.0, static_cast<double>(traced.ops.size()));
  const std::map<std::string, double> self = trace::self_ms_by_name(traced.sinks);
  const auto self_per_op = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / ops;
  };
  for (const char* name : kSpanNames) {
    m[std::string(name) + "_ms"] = self_per_op(name);
  }
  m["op.self_ms"] = self_per_op("op");
  m["failed_ratio"] = failed_ratio;
  m["trace.overhead_ms"] =
      median(latencies(traced, pool)) - median(latencies(untraced, pool));

  const LayerCounts& c = traced.counts;
  m["wrapper.pareto_calls"] = c.pareto_calls / ops;
  m["mswrap.partitions"] = c.partitions / ops;
  m["tam.packs"] = c.packs / ops;
  const auto per_op = [&](std::uint64_t v) {
    return static_cast<double>(v) / ops;
  };
  m["tam.admission_checks"] = per_op(traced.counters.admission_checks);
  m["tam.events_visited"] = per_op(traced.counters.events_visited);
  m["tam.retries"] = per_op(traced.counters.retries);
  m["tam.reservations"] = per_op(traced.counters.reservations);
  m["tam.retry_ratio"] =
      traced.counters.admission_checks == 0
          ? 0.0
          : static_cast<double>(traced.counters.retries) /
                static_cast<double>(traced.counters.admission_checks);
  m["plan.evaluations"] = c.evaluations / ops;
  m["plan.cache_hits"] = c.cache_hits / ops;
  m["plan.reused"] = c.reused / ops;
  const double cells = c.evaluations + c.cache_hits + c.reused;
  m["plan.cache_hit_ratio"] =
      cells == 0.0 ? 0.0 : (c.cache_hits + c.reused) / cells;
  m["plan.replayed_records"] = c.replayed_records / ops;
  m["plan.journal_bytes"] = c.journal_bytes / ops;
  m["plan.memo_hit_ratio"] = 0.0;
  m["plan.coalesced"] = 0.0;
  m["pland.frame_bytes"] = c.frame_bytes / ops;
  m["pland.busy_rejected"] = 0.0;
  m["pland.frame_errors"] = 0.0;
  for (const auto& [name, value] : traced.layer) m[name] = value;
  return m;
}

int run(const Args& args) {
  const int nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::unique_ptr<Workload> workload = make_workload(args);
  const int busy_threads =
      workload->client_threads() + workload->server_threads();
  if (busy_threads > std::max(nproc, 2)) {
    throw std::runtime_error("thread plan exceeds nproc");
  }
  const std::string build_type = MSOC_PERFBENCH_BUILD_TYPE;
  const double calibration = calibration_ms();

  // Half the setup repetitions run before the measured phase and half
  // after it (each from scratch, replacing the last), so a slow spell
  // of the host cannot move them all.  A traced run reports no setup_s
  // and skips the second half.
  std::vector<double> setup_s;
  const auto time_setups = [&](int from, int to) {
    for (int r = from; r < to; ++r) {
      const Clock::time_point start = Clock::now();
      workload->setup(r);
      setup_s.push_back(ms_since(start) / 1e3);
    }
  };
  const int setups = workload->setup_repetitions();
  time_setups(0, (setups + 1) / 2);
  workload->prepare_oracle();
  // The oracle's references are built before the measured phase; the
  // peak read after it should not count them.
  const bool peak_rss_reset = reset_peak_rss();

  // The untraced run measures one phase.  The traced run measures an
  // untraced half, then a traced half: per-layer numbers come from the
  // second, the tracing overhead from the two together.
  std::vector<Phase> phases;
  if (args.trace) {
    phases.push_back(
        run_phase(*workload, false, args.seconds / 2, args.inject_wrong));
    phases.push_back(
        run_phase(*workload, true, args.seconds / 2, args.inject_wrong));
  } else {
    phases.push_back(
        run_phase(*workload, false, args.seconds, args.inject_wrong));
  }
  const double peak_rss_mb =
      static_cast<double>(proc_status("VmHWM")) / 1024.0;
  if (!args.trace) time_setups((setups + 1) / 2, setups);

  long long attempted = 0;
  long long failed = 0;
  long long wrong = 0;
  long long os_threads = 0;
  for (const Phase& phase : phases) {
    os_threads = std::max(os_threads, phase.os_threads);
    for (const OpResult& op : phase.ops) {
      ++attempted;
      if (op.failed) ++failed;
      if (op.wrong) ++wrong;
    }
  }
  if (attempted == 0) throw std::runtime_error("no op completed");
  const double failed_ratio =
      static_cast<double>(failed + wrong) / static_cast<double>(attempted);

  const Phase& main_phase = phases.front();
  const std::size_t pool = workload->latency_pool();
  const std::vector<double> main_latencies = latencies(main_phase, pool);
  // The tail stays over single ops: the slowest requests of a run are
  // what it measures, and pooling would average them away.
  const Tail tail = tail_of(latencies(main_phase, 1));
  std::vector<double> makespans;
  for (const OpResult& op : main_phase.ops) {
    if (op.makespan > 0.0) makespans.push_back(op.makespan);
  }

  std::map<std::string, double> values;
  const MetricSpec* specs = kEndToEnd;
  std::size_t spec_count = std::size(kEndToEnd);
  if (args.trace) {
    values =
        per_layer_metrics(phases.back(), phases.front(), pool, failed_ratio);
    specs = kPerLayer;
    spec_count = std::size(kPerLayer);
  } else {
    values["latency_ms_p50"] = median(main_latencies);
    values["latency_ms_tail"] = tail.value;
    values["throughput_ops_s"] = main_phase.throughput_ops_s;
    values["setup_s"] = median(setup_s);
    values["peak_rss_mb"] = peak_rss_mb;
    values["makespan_cycles"] = mean(makespans);
  }

  std::ostringstream context;
  context << "context {\"workload\":" << quoted(args.workload)
          << ",\"seed\":" << args.seed << ",\"seconds\":" << number(args.seconds)
          << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"nproc\":" << nproc
          << ",\"client_threads\":" << workload->client_threads()
          << ",\"server_threads\":" << workload->server_threads()
          << ",\"busy_threads_within_nproc\":"
          << (busy_threads <= nproc ? "true" : "false")
          << ",\"os_threads_peak\":" << os_threads
          << ",\"compiler\":" << quoted(__VERSION__)
          << ",\"build_type\":" << quoted(build_type)
          << ",\"release_build\":" << (build_type == "Release" ? "true" : "false")
          << ",\"revision\":" << quoted(args.revision)
          << ",\"peak_rss_reset\":" << (peak_rss_reset ? "true" : "false")
          << ",\"calibration_ms\":" << number(calibration) << "}";
  std::printf("%s\n", context.str().c_str());
  if (build_type != "Release") {
    std::fprintf(stderr, "msoc_perfbench: warning: %s build, not Release\n",
                 build_type.c_str());
  }

  std::ostringstream detail;
  detail << "detail {\"attempted\":" << attempted << ",\"failed\":" << failed
         << ",\"wrong\":" << wrong
         << ",\"latency_pool\":" << pool
         << ",\"p50_samples\":" << main_latencies.size()
         << ",\"tail_samples\":" << main_phase.ops.size()
         << ",\"latency_tail_percentile\":" << number(tail.percentile)
         << ",\"latency_tail_samples_beyond\":" << tail.beyond;
  const std::vector<std::string> kinds = workload->op_kinds();
  if (!kinds.empty()) {
    detail << ",\"latency_ms_p50_by_kind\":{";
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      std::vector<double> of_kind;
      for (const OpResult& op : main_phase.ops) {
        if (op.kind == static_cast<int>(k)) of_kind.push_back(op.latency_ms);
      }
      detail << (k == 0 ? "" : ",") << quoted(kinds[k]) << ":"
             << number(median(of_kind));
    }
    detail << "}";
  }
  detail << ",\"setup_s_runs\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    detail << (i == 0 ? "" : ",") << number(setup_s[i]);
  }
  detail << "],\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    detail << (i == 0 ? "" : ",") << "{\"traced\":"
           << (phases[i].traced ? "true" : "false")
           << ",\"ops\":" << phases[i].ops.size()
           << ",\"wall_s\":" << number(phases[i].wall_s)
           << ",\"latency_ms_p50\":"
           << number(median(latencies(phases[i], pool)))
           << "}";
  }
  detail << "]}";
  std::printf("%s\n", detail.str().c_str());

  if (args.trace && !args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    trace::write_chrome_trace(out, phases.back().sinks);
  }

  std::ostringstream result;
  result << "{\"correct\": " << (failed + wrong == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted
         << ", \"failed\": " << failed + wrong << ", \"metrics\": {";
  for (std::size_t i = 0; i < spec_count; ++i) {
    result << (i == 0 ? "" : ", ") << quoted(specs[i].name)
           << ": {\"value\": " << number(values.at(specs[i].name))
           << ", \"unit\": " << quoted(specs[i].unit) << "}";
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "msoc_perfbench: %s\n", e.what());
    return 1;
  }
}
