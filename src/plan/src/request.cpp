#include "msoc/plan/request.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "msoc/common/error.hpp"
#include "msoc/common/format.hpp"
#include "msoc/common/json.hpp"
#include "msoc/common/parallel.hpp"
#include "msoc/plan/result_cache.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/tam/packing.hpp"

namespace msoc::plan {

namespace {

constexpr const char* kRpcSchema = "msoc-rpc-v1";
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kMaxExactInteger = std::int64_t{1} << 53;

/// Wire names, indexed by PlanOp.
constexpr std::array<const char*, 6> kOpNames = {
    "ping", "stats", "shutdown", "plan", "sweep", "frontier"};

struct Builtin {
  const char* name;
  soc::Soc (*make)();
};
constexpr std::array<Builtin, 4> kBuiltins = {{{"p93791m", soc::make_p93791m},
                                               {"d695m", soc::make_d695m},
                                               {"p93791", soc::make_p93791},
                                               {"d695", soc::make_d695}}};

const Builtin* find_builtin(const std::string& name) {
  for (const Builtin& builtin : kBuiltins) {
    if (name == builtin.name) return &builtin;
  }
  return nullptr;
}

std::string unknown_bench(const std::string& name) {
  return "unknown bench name: " + name +
         " (expected p93791m, d695m, p93791 or d695)";
}

/// A JSON number that is an integer within int64; the field's own range
/// is validate()'s business.
std::int64_t integer_field(const JsonValue& value, const char* what) {
  const double v = value.as_number();
  require(v == std::floor(v) && std::fabs(v) < 9223372036854775808.0,
          std::string(what) + " needs an integer");
  return static_cast<std::int64_t>(v);
}

void require_range(std::int64_t value, std::int64_t lo, std::int64_t hi,
                   const char* what) {
  if (value < lo || value > hi) {
    throw InfeasibleError(std::string(what) + " needs an integer in [" +
                          std::to_string(lo) + ", " + std::to_string(hi) +
                          "]");
  }
}

template <typename T, typename Write>
void write_array(std::ostringstream& out, const char* name,
                 const std::vector<T>& values, Write write) {
  out << ",\"" << name << "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ',';
    write(values[i]);
  }
  out << ']';
}

/// The engine options a plan, sweep or frontier request asks for.
FrontierOptions frontier_options(const PlanRequest& request,
                                 ResultCache* cache) {
  FrontierOptions options;
  options.widths = request.width_ladder();
  if (request.max_powers) options.max_powers = *request.max_powers;
  // An explicit window overrides the SOC's; absent leaves the packing
  // default (inherit).
  if (request.window_limit) {
    options.packing.window_limit = *request.window_limit;
    options.packing.window_cycles =
        static_cast<Cycles>(request.window_cycles.value_or(0));
  }
  const double w_time = request.w_time.value_or(0.5);
  options.weights = {w_time, 1.0 - w_time};
  options.exhaustive = request.exhaustive.value_or(false);
  options.epsilon = request.epsilon.value_or(0.0);
  options.jobs = static_cast<int>(request.jobs.value_or(1));
  options.cache = cache;
  return options;
}

PlanOutcome execute_frontier(const PlanRequest& request, const soc::Soc& soc,
                             ResultCache* cache) {
  FrontierEngine engine(soc, frontier_options(request, cache));
  FrontierResult result = request.replan_from
                              ? engine.replan(*request.replan_from)
                              : engine.run();
  if (cache != nullptr) cache->flush();
  PlanOutcome outcome;
  outcome.document = result.to_json();
  outcome.csv = result.to_csv();
  outcome.frontier = std::move(result);
  return outcome;
}

PlanOutcome execute_sweep(const PlanRequest& request,
                          const std::vector<soc::Soc>& socs,
                          ResultCache* cache) {
  SweepConfig config;
  config.socs = socs;
  if (request.w_time) config.time_weights = {*request.w_time};
  config.frontier = frontier_options(request, cache);
  config.replan_from = request.replan_from.value_or("");

  SweepResult result = run_sweep(config);
  PlanOutcome outcome;
  outcome.document = result.to_json();
  outcome.csv = result.to_csv();
  outcome.sweep = std::move(result);
  return outcome;
}

PlanOutcome execute_plan(const PlanRequest& request, const soc::Soc& soc) {
  // A single plan is the one-case sweep: one SOC, weight, width and
  // budget, run cacheless through the engine.
  SweepConfig config;
  config.socs = {soc};
  config.frontier = frontier_options(request, nullptr);
  config.time_weights = {config.frontier.weights.time};
  // One set of staircases serves the engine's packs and the winner's.
  const tam::ParetoTables tables =
      tam::compute_pareto_tables(soc, config.frontier.widths.front());
  config.frontier.pareto_tables = &tables;
  SweepResult single = run_sweep(config);
  FrontierPoint& point = single.series.front().points.front();
  if (!point.ok()) throw InfeasibleError(point.error);
  // The paper's N: Fig. 3 packs every member the engine's bound skips.
  point.evaluations += point.pruned;
  point.pruned = 0;
  // Requested threads capped at the combination count, never 0.
  const int jobs = config.frontier.jobs;
  single.jobs = std::min(jobs <= 0 ? hardware_jobs() : jobs,
                         std::max(point.total_combinations, 1));

  tam::PackingOptions packing = config.frontier.packing;
  packing.max_power = config.frontier.max_powers.front();
  PlanOutcome outcome;
  outcome.schedule = tam::Packer(soc, point.tam_width, packing, &tables)
                         .schedule(mswrap::to_analog_partition(
                             soc.analog_cores(), point.best.partition));
  outcome.document = single.to_json();
  outcome.csv = tam::schedule_to_csv(*outcome.schedule);
  outcome.sweep = std::move(single);
  return outcome;
}

}  // namespace

const char* op_name(PlanOp op) {
  return kOpNames[static_cast<std::size_t>(op)];
}

soc::Soc make_builtin_soc(const std::string& name) {
  const Builtin* builtin = find_builtin(name);
  if (builtin == nullptr) throw InfeasibleError(unknown_bench(name));
  return builtin->make();
}

PlanRequest PlanRequest::from_json(std::string_view json) {
  const JsonValue root = parse_json(json, "msoc-rpc request");
  require(root.type() == JsonValue::Type::kObject,
          "request must be a JSON object");
  require(root.at("schema").as_string() == kRpcSchema,
          std::string("unsupported request schema (expected ") + kRpcSchema +
              ")");
  PlanRequest request;
  const std::string& op = root.at("op").as_string();
  const auto known = std::find(kOpNames.begin(), kOpNames.end(), op);
  require(known != kOpNames.end(),
          "unknown op: " + op +
              " (expected ping, stats, shutdown, plan, sweep or frontier)");
  request.op = static_cast<PlanOp>(known - kOpNames.begin());

  if (const JsonValue* v = root.find("bench")) request.bench = v->as_string();
  if (const JsonValue* v = root.find("soc_text")) {
    request.soc_text = v->as_string();
  }
  if (const JsonValue* v = root.find("width")) {
    request.width = integer_field(*v, "width");
  }
  if (const JsonValue* v = root.find("widths")) {
    std::vector<std::int64_t> widths;
    for (const JsonValue& w : v->as_array()) {
      widths.push_back(integer_field(w, "widths"));
    }
    request.widths = std::move(widths);
  }
  if (const JsonValue* v = root.find("max_powers")) {
    std::vector<double> powers;
    for (const JsonValue& p : v->as_array()) powers.push_back(p.as_number());
    request.max_powers = std::move(powers);
  }
  if (const JsonValue* v = root.find("wt")) request.w_time = v->as_number();
  if (const JsonValue* v = root.find("window_limit")) {
    request.window_limit = v->as_number();
  }
  if (const JsonValue* v = root.find("window_cycles")) {
    request.window_cycles = integer_field(*v, "window_cycles");
  }
  if (const JsonValue* v = root.find("exhaustive")) {
    request.exhaustive = v->as_bool();
  }
  if (const JsonValue* v = root.find("epsilon")) {
    request.epsilon = v->as_number();
  }
  if (const JsonValue* v = root.find("jobs")) {
    request.jobs = integer_field(*v, "jobs");
  }
  if (const JsonValue* v = root.find("replan_from")) {
    request.replan_from = v->as_string();
  }
  request.validate();
  return request;
}

void PlanRequest::validate() const {
  if (bench && find_builtin(*bench) == nullptr) {
    throw InfeasibleError(unknown_bench(*bench));
  }
  require(!(bench && soc_text), "soc_text and bench are mutually exclusive");
  require(!(width && widths), "width and widths are mutually exclusive");
  if (width) require_range(*width, 1, kIntMax, "width");
  require(op != PlanOp::kPlan || !widths,
          "a plan request takes one width, not widths");
  if (widths) {
    require(!widths->empty(), "widths needs at least one width");
    for (const std::int64_t w : *widths) {
      require_range(w, 1, kIntMax, "every widths entry");
    }
  }
  if (max_powers) {
    require(!max_powers->empty(), "max_powers needs at least one budget");
    for (const double p : *max_powers) {
      // A NaN budget would break the cache's EntryKey ordering.
      require(std::isfinite(p) && p >= 0.0,
              "max_powers needs finite numbers >= 0");
    }
    require(op != PlanOp::kPlan || max_powers->size() == 1,
            "a plan request takes exactly one max_powers value");
  }
  if (window_limit) {
    require(std::isfinite(*window_limit) && *window_limit >= 0.0,
            "window_limit needs a finite number >= 0");
  }
  if (window_cycles) {
    // The cache stores window lengths as exact JSON integers.
    require_range(*window_cycles, 1, kMaxExactInteger, "window_cycles");
    require(window_limit && *window_limit > 0.0,
            "window_cycles needs a window_limit > 0");
  }
  require(!window_limit || *window_limit == 0.0 || window_cycles,
          "a window_limit > 0 needs window_cycles");
  if (w_time) {
    require(std::isfinite(*w_time) && *w_time >= 0.0 && *w_time <= 1.0,
            "wt needs a number in [0, 1]");
  }
  if (epsilon) {
    require(std::isfinite(*epsilon) && *epsilon >= 0.0,
            "epsilon needs a finite number >= 0");
  }
  if (jobs) require_range(*jobs, 0, kIntMax, "jobs");
  if (replan_from) {
    require(op == PlanOp::kSweep || op == PlanOp::kFrontier,
            "replan_from needs a sweep or frontier request");
  }
}

std::string PlanRequest::to_json() const {
  std::ostringstream out;
  out << "{\"schema\":\"" << kRpcSchema << "\",\"op\":\"" << op_name(op)
      << '"';
  if (bench) out << ",\"bench\":\"" << json_escape(*bench) << '"';
  if (soc_text) out << ",\"soc_text\":\"" << json_escape(*soc_text) << '"';
  if (width) out << ",\"width\":" << *width;
  if (widths) {
    write_array(out, "widths", *widths,
                [&](std::int64_t w) { out << w; });
  }
  if (max_powers) {
    write_array(out, "max_powers", *max_powers,
                [&](double p) { out << round_trip_double(p); });
  }
  if (w_time) out << ",\"wt\":" << round_trip_double(*w_time);
  if (window_limit) {
    out << ",\"window_limit\":" << round_trip_double(*window_limit);
  }
  if (window_cycles) out << ",\"window_cycles\":" << *window_cycles;
  if (exhaustive) {
    out << ",\"exhaustive\":" << (*exhaustive ? "true" : "false");
  }
  if (epsilon) out << ",\"epsilon\":" << round_trip_double(*epsilon);
  if (jobs) out << ",\"jobs\":" << *jobs;
  if (replan_from) {
    out << ",\"replan_from\":\"" << json_escape(*replan_from) << '"';
  }
  out << '}';
  return out.str();
}

bool PlanRequest::planning() const {
  return op == PlanOp::kPlan || op == PlanOp::kSweep ||
         op == PlanOp::kFrontier;
}

std::vector<std::string> PlanRequest::bench_names() const {
  if (bench) return {*bench};
  if (op == PlanOp::kSweep) return {"p93791m", "d695m"};
  return {"p93791m"};
}

std::vector<int> PlanRequest::width_ladder() const {
  if (widths) return {widths->begin(), widths->end()};
  if (width || op == PlanOp::kPlan) {
    return {static_cast<int>(width.value_or(32))};
  }
  return {16, 24, 32, 48, 64};
}

PlanOutcome execute(const PlanRequest& request,
                    const std::vector<soc::Soc>& socs, ResultCache* cache) {
  check_invariant(request.planning() && !socs.empty() &&
                      (request.op == PlanOp::kSweep || socs.size() == 1),
                  "execute needs a planning request and its SOCs");
  request.validate();
  require(!request.replan_from || cache != nullptr,
          "replan_from needs a result cache (--cache-dir) holding the "
          "baseline store");
  switch (request.op) {
    case PlanOp::kFrontier:
      return execute_frontier(request, socs.front(), cache);
    case PlanOp::kSweep:
      return execute_sweep(request, socs, cache);
    default:
      return execute_plan(request, socs.front());
  }
}

}  // namespace msoc::plan
