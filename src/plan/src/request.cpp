#include "msoc/plan/request.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "msoc/common/error.hpp"
#include "msoc/common/format.hpp"
#include "msoc/common/journal.hpp"
#include "msoc/common/json.hpp"
#include "msoc/common/parallel.hpp"
#include "msoc/plan/optimizer.hpp"
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

/// The envelope bytes; `hash_soc_text` swaps the .soc content for its
/// fnv1a64 (the canonical key).
std::string serialize(const PlanRequest& r, bool hash_soc_text) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kRpcSchema << "\",\"op\":\"" << op_name(r.op)
      << '"';
  if (r.bench) out << ",\"bench\":\"" << json_escape(*r.bench) << '"';
  if (r.soc_text) {
    if (hash_soc_text) {
      out << ",\"soc_text_hash\":\"" << hex64(fnv1a64(*r.soc_text)) << '"';
    } else {
      out << ",\"soc_text\":\"" << json_escape(*r.soc_text) << '"';
    }
  }
  if (r.width) out << ",\"width\":" << *r.width;
  if (r.widths) {
    write_array(out, "widths", *r.widths,
                [&](std::int64_t w) { out << w; });
  }
  if (r.max_powers) {
    write_array(out, "max_powers", *r.max_powers,
                [&](double p) { out << round_trip_double(p); });
  }
  if (r.w_time) out << ",\"wt\":" << round_trip_double(*r.w_time);
  if (r.window_limit) {
    out << ",\"window_limit\":" << round_trip_double(*r.window_limit);
  }
  if (r.window_cycles) out << ",\"window_cycles\":" << *r.window_cycles;
  if (r.exhaustive) {
    out << ",\"exhaustive\":" << (*r.exhaustive ? "true" : "false");
  }
  if (r.epsilon) out << ",\"epsilon\":" << round_trip_double(*r.epsilon);
  if (r.jobs) out << ",\"jobs\":" << *r.jobs;
  if (r.replan_from) {
    out << ",\"replan_from\":\"" << json_escape(*r.replan_from) << '"';
  }
  out << '}';
  return out.str();
}

int jobs_of(const PlanRequest& request) {
  return static_cast<int>(request.jobs.value_or(1));
}

/// An explicit window overrides the SOC's; absent leaves the packing
/// default (inherit).
void apply_window(const PlanRequest& request, tam::PackingOptions& packing) {
  if (!request.window_limit) return;
  packing.window_limit = *request.window_limit;
  packing.window_cycles =
      static_cast<Cycles>(request.window_cycles.value_or(0));
}

PlanOutcome execute_frontier(const PlanRequest& request, const soc::Soc& soc,
                             ResultCache* cache) {
  FrontierOptions options;
  options.widths = request.width_ladder();
  if (request.max_powers) options.max_powers = *request.max_powers;
  apply_window(request, options.packing);
  const double w_time = request.w_time.value_or(0.5);
  options.weights = {w_time, 1.0 - w_time};
  options.exhaustive = request.exhaustive.value_or(false);
  options.epsilon = request.epsilon.value_or(0.0);
  options.jobs = jobs_of(request);
  options.cache = cache;

  FrontierEngine engine(soc, options);
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
  if (request.width || request.widths) {
    config.tam_widths = request.width_ladder();
  }
  if (request.max_powers) config.max_powers = *request.max_powers;
  if (request.window_limit) {
    config.window_limit = *request.window_limit;
    config.window_cycles =
        static_cast<Cycles>(request.window_cycles.value_or(0));
  }
  if (request.w_time) config.time_weights = {*request.w_time};
  config.exhaustive = request.exhaustive.value_or(false);
  config.epsilon = request.epsilon.value_or(0.0);
  config.jobs = jobs_of(request);
  config.cache = cache;
  config.replan_from = request.replan_from.value_or("");

  SweepResult result = run_sweep(config);
  PlanOutcome outcome;
  outcome.document = result.to_json();
  outcome.csv = result.to_csv();
  outcome.sweep = std::move(result);
  return outcome;
}

PlanOutcome execute_plan(const PlanRequest& request, const soc::Soc& soc) {
  const int width = static_cast<int>(request.width.value_or(32));
  const double w_time = request.w_time.value_or(0.5);
  const bool exhaustive = request.exhaustive.value_or(false);
  const int jobs = jobs_of(request);

  PlanningProblem problem;
  problem.soc = &soc;
  problem.tam_width = width;
  problem.weights = {w_time, 1.0 - w_time};
  if (request.max_powers) {
    problem.packing.max_power = request.max_powers->front();
  }
  apply_window(request, problem.packing);
  const soc::PowerWindow window =
      tam::effective_power_window(soc, problem.packing);

  CostModel model(problem);
  OptimizationResult result;
  const auto started = std::chrono::steady_clock::now();
  if (exhaustive) {
    result = optimize_exhaustive(model, jobs);
  } else {
    HeuristicOptions heuristic;
    heuristic.epsilon = request.epsilon.value_or(0.0);
    heuristic.jobs = jobs;
    result = optimize_cost_heuristic(model, heuristic);
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  const CombinationCost& best = result.best;

  // A single plan is documented as a one-case sweep.
  SweepResult single;
  single.exhaustive = exhaustive;
  single.epsilon = request.epsilon.value_or(0.0);
  // Sweep semantics: threads actually used, never 0.
  single.jobs = std::min(jobs <= 0 ? hardware_jobs() : jobs,
                         std::max(result.total_combinations, 1));
  single.total_wall_ms = wall_ms;
  SweepRow row;
  row.soc_name = soc.name();
  row.tam_width = width;
  row.max_power = tam::effective_max_power(soc, problem.packing);
  if (window.active()) {
    row.window_cycles = window.cycles;
    row.window_limit = window.limit;
  }
  row.w_time = w_time;
  row.algorithm = exhaustive ? "exhaustive" : "cost_optimizer";
  row.best_label = best.label;
  row.best_total = best.total;
  row.c_time = best.c_time;
  row.c_area = best.c_area;
  row.test_time = best.test_time;
  row.t_max = model.t_max();
  row.evaluations = result.evaluations;
  row.total_combinations = result.total_combinations;
  row.evaluation_reduction_percent = result.evaluation_reduction_percent();
  row.wall_ms = wall_ms;
  single.rows.push_back(std::move(row));

  PlanOutcome outcome;
  outcome.schedule = model.schedule_for(best.partition);
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

std::string PlanRequest::to_json() const { return serialize(*this, false); }

std::string PlanRequest::canonical_key() const {
  return serialize(*this, true);
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
  if (width) return {static_cast<int>(*width)};
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
