#include "msoc/plan/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "msoc/common/csv.hpp"
#include "msoc/common/error.hpp"
#include "msoc/common/format.hpp"
#include "msoc/common/json.hpp"
#include "msoc/common/parallel.hpp"
#include "msoc/plan/optimizer.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/digest.hpp"
#include "cell_writer.hpp"

namespace msoc::plan {

namespace {

using Clock = std::chrono::steady_clock;

/// The series a SOC-level failure leaves: one error point per cell,
/// budgets and window resolved as the engine would have.
FrontierResult failed_series(const soc::Soc& soc,
                             const FrontierOptions& options,
                             const std::vector<double>& budgets,
                             const std::string& what) {
  FrontierResult series;
  series.soc_name = soc.name();
  series.algorithm = options.exhaustive ? "exhaustive" : "cost_optimizer";
  series.w_time = options.weights.time;
  const soc::PowerWindow window =
      tam::effective_power_window(soc, options.packing);
  for (const int width : options.widths) {
    for (const double budget : budgets) {
      FrontierPoint& point = series.points.emplace_back(
          FrontierPoint::cell(width, budget, window));
      point.error = what;
    }
  }
  return series;
}

}  // namespace

std::size_t SweepConfig::case_count() const {
  return socs.size() * frontier.widths.size() * frontier.max_powers.size() *
         time_weights.size();
}

SweepResult run_sweep(const SweepConfig& config) {
  const FrontierOptions& frontier = config.frontier;
  // Checked up front: inside a series these would be soft errors.
  frontier.validate();
  require(!config.socs.empty(), "sweep needs at least one SOC");
  require(!config.time_weights.empty(),
          "sweep needs at least one time weight");
  require(config.replan_from.empty() || frontier.cache != nullptr,
          "replan needs a cache holding the baseline store");
  require(config.replan_from.empty() || config.socs.size() == 1,
          "replan needs exactly one SOC (the baseline is one revision)");

  const std::size_t weights = config.time_weights.size();
  const std::size_t series_count = config.socs.size() * weights;
  SweepResult result;
  result.widths = frontier.widths;
  result.exhaustive = frontier.exhaustive;
  result.epsilon = frontier.epsilon;
  const int resolved_jobs =
      frontier.jobs <= 0 ? hardware_jobs() : frontier.jobs;
  result.jobs = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(resolved_jobs), config.case_count()));
  result.series.resize(series_count);

  // Thread budget: series fan out over the pool (they are fully
  // independent), and each series' engine re-uses the leftover budget
  // for its per-width evaluation fan-out.  Both levels are
  // deterministic, so the split never changes results.
  const int outer = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(resolved_jobs), series_count));
  const int inner = std::max(1, resolved_jobs / std::max(outer, 1));

  // The persistent cache is opened up front (one file per SOC digest)
  // so worker threads only ever touch the loaded snapshot.  Lookups
  // read the snapshot, never other workers' fresh results: which
  // worker computes a cell must not influence what another can see, or
  // evaluation counts would depend on scheduling.
  ResultCache* cache = frontier.cache;
  // The cache may carry other runs' traffic: report deltas over this
  // sweep.
  const long long base_hits = cache != nullptr ? cache->hits() : 0;
  const long long base_misses = cache != nullptr ? cache->misses() : 0;
  const long long base_records = cache != nullptr ? cache->records() : 0;
  const int base_corrupt = cache != nullptr ? cache->corrupt_files() : 0;

  // The sweep clock starts here: the per-SOC setup below (staircase
  // computation, cache file loads) is real sweep work and must stay
  // inside total_wall_ms, as it was when each case computed its own.
  const Clock::time_point start = Clock::now();

  // Per-SOC shared setup, done serially before the fan-out: each
  // digest's cache file is read once (open holds the cache lock), and
  // the Pareto staircases — weight-independent — are computed once and
  // lent to every weight series instead of once per engine.
  const int table_width = std::max(
      1, *std::max_element(frontier.widths.begin(), frontier.widths.end()));
  std::vector<tam::ParetoTables> tables;
  tables.reserve(config.socs.size());
  for (const soc::Soc& soc : config.socs) {
    tables.push_back(tam::compute_pareto_tables(soc, table_width));
    // Opening with the SOC pins the store's digest inventory so the
    // flushed file can seed a future replan.
    if (cache != nullptr) cache->open(soc::digest_hex(soc), soc);
    std::vector<double>& budgets = result.budgets.emplace_back();
    for (const double budget : frontier.max_powers) {
      budgets.push_back(tam::effective_max_power(soc, budget));
    }
  }
  // The baseline store is loaded serially too; every series diffs
  // against the same snapshot.
  if (cache != nullptr && !config.replan_from.empty()) {
    cache->open(config.replan_from);
  }

  ThreadPool pool(outer);
  for (std::size_t index = 0; index < series_count; ++index) {
    pool.submit([&result, &config, &tables, index, weights, inner] {
      const std::size_t soc_index = index / weights;
      const soc::Soc& soc = config.socs[soc_index];
      const double w_time = config.time_weights[index % weights];
      FrontierOptions options = config.frontier;
      options.weights = {w_time, 1.0 - w_time};
      options.jobs = inner;
      options.pareto_tables = &tables[soc_index];
      const std::vector<double>& budgets = result.budgets[soc_index];
      try {
        FrontierEngine engine(soc, options);
        result.series[index] = config.replan_from.empty()
                                   ? engine.run()
                                   : engine.replan(config.replan_from);
      } catch (const InfeasibleError& e) {
        // Unsatisfiable input is a legitimate sweep outcome and lands
        // in every case of the series.  LogicError — a library
        // invariant violation — must NOT become a soft case: it
        // propagates (via ThreadPool::wait) and fails the whole sweep.
        result.series[index] = failed_series(soc, options, budgets, e.what());
      } catch (const ParseError& e) {
        result.series[index] = failed_series(soc, options, budgets, e.what());
      }
    });
  }
  pool.wait();
  if (cache != nullptr) {
    cache->flush();
    result.cache_used = true;
    result.cache_hits = cache->hits() - base_hits;
    result.cache_misses = cache->misses() - base_misses;
    result.cache_records = cache->records() - base_records;
    result.cache_corrupt_files = cache->corrupt_files() - base_corrupt;
  }
  if (!config.replan_from.empty()) {
    result.replanned_from = config.replan_from;
    for (const FrontierResult& series : result.series) {
      result.reused += series.reused;
      result.dirty_partitions =
          std::max(result.dirty_partitions, series.dirty_partitions);
    }
  }
  result.total_wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  return result;
}

SweepConfig default_benchmark_sweep() {
  SweepConfig config;
  config.socs.push_back(soc::make_p93791m());
  config.socs.push_back(soc::make_d695m());
  return config;
}

namespace {

BudgetColumns budget_columns(const SweepResult& result) {
  BudgetColumns columns;
  for (const FrontierResult& series : result.series) {
    columns.include(series.points);
  }
  return columns;
}

/// The sweep reports what share of the combinations a case skipped; a
/// failed case reports none of either.
double evaluation_reduction_percent(const FrontierPoint& p) {
  if (!p.ok()) return 0.0;
  OptimizationResult counts;
  counts.evaluations = p.evaluations;
  counts.total_combinations = p.total_combinations;
  return counts.evaluation_reduction_percent();
}

}  // namespace

std::string SweepResult::to_csv() const {
  const BudgetColumns columns = budget_columns(*this);
  const bool replan = !replanned_from.empty();
  std::vector<std::string> own = {"total_combinations",
                                  "evaluation_reduction_percent"};
  if (replan) own.insert(own.begin() + 1, "reused");
  std::ostringstream out;
  CsvWriter csv(out, columns.csv_header(own));
  for_each_case([&](const FrontierResult& series, const FrontierPoint& p) {
    own = {std::to_string(p.ok() ? p.total_combinations : 0),
           round_trip_double(evaluation_reduction_percent(p))};
    if (replan) own.insert(own.begin() + 1, std::to_string(p.reused));
    csv.write_row(columns.csv_row(series, p, own));
  });
  return out.str();
}

std::string SweepResult::to_json() const {
  const BudgetColumns columns = budget_columns(*this);
  const bool replan = !replanned_from.empty();
  const char* schema =
      columns.window ? "v4"
                     : (cache_used ? "v3" : (columns.power ? "v2" : "v1"));
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"msoc-sweep-" << schema << "\",\n"
     << "  \"exhaustive\": " << (exhaustive ? "true" : "false") << ",\n"
     << "  \"epsilon\": " << round_trip_double(epsilon) << ",\n"
     << "  \"jobs\": " << jobs << ",\n";
  if (replan) write_replan_json(os, replanned_from, reused, dirty_partitions);
  if (cache_used) {
    os << "  \"cache\": {\"hits\": " << cache_hits << ", "
       << "\"misses\": " << cache_misses << ", "
       << "\"records\": " << cache_records << ", "
       << "\"corrupt_files\": " << cache_corrupt_files << "},\n";
  }
  os << "  \"total_wall_ms\": " << round_trip_double(total_wall_ms) << ",\n"
     << "  \"cases\": [";
  const char* separator = "\n";
  for_each_case([&](const FrontierResult& series, const FrontierPoint& p) {
    os << separator;
    separator = ",\n";
    os << "    {\"soc\": \"" << json_escape(series.soc_name) << "\", "
       << "\"tam_width\": " << p.tam_width << ", ";
    columns.write_json(os, p);
    os << "\"w_time\": " << round_trip_double(series.w_time) << ", "
       << "\"algorithm\": \"" << json_escape(series.algorithm) << "\", "
       << "\"wall_ms\": " << round_trip_double(p.wall_ms) << ", ";
    if (!p.ok()) {
      os << "\"error\": \"" << json_escape(p.error) << "\"}";
      return;
    }
    write_best_json(os, p);
    if (replan) os << "\"reused\": " << p.reused << ", ";
    os << "\"evaluation_reduction_percent\": "
       << round_trip_double(evaluation_reduction_percent(p)) << "}";
  });
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace msoc::plan
