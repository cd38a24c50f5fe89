#include "msoc/plan/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "msoc/common/csv.hpp"
#include "msoc/common/error.hpp"
#include "msoc/common/format.hpp"
#include "msoc/common/json.hpp"
#include "msoc/common/parallel.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/digest.hpp"

namespace msoc::plan {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// One frontier-engine run: a (SOC, weight) pair across every width.
struct Series {
  std::size_t soc_index = 0;
  std::size_t weight_index = 0;
};

SweepRow make_row(const soc::Soc& soc, int tam_width, double max_power,
                  double w_time, const SweepConfig& config) {
  SweepRow row;
  row.soc_name = soc.name();
  row.tam_width = tam_width;
  row.max_power = max_power;
  row.w_time = w_time;
  row.algorithm = config.exhaustive ? "exhaustive" : "cost_optimizer";
  return row;
}

/// The budget a config rung means for one SOC (inherit resolved).
double resolve_power(double budget, const soc::Soc& soc) {
  return budget < 0.0 ? soc.max_power() : budget;
}

}  // namespace

std::size_t SweepConfig::case_count() const {
  return socs.size() * tam_widths.size() * max_powers.size() *
         time_weights.size();
}

SweepResult run_sweep(const SweepConfig& config) {
  require(!config.socs.empty(), "sweep needs at least one SOC");
  require(!config.tam_widths.empty(), "sweep needs at least one TAM width");
  require(!config.max_powers.empty(),
          "sweep needs at least one power budget");
  for (const double budget : config.max_powers) {
    // NaN passes every sign test and would corrupt EntryKey ordering.
    require(std::isfinite(budget) || budget < 0.0,
            "power budgets must be finite (or negative = inherit)");
  }
  require(std::isfinite(config.window_limit) || config.window_limit < 0.0,
          "the window limit must be finite (or negative = inherit)");
  require(config.window_limit <= 0.0 || config.window_cycles > 0,
          "an explicit window limit needs a positive window length");
  require(!config.time_weights.empty(),
          "sweep needs at least one time weight");
  require(config.replan_from.empty() || config.cache != nullptr,
          "replan needs a cache holding the baseline store");
  require(config.replan_from.empty() || config.socs.size() == 1,
          "replan needs exactly one SOC (the baseline is one revision)");

  std::vector<Series> series;
  series.reserve(config.socs.size() * config.time_weights.size());
  for (std::size_t s = 0; s < config.socs.size(); ++s) {
    for (std::size_t t = 0; t < config.time_weights.size(); ++t) {
      series.push_back({s, t});
    }
  }

  SweepResult result;
  result.exhaustive = config.exhaustive;
  result.epsilon = config.epsilon;
  const int resolved_jobs =
      config.jobs <= 0 ? hardware_jobs() : config.jobs;
  result.jobs = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(resolved_jobs), config.case_count()));
  result.rows.resize(config.case_count());

  // Thread budget: series fan out over the pool (they are fully
  // independent), and each series' engine re-uses the leftover budget
  // for its per-width evaluation fan-out.  Both levels are
  // deterministic, so the split never changes results.
  const int outer = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(resolved_jobs), series.size()));
  const int inner = std::max(1, resolved_jobs / std::max(outer, 1));

  // The persistent cache is opened up front (one file per SOC digest)
  // so worker threads only ever touch the loaded snapshot.  Lookups
  // read the snapshot, never other workers' fresh results: which
  // worker computes a cell must not influence what another can see, or
  // evaluation counts would depend on scheduling.
  ResultCache* cache = config.cache;
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
      1, *std::max_element(config.tam_widths.begin(),
                           config.tam_widths.end()));
  std::vector<tam::ParetoTables> tables;
  tables.reserve(config.socs.size());
  for (const soc::Soc& soc : config.socs) {
    tables.push_back(tam::compute_pareto_tables(soc, table_width));
    // Opening with the SOC pins the store's digest inventory so the
    // flushed file can seed a future replan.
    if (cache != nullptr) cache->open(soc::digest_hex(soc), soc);
  }
  // The baseline store is loaded serially too; every series diffs
  // against the same snapshot.
  if (cache != nullptr && !config.replan_from.empty()) {
    cache->open(config.replan_from);
  }

  // Per-series replan provenance, aggregated after the fan-out (rows
  // are disjoint per series, so only these need dedicated slots).
  std::vector<int> series_reused(series.size(), 0);
  std::vector<int> series_dirty(series.size(), 0);

  ThreadPool pool(outer);
  for (std::size_t series_index = 0; series_index < series.size();
       ++series_index) {
    const Series& s = series[series_index];
    pool.submit([&result, &config, &cache, &tables, &series_reused,
                 &series_dirty, series_index, s, inner] {
      const soc::Soc& soc = config.socs[s.soc_index];
      const double w_time = config.time_weights[s.weight_index];
      const auto row_index = [&](std::size_t width_index,
                                 std::size_t power_index) {
        return ((s.soc_index * config.tam_widths.size() + width_index) *
                    config.max_powers.size() +
                power_index) *
                   config.time_weights.size() +
               s.weight_index;
      };
      const auto fill_series_error = [&](const std::string& what) {
        for (std::size_t w = 0; w < config.tam_widths.size(); ++w) {
          for (std::size_t p = 0; p < config.max_powers.size(); ++p) {
            SweepRow row =
                make_row(soc, config.tam_widths[w],
                         resolve_power(config.max_powers[p], soc), w_time,
                         config);
            row.error = what;
            result.rows[row_index(w, p)] = std::move(row);
          }
        }
      };
      try {
        FrontierOptions options;
        options.widths = config.tam_widths;
        options.max_powers = config.max_powers;
        options.weights = {w_time, 1.0 - w_time};
        options.exhaustive = config.exhaustive;
        options.epsilon = config.epsilon;
        options.jobs = inner;
        options.cache = cache;
        options.pareto_tables = &tables[s.soc_index];
        options.packing.window_limit = config.window_limit;
        options.packing.window_cycles = config.window_cycles;
        FrontierEngine engine(soc, options);
        const FrontierResult frontier = config.replan_from.empty()
                                            ? engine.run()
                                            : engine.replan(
                                                  config.replan_from);
        series_reused[series_index] = frontier.reused;
        series_dirty[series_index] = frontier.dirty_partitions;

        std::map<std::pair<int, double>, const FrontierPoint*> by_cell;
        for (const FrontierPoint& point : frontier.points) {
          by_cell.emplace(std::make_pair(point.tam_width, point.max_power),
                          &point);
        }
        for (std::size_t w = 0; w < config.tam_widths.size(); ++w) {
          for (std::size_t p = 0; p < config.max_powers.size(); ++p) {
            const double budget = resolve_power(config.max_powers[p], soc);
            const FrontierPoint& point =
                *by_cell.at({config.tam_widths[w], budget});
            SweepRow row = make_row(soc, config.tam_widths[w], budget,
                                    w_time, config);
            row.window_cycles = point.window_cycles;
            row.window_limit = point.window_limit;
            row.wall_ms = point.wall_ms;
            if (point.ok()) {
              row.best_label = point.best.label;
              row.best_total = point.best.total;
              row.c_time = point.best.c_time;
              row.c_area = point.best.c_area;
              row.test_time = point.best.test_time;
              row.t_max = point.t_max;
              row.evaluations = point.evaluations;
              row.total_combinations = point.total_combinations;
              row.reused = point.reused;
              OptimizationResult reduction;
              reduction.evaluations = point.evaluations;
              reduction.total_combinations = point.total_combinations;
              row.evaluation_reduction_percent =
                  reduction.evaluation_reduction_percent();
            } else {
              row.error = point.error;
            }
            result.rows[row_index(w, p)] = std::move(row);
          }
        }
      } catch (const InfeasibleError& e) {
        // Unsatisfiable input is a legitimate sweep outcome and lands
        // in every row of the series.  LogicError — a library
        // invariant violation — must NOT become a soft row: it
        // propagates (via ThreadPool::wait) and fails the whole sweep.
        fill_series_error(e.what());
      } catch (const ParseError& e) {
        fill_series_error(e.what());
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
    for (const int reused : series_reused) result.reused += reused;
    for (const int dirty : series_dirty) {
      result.dirty_partitions = std::max(result.dirty_partitions, dirty);
    }
  }
  result.total_wall_ms = elapsed_ms(start);
  return result;
}

SweepConfig default_benchmark_sweep() {
  SweepConfig config;
  config.socs.push_back(soc::make_p93791m());
  config.socs.push_back(soc::make_d695m());
  return config;
}

namespace {

/// v2-schema switch, mirroring the frontier serializers: only a sweep
/// that actually ran power-constrained cases changes its documents.
bool any_power_constrained(const std::vector<SweepRow>& rows) {
  return std::any_of(rows.begin(), rows.end(),
                     [](const SweepRow& r) { return r.max_power > 0.0; });
}

/// v4-schema switch: only a sweep that actually enforced a sliding
/// window emits the window columns/fields.
bool any_windowed(const std::vector<SweepRow>& rows) {
  return std::any_of(rows.begin(), rows.end(),
                     [](const SweepRow& r) { return r.window_cycles > 0; });
}

}  // namespace

std::string SweepResult::to_csv() const {
  const bool constrained = any_power_constrained(rows);
  const bool windowed = any_windowed(rows);
  const bool replan = !replanned_from.empty();
  std::ostringstream out;
  std::vector<std::string> header = {"soc", "tam_width", "w_time",
                                     "algorithm", "best_label", "best_total",
                                     "c_time", "c_area", "test_time",
                                     "t_max", "evaluations",
                                     "total_combinations",
                                     "evaluation_reduction_percent",
                                     "wall_ms", "error"};
  if (replan) header.insert(header.begin() + 12, "reused");
  if (windowed) {
    header.insert(header.begin() + 2, {"window_cycles", "window_limit"});
  }
  if (constrained) header.insert(header.begin() + 2, "max_power");
  CsvWriter csv(out, header);
  for (const SweepRow& r : rows) {
    std::vector<std::string> row = {
        r.soc_name, std::to_string(r.tam_width),
        round_trip_double(r.w_time), r.algorithm, r.best_label,
        round_trip_double(r.best_total), round_trip_double(r.c_time),
        round_trip_double(r.c_area), std::to_string(r.test_time),
        std::to_string(r.t_max), std::to_string(r.evaluations),
        std::to_string(r.total_combinations),
        round_trip_double(r.evaluation_reduction_percent),
        round_trip_double(r.wall_ms), r.error};
    if (replan) row.insert(row.begin() + 12, std::to_string(r.reused));
    if (windowed) {
      row.insert(row.begin() + 2,
                 {std::to_string(r.window_cycles),
                  round_trip_double(r.window_limit)});
    }
    if (constrained) {
      row.insert(row.begin() + 2, round_trip_double(r.max_power));
    }
    csv.write_row(row);
  }
  return out.str();
}

std::string SweepResult::to_json() const {
  const bool constrained = any_power_constrained(rows);
  const bool windowed = any_windowed(rows);
  const bool replan = !replanned_from.empty();
  const char* schema =
      windowed ? "v4" : (cache_used ? "v3" : (constrained ? "v2" : "v1"));
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"msoc-sweep-" << schema << "\",\n"
     << "  \"exhaustive\": " << (exhaustive ? "true" : "false") << ",\n"
     << "  \"epsilon\": " << round_trip_double(epsilon) << ",\n"
     << "  \"jobs\": " << jobs << ",\n";
  if (replan) {
    os << "  \"replanned_from\": \"" << json_escape(replanned_from)
       << "\",\n"
       << "  \"reused\": " << reused << ",\n"
       << "  \"dirty_partitions\": " << dirty_partitions << ",\n";
  }
  if (cache_used) {
    os << "  \"cache\": {\"hits\": " << cache_hits << ", "
       << "\"misses\": " << cache_misses << ", "
       << "\"records\": " << cache_records << ", "
       << "\"corrupt_files\": " << cache_corrupt_files << "},\n";
  }
  os << "  \"total_wall_ms\": " << round_trip_double(total_wall_ms) << ",\n"
     << "  \"cases\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"soc\": \"" << json_escape(r.soc_name) << "\", "
       << "\"tam_width\": " << r.tam_width << ", ";
    if (constrained) {
      os << "\"max_power\": " << round_trip_double(r.max_power) << ", ";
    }
    if (windowed) {
      os << "\"window_cycles\": " << r.window_cycles << ", "
         << "\"window_limit\": " << round_trip_double(r.window_limit)
         << ", ";
    }
    os << "\"w_time\": " << round_trip_double(r.w_time) << ", "
       << "\"algorithm\": \"" << json_escape(r.algorithm) << "\", "
       << "\"wall_ms\": " << round_trip_double(r.wall_ms) << ", ";
    if (!r.ok()) {
      os << "\"error\": \"" << json_escape(r.error) << "\"}";
      continue;
    }
    os << "\"best\": {\"label\": \"" << json_escape(r.best_label) << "\", "
       << "\"total\": " << round_trip_double(r.best_total) << ", "
       << "\"c_time\": " << round_trip_double(r.c_time) << ", "
       << "\"c_area\": " << round_trip_double(r.c_area) << ", "
       << "\"test_time\": " << r.test_time << ", "
       << "\"t_max\": " << r.t_max << "}, "
       << "\"evaluations\": " << r.evaluations << ", "
       << "\"total_combinations\": " << r.total_combinations << ", ";
    if (replan) os << "\"reused\": " << r.reused << ", ";
    os << "\"evaluation_reduction_percent\": "
       << round_trip_double(r.evaluation_reduction_percent) << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace msoc::plan
