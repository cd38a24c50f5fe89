#pragma once
// The cell fields frontier, sweep and single-plan documents share
// (docs/formats.md).  Each document picks its own schema and writes
// the fields only it has; everything a FrontierPoint says the same way
// in every document is written here, once.

#include <ostream>
#include <string>
#include <vector>

#include "msoc/common/format.hpp"
#include "msoc/common/json.hpp"
#include "msoc/plan/frontier.hpp"

namespace msoc::plan {

/// The conditional budget columns: max_power when any cell ran under a
/// finite power budget (the v2 switch), window_cycles/window_limit when
/// any ran under a sliding window (the v4 switch).  Results without
/// such cells keep their older documents byte-for-byte.
struct BudgetColumns {
  bool power = false;
  bool window = false;

  void include(const std::vector<FrontierPoint>& points) {
    for (const FrontierPoint& p : points) {
      power = power || p.max_power > 0.0;
      window = window || p.window_cycles > 0;
    }
  }

  /// `"max_power": ..., "window_cycles": ..., "window_limit": ..., `
  /// as far as the document carries them.
  void write_json(std::ostream& os, const FrontierPoint& p) const {
    if (power) {
      os << "\"max_power\": " << round_trip_double(p.max_power) << ", ";
    }
    if (window) {
      os << "\"window_cycles\": " << p.window_cycles << ", "
         << "\"window_limit\": " << round_trip_double(p.window_limit) << ", ";
    }
  }

  /// A result-table header: soc, tam_width, the budget columns, the
  /// best-plan columns through evaluations, then `own`, wall_ms, error.
  [[nodiscard]] std::vector<std::string> csv_header(
      std::vector<std::string> own) const {
    std::vector<std::string> header = {"soc", "tam_width"};
    if (power) header.push_back("max_power");
    if (window) header.insert(header.end(), {"window_cycles", "window_limit"});
    header.insert(header.end(),
                  {"w_time", "algorithm", "best_label", "best_total", "c_time",
                   "c_area", "test_time", "t_max", "evaluations"});
    header.insert(header.end(), own.begin(), own.end());
    header.insert(header.end(), {"wall_ms", "error"});
    return header;
  }

  /// One result-table row in csv_header's column order.
  [[nodiscard]] std::vector<std::string> csv_row(
      const FrontierResult& result, const FrontierPoint& p,
      std::vector<std::string> own) const {
    std::vector<std::string> row = {result.soc_name,
                                    std::to_string(p.tam_width)};
    if (power) row.push_back(round_trip_double(p.max_power));
    if (window) {
      row.insert(row.end(), {std::to_string(p.window_cycles),
                             round_trip_double(p.window_limit)});
    }
    row.insert(row.end(),
               {round_trip_double(result.w_time), result.algorithm,
                p.best.label, round_trip_double(p.best.total),
                round_trip_double(p.best.c_time),
                round_trip_double(p.best.c_area),
                std::to_string(p.best.test_time), std::to_string(p.t_max),
                std::to_string(p.evaluations)});
    row.insert(row.end(), own.begin(), own.end());
    row.insert(row.end(), {round_trip_double(p.wall_ms), p.error});
    return row;
  }
};

/// A solved cell's `"best": {...}, "evaluations": ..,
/// "total_combinations": .., `.
inline void write_best_json(std::ostream& os, const FrontierPoint& p) {
  os << "\"best\": {\"label\": \"" << json_escape(p.best.label) << "\", "
     << "\"total\": " << round_trip_double(p.best.total) << ", "
     << "\"c_time\": " << round_trip_double(p.best.c_time) << ", "
     << "\"c_area\": " << round_trip_double(p.best.c_area) << ", "
     << "\"test_time\": " << p.best.test_time << ", "
     << "\"t_max\": " << p.t_max << "}, "
     << "\"evaluations\": " << p.evaluations << ", "
     << "\"total_combinations\": " << p.total_combinations << ", ";
}

/// The replan provenance lines both document headers carry.
inline void write_replan_json(std::ostream& os, const std::string& from,
                              int reused, int dirty_partitions) {
  os << "  \"replanned_from\": \"" << json_escape(from) << "\",\n"
     << "  \"reused\": " << reused << ",\n"
     << "  \"dirty_partitions\": " << dirty_partitions << ",\n";
}

}  // namespace msoc::plan
