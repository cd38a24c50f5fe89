#pragma once
// Experiment drivers that regenerate the paper's tables as structured
// data plus ASCII renderings.  Bench binaries and examples print these.

#include <string>
#include <vector>

#include "msoc/plan/cost_model.hpp"
#include "msoc/plan/frontier.hpp"

namespace msoc::plan {

// ---------------------------------------------------------------- Table 1
struct Table1Row {
  std::size_t wrapper_count = 0;
  std::string label;
  double area_cost = 0.0;          ///< C_A.
  Cycles analog_lb_cycles = 0;     ///< LB_A raw.
  double analog_lb_normalized = 0.0;
  bool feasible = true;
};

struct Table1 {
  std::vector<Table1Row> rows;
  [[nodiscard]] std::string render() const;
};

[[nodiscard]] Table1 make_table1(
    const std::vector<soc::AnalogCore>& cores,
    const mswrap::WrapperAreaModel& area_model = mswrap::WrapperAreaModel{},
    const mswrap::SharingPolicy& policy = mswrap::SharingPolicy{},
    const mswrap::EnumerationOptions& enumeration = {});

// ---------------------------------------------------------------- Table 2
struct Table2 {
  std::vector<soc::AnalogCore> cores;
  [[nodiscard]] std::string render() const;
};

[[nodiscard]] Table2 make_table2(const std::vector<soc::AnalogCore>& cores);

// ---------------------------------------------------------------- Table 3
struct Table3Row {
  std::size_t wrapper_count = 0;
  std::string label;
  std::vector<double> c_time;  ///< One per TAM width, 100 = all-share.
};

struct Table3 {
  std::vector<int> widths;
  std::vector<Table3Row> rows;

  /// Spread (max - min C_time) per width; the paper quotes these growing
  /// with W (2.45 / 7.36 / 17.18 at 32 / 48 / 64).
  [[nodiscard]] std::vector<double> spreads() const;

  [[nodiscard]] std::string render() const;
};

/// C_time of every combination (feasible or not) at each width, packed
/// under `options`' packing with its area model, policy and
/// enumeration; the one-wrapper combination is T_max.
[[nodiscard]] Table3 make_table3(const soc::Soc& soc,
                                 const std::vector<int>& widths,
                                 const FrontierOptions& options = {});

// ---------------------------------------------------------------- Table 4
struct Table4Row {
  int tam_width = 0;
  double exhaustive_cost = 0.0;
  int exhaustive_evaluations = 0;
  std::string exhaustive_label;
  double heuristic_cost = 0.0;
  int heuristic_evaluations = 0;
  std::string heuristic_label;
  double evaluation_reduction = 0.0;
  [[nodiscard]] bool heuristic_optimal() const {
    return heuristic_cost <= exhaustive_cost + 1e-9;
  }
};

struct Table4Block {
  CostWeights weights;
  std::vector<Table4Row> rows;
};

struct Table4 {
  std::vector<Table4Block> blocks;
  [[nodiscard]] std::string render() const;
};

/// One heuristic and one exhaustive one-width FrontierEngine per
/// (weights, width) cell, otherwise configured by `options` (its widths,
/// weights and exhaustive flag are overridden).  N counts the packs
/// plus the members the engine's bound skipped: the paper's N.
[[nodiscard]] Table4 make_table4(const soc::Soc& soc,
                                 const std::vector<int>& widths,
                                 const std::vector<CostWeights>& weight_sets,
                                 const FrontierOptions& options = {});

}  // namespace msoc::plan
