#include "msoc/plan/frontier.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "msoc/common/csv.hpp"
#include "msoc/common/error.hpp"
#include "msoc/common/format.hpp"
#include "msoc/common/json.hpp"
#include "msoc/common/logging.hpp"
#include "msoc/soc/digest.hpp"

namespace msoc::plan {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// The message schedule_soc raises for an over-narrow TAM; the engine
/// pre-checks so fully-cached widths never need a packer run to learn
/// they are infeasible, but must report the identical text.
constexpr const char* kTooNarrow =
    "analog wrapper needs more TAM wires than the SOC has";

/// Likewise for a power budget no schedule can satisfy (a single test
/// hotter than the whole budget).
constexpr const char* kTooHot = "test power exceeds the SOC power budget";

int count_dirty(const std::vector<bool>& clean) {
  return static_cast<int>(
      std::count(clean.begin(), clean.end(), false));
}

}  // namespace

FrontierEngine::FrontierEngine(const soc::Soc& soc, FrontierOptions options)
    : soc_(soc), options_(std::move(options)) {
  require(!options_.widths.empty(), "frontier needs at least one TAM width");
  require(options_.epsilon >= 0.0, "epsilon must be non-negative");
  options_.weights.validate();
  require(soc_.analog_count() >= 1,
          "mixed-signal planning needs at least one analog core");

  widths_ = options_.widths;
  std::sort(widths_.begin(), widths_.end());
  widths_.erase(std::unique(widths_.begin(), widths_.end()), widths_.end());

  // Resolve the power ladder against the SOC, collapse duplicates, and
  // order the rungs: unconstrained first, then descending (tightening)
  // budgets.  With the default one-inherit-rung ladder on an
  // unconstrained SOC this is exactly the pre-power single solve.
  require(!options_.max_powers.empty(),
          "frontier needs at least one power budget");
  for (const double budget : options_.max_powers) {
    // NaN slips through every sign test (NaN < 0.0 is false) and would
    // poison the cache's EntryKey ordering; infinities serialize badly.
    require(std::isfinite(budget) || budget < 0.0,
            "power budgets must be finite (or negative = inherit)");
    powers_.push_back(budget < 0.0 ? soc_.max_power() : budget);
  }
  std::sort(powers_.begin(), powers_.end(), [](double a, double b) {
    if ((a == 0.0) != (b == 0.0)) return a == 0.0;  // unconstrained first
    return a > b;                                   // then tightening
  });
  powers_.erase(std::unique(powers_.begin(), powers_.end()), powers_.end());

  // One sliding-window budget per run (packing options resolved against
  // the SOC, like each max_power rung), crossed with the power ladder.
  window_ = tam::effective_power_window(soc_, options_.packing);

  digest_ = soc::digest_hex(soc_);
  fingerprint_ = packing_fingerprint(options_.packing);
  names_ = mswrap::core_names(soc_.analog_cores());
  for (const soc::AnalogCore& core : soc_.analog_cores()) {
    max_analog_width_ = std::max(max_analog_width_, core.tam_width());
  }
  peak_test_power_ = soc_.peak_test_power();

  // --- Stage 1: width-independent combination work, done exactly
  // once (enumeration, Eq. 3 prelims, shape groups, cache keys). ---
  space_.emplace(soc_, options_.weights, options_.area_model,
                 options_.policy, options_.enumeration);

  // Invalid widths (< 1) become per-width error points, like widths
  // below the analog minimum, so tables are sized by the widest VALID
  // budget (and at least 1 so a fully-degenerate ladder still builds).
  const int table_width = std::max(widths_.back(), 1);
  if (options_.pareto_tables != nullptr) {
    require(options_.pareto_tables->max_width >= table_width &&
                options_.pareto_tables->by_core.size() ==
                    soc_.digital_count(),
            "borrowed pareto_tables do not cover this SOC/width ladder");
    pareto_tables_ = options_.pareto_tables;
  } else {
    own_pareto_tables_ = tam::compute_pareto_tables(soc_, table_width);
    pareto_tables_ = &own_pareto_tables_;
  }

  if (options_.cache != nullptr) {
    // Opening with the SOC (not just its name) pins the store's digest
    // inventory, so the flushed file can seed a future replan().
    options_.cache->open(digest_, soc_);
  }
}

FrontierPoint FrontierEngine::solve_point(int width, double max_power) {
  try {
    return solve_point_attempt(width, max_power, /*trust_cache=*/true);
  } catch (const StaleCacheError&) {
    // A parseable entry contradicted the packer (stale or tampered
    // store).  Per the cache contract this must never fail the run:
    // re-solve the cell ignoring stored values; the fresh results are
    // recorded and overwrite the stale cells on flush.
    log_warn("cache entries for width ", width, " of ", digest_,
             " are stale; recomputing");
    return solve_point_attempt(width, max_power, /*trust_cache=*/false);
  }
}

FrontierPoint FrontierEngine::solve_point_attempt(int width,
                                                  double max_power,
                                                  bool trust_cache) {
  const Clock::time_point started = Clock::now();
  FrontierPoint point;
  point.tam_width = width;
  point.max_power = max_power;
  if (window_.active()) {
    point.window_cycles = window_.cycles;
    point.window_limit = window_.limit;
  }
  point.total_combinations = static_cast<int>(space_->cells.size());

  if (width < 1) {
    point.error = "TAM width must be >= 1";
    point.wall_ms = elapsed_ms(started);
    return point;
  }
  if (max_analog_width_ > width) {
    point.error = kTooNarrow;
    point.wall_ms = elapsed_ms(started);
    return point;
  }
  if (max_power > 0.0 && peak_test_power_ > max_power) {
    point.error = kTooHot;
    point.wall_ms = elapsed_ms(started);
    return point;
  }

  std::optional<CostModel> model;
  const auto ensure_model = [&]() -> CostModel& {
    if (!model.has_value()) {
      PlanningProblem problem;
      problem.soc = &soc_;
      problem.tam_width = width;
      problem.weights = options_.weights;
      problem.area_model = options_.area_model;
      problem.policy = options_.policy;
      problem.enumeration = options_.enumeration;
      problem.packing = options_.packing;
      problem.packing.pareto_hint = pareto_tables_;
      // Already resolved against the SOC; never the inherit sentinel.
      problem.packing.max_power = max_power;
      problem.packing.window_cycles = window_.cycles;
      problem.packing.window_limit = window_.active() ? window_.limit : 0.0;
      model.emplace(problem);
    }
    return *model;
  };

  // --- Stage 2: digest-keyed makespan resolution for this cell.
  // When replanning, the budget class picks which digest flavor's
  // reuse permissions apply: constrained packs observe power
  // annotations, unconstrained ones provably cannot.
  const std::vector<bool>* clean = nullptr;
  if (!replan_baseline_.empty()) {
    clean = max_power > 0.0 || window_.active() ? &*clean_full_
                                                : &*clean_packing_;
  }
  PartitionEvaluator evaluator(
      *space_, options_.cache, digest_, replan_baseline_, fingerprint_,
      width, max_power, window_.cycles,
      window_.active() ? window_.limit : 0.0, trust_cache, clean,
      options_.jobs);

  // T_max: the all-share baseline every cost normalizes by.
  bool t_max_from_store = false;
  const Cycles t_max = evaluator.begin_cell(
      [&]() -> Cycles { return ensure_model().t_max(); },
      space_->all_share.to_string(names_, true), &t_max_from_store);

  // Uniform cost construction for stored and freshly-packed times —
  // the exact expressions CostModel::evaluate uses, so both paths (and
  // therefore frontier vs per-width optimizer runs) are bit-identical.
  const auto make_cost = [&](const PartitionCell& cell,
                             Cycles test_time) -> CombinationCost {
    CombinationCost cost;
    cost.partition = cell.evaluation.partition;
    cost.label = cell.evaluation.label;
    cost.test_time = test_time;
    check_invariant(cost.test_time <= t_max,
                    "partition " + cost.label +
                        " packed worse than the all-share baseline");
    cost.c_time = 100.0 * static_cast<double>(test_time) /
                  static_cast<double>(t_max);
    cost.c_area = cell.evaluation.area_cost;
    cost.total = options_.weights.time * cost.c_time +
                 options_.weights.area * cost.c_area;
    return cost;
  };

  // Pruning decisions are made BEFORE each resolve() fan-out, against
  // thresholds fixed serially, so jobs never changes results or
  // counts.
  const auto resolve = [&](const std::vector<std::size_t>& indices) {
    evaluator.resolve(indices, [&]() -> CostModel& {
      return ensure_model();
    });
  };

  bool have_best = false;
  const auto consider = [&](const CombinationCost& cost) {
    if (!have_best || cost.total < point.best.total) {
      point.best = cost;
      have_best = true;
    }
  };

  const std::vector<PartitionCell>& cells = space_->cells;
  if (options_.exhaustive) {
    std::vector<std::size_t> everything(cells.size());
    for (std::size_t i = 0; i < everything.size(); ++i) everything[i] = i;
    resolve(everything);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      consider(make_cost(cells[i], *evaluator.time(i)));
    }
  } else {
    // --- Fig. 3 lines 9-13: evaluate group representatives. ---
    std::vector<std::size_t> reps;
    reps.reserve(space_->groups.size());
    for (const PartitionGroup& group : space_->groups) {
      reps.push_back(group.representative);
    }
    resolve(reps);
    std::vector<double> rep_total(space_->groups.size());
    double min_rep = std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < space_->groups.size(); ++g) {
      const std::size_t rep = space_->groups[g].representative;
      rep_total[g] = make_cost(cells[rep], *evaluator.time(rep)).total;
      min_rep = std::min(min_rep, rep_total[g]);
    }

    // --- Lines 14-17: eliminate groups beyond epsilon of the winner.
    std::vector<bool> eliminated(space_->groups.size());
    for (std::size_t g = 0; g < space_->groups.size(); ++g) {
      eliminated[g] = rep_total[g] > min_rep + options_.epsilon;
    }

    // --- Lines 18-19, with the frontier engine's extra prune: a
    // surviving member whose cost lower bound strictly exceeds the
    // cheapest representative can neither win nor tie (selection is by
    // strict <), so skipping its TAM run cannot change the result.
    const Cycles digital_lb =
        tam::digital_lower_bound(soc_, width, pareto_tables_);
    std::vector<bool> pruned(cells.size());
    std::vector<std::size_t> survivors;
    for (std::size_t g = 0; g < space_->groups.size(); ++g) {
      if (eliminated[g]) continue;
      for (const std::size_t index : space_->groups[g].members) {
        if (evaluator.time(index).has_value()) continue;  // representative
        const Cycles time_lb = std::max(cells[index].analog_lb, digital_lb);
        const double total_lb =
            options_.weights.time * (100.0 * static_cast<double>(time_lb) /
                                     static_cast<double>(t_max)) +
            options_.weights.area * cells[index].evaluation.area_cost;
        if (total_lb > min_rep) {
          pruned[index] = true;
          ++point.pruned;
          continue;
        }
        survivors.push_back(index);
      }
    }
    resolve(survivors);

    // Reduce in exactly optimize_cost_heuristic's order: groups in
    // shape order; an eliminated group's representative still
    // competes; surviving members in enumeration order.
    for (std::size_t g = 0; g < space_->groups.size(); ++g) {
      const std::size_t rep = space_->groups[g].representative;
      if (eliminated[g]) {
        consider(make_cost(cells[rep], *evaluator.time(rep)));
        continue;
      }
      for (const std::size_t index : space_->groups[g].members) {
        if (pruned[index]) continue;
        consider(make_cost(cells[index], *evaluator.time(index)));
      }
    }
  }

  point.t_max = t_max;
  point.evaluations = model.has_value() ? model->tam_runs() : 0;
  point.cache_hits = evaluator.cache_hits();
  point.reused = evaluator.reused();
  point.wall_ms = elapsed_ms(started);
  return point;
}

FrontierResult FrontierEngine::run_grid() {
  const Clock::time_point started = Clock::now();
  FrontierResult result;
  result.soc_name = soc_.name();
  result.digest = digest_;
  result.algorithm = options_.exhaustive ? "exhaustive" : "cost_optimizer";
  result.w_time = options_.weights.time;

  for (const double max_power : powers_) {
    const std::size_t rung_begin = result.points.size();
    for (const int width : widths_) {
      FrontierPoint point;
      try {
        point = solve_point(width, max_power);
      } catch (const InfeasibleError& e) {
        point.tam_width = width;
        point.max_power = max_power;
        if (window_.active()) {
          point.window_cycles = window_.cycles;
          point.window_limit = window_.limit;
        }
        point.total_combinations = static_cast<int>(space_->cells.size());
        point.error = e.what();
      }
      result.evaluations += point.evaluations;
      result.cache_hits += point.cache_hits;
      result.reused += point.reused;
      result.pruned += point.pruned;
      result.points.push_back(std::move(point));
    }

    // Monotonicity and Pareto membership over this rung's feasible
    // points: every budget's width curve must be sane on its own.
    bool have_min = false;
    Cycles running_min = 0;
    for (std::size_t i = rung_begin; i < result.points.size(); ++i) {
      FrontierPoint& point = result.points[i];
      if (!point.ok()) continue;
      if (have_min && point.best.test_time > running_min) {
        result.time_monotone = false;
      }
      point.pareto = !have_min || point.best.test_time < running_min;
      if (!have_min || point.best.test_time < running_min) {
        running_min = point.best.test_time;
        have_min = true;
      }
    }
  }

  result.wall_ms = elapsed_ms(started);
  return result;
}

FrontierResult FrontierEngine::run() {
  replan_baseline_.clear();
  clean_full_.reset();
  clean_packing_.reset();
  return run_grid();
}

FrontierResult FrontierEngine::replan(const std::string& baseline_digest) {
  ResultCache* cache = options_.cache;
  if (cache == nullptr) {
    log_warn("replan from ", baseline_digest,
             " requested without a result cache; planning cold");
    return run();
  }
  cache->open(baseline_digest);
  const std::optional<soc::DigestInventory> baseline =
      cache->inventory(baseline_digest);
  if (!baseline.has_value()) {
    log_warn("baseline store ", baseline_digest,
             " has no digest inventory (no v4 store for it); "
             "planning cold");
    return run();
  }

  const soc::DigestDelta delta =
      soc::diff(*baseline, soc::digest_inventory(soc_));
  replan_baseline_ = baseline_digest;
  clean_full_ = space_->classify_clean(soc_, delta, /*packing_flavor=*/false);
  clean_packing_ =
      space_->classify_clean(soc_, delta, /*packing_flavor=*/true);

  FrontierResult result = run_grid();
  result.replanned_from = baseline_digest;
  // Report the dirty count of the worst rung actually solved: a
  // constrained rung keys on full digests, an unconstrained one on the
  // power-stripped flavor.
  const int dirty_full = count_dirty(*clean_full_);
  const int dirty_packing = count_dirty(*clean_packing_);
  for (const double max_power : powers_) {
    result.dirty_partitions = std::max(
        result.dirty_partitions,
        max_power > 0.0 || window_.active() ? dirty_full : dirty_packing);
  }

  replan_baseline_.clear();
  clean_full_.reset();
  clean_packing_.reset();
  return result;
}

namespace {

/// True when any point ran under a finite power budget: the signal
/// that switches serializers to the v2 schemas.  All-unconstrained
/// results keep emitting the v1 documents byte-for-byte.
bool any_power_constrained(const std::vector<FrontierPoint>& points) {
  return std::any_of(points.begin(), points.end(),
                     [](const FrontierPoint& p) { return p.max_power > 0.0; });
}

/// True when any point ran under a sliding-window budget: switches the
/// serializers to v4 and emits the per-point window fields.
bool any_windowed(const std::vector<FrontierPoint>& points) {
  return std::any_of(points.begin(), points.end(), [](const FrontierPoint& p) {
    return p.window_cycles > 0;
  });
}

}  // namespace

std::string FrontierResult::to_csv() const {
  const bool constrained = any_power_constrained(points);
  const bool windowed = any_windowed(points);
  const bool replan = !replanned_from.empty();
  std::ostringstream out;
  std::vector<std::string> header = {"soc", "tam_width", "w_time",
                                     "algorithm", "best_label", "best_total",
                                     "c_time", "c_area", "test_time",
                                     "t_max", "evaluations",
                                     "total_combinations", "cache_hits",
                                     "pruned", "pareto", "wall_ms", "error"};
  if (replan) header.insert(header.begin() + 14, "reused");
  if (windowed) {
    header.insert(header.begin() + 2, {"window_cycles", "window_limit"});
  }
  if (constrained) header.insert(header.begin() + 2, "max_power");
  CsvWriter csv(out, header);
  for (const FrontierPoint& p : points) {
    std::vector<std::string> row = {
        soc_name, std::to_string(p.tam_width),
        round_trip_double(w_time), algorithm, p.best.label,
        round_trip_double(p.best.total), round_trip_double(p.best.c_time),
        round_trip_double(p.best.c_area), std::to_string(p.best.test_time),
        std::to_string(p.t_max), std::to_string(p.evaluations),
        std::to_string(p.total_combinations),
        std::to_string(p.cache_hits), std::to_string(p.pruned),
        p.pareto ? "1" : "0", round_trip_double(p.wall_ms), p.error};
    if (replan) row.insert(row.begin() + 14, std::to_string(p.reused));
    if (windowed) {
      row.insert(row.begin() + 2,
                 {std::to_string(p.window_cycles),
                  round_trip_double(p.window_limit)});
    }
    if (constrained) {
      row.insert(row.begin() + 2, round_trip_double(p.max_power));
    }
    csv.write_row(row);
  }
  return out.str();
}

std::string FrontierResult::to_json() const {
  const bool constrained = any_power_constrained(points);
  const bool windowed = any_windowed(points);
  const bool replan = !replanned_from.empty();
  const char* schema =
      windowed ? "v4" : (replan ? "v3" : (constrained ? "v2" : "v1"));
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"msoc-frontier-" << schema << "\",\n"
     << "  \"soc\": \"" << json_escape(soc_name) << "\",\n"
     << "  \"digest\": \"" << json_escape(digest) << "\",\n";
  if (replan) {
    os << "  \"replanned_from\": \"" << json_escape(replanned_from)
       << "\",\n"
       << "  \"reused\": " << reused << ",\n"
       << "  \"dirty_partitions\": " << dirty_partitions << ",\n";
  }
  os << "  \"algorithm\": \"" << json_escape(algorithm) << "\",\n"
     << "  \"w_time\": " << round_trip_double(w_time) << ",\n"
     << "  \"evaluations\": " << evaluations << ",\n"
     << "  \"cache_hits\": " << cache_hits << ",\n"
     << "  \"pruned\": " << pruned << ",\n"
     << "  \"time_monotone\": " << (time_monotone ? "true" : "false")
     << ",\n"
     << "  \"wall_ms\": " << round_trip_double(wall_ms) << ",\n"
     << "  \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const FrontierPoint& p = points[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"tam_width\": " << p.tam_width << ", ";
    if (constrained) {
      os << "\"max_power\": " << round_trip_double(p.max_power) << ", ";
    }
    if (windowed) {
      os << "\"window_cycles\": " << p.window_cycles << ", "
         << "\"window_limit\": " << round_trip_double(p.window_limit)
         << ", ";
    }
    os << "\"wall_ms\": " << round_trip_double(p.wall_ms) << ", ";
    if (!p.ok()) {
      os << "\"error\": \"" << json_escape(p.error) << "\"}";
      continue;
    }
    os << "\"best\": {\"label\": \"" << json_escape(p.best.label) << "\", "
       << "\"total\": " << round_trip_double(p.best.total) << ", "
       << "\"c_time\": " << round_trip_double(p.best.c_time) << ", "
       << "\"c_area\": " << round_trip_double(p.best.c_area) << ", "
       << "\"test_time\": " << p.best.test_time << ", "
       << "\"t_max\": " << p.t_max << "}, "
       << "\"evaluations\": " << p.evaluations << ", "
       << "\"total_combinations\": " << p.total_combinations << ", "
       << "\"cache_hits\": " << p.cache_hits << ", ";
    if (replan) os << "\"reused\": " << p.reused << ", ";
    os << "\"pruned\": " << p.pruned << ", "
       << "\"pareto\": " << (p.pareto ? "true" : "false") << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace msoc::plan
