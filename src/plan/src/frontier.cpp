#include "msoc/plan/frontier.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "msoc/common/csv.hpp"
#include "msoc/common/error.hpp"
#include "msoc/common/format.hpp"
#include "msoc/common/json.hpp"
#include "msoc/common/logging.hpp"
#include "msoc/common/parallel.hpp"
#include "msoc/soc/digest.hpp"
#include "cell_writer.hpp"

namespace msoc::plan {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// Raised by a cell when a parseable cache entry contradicts the packer
/// (stale or tampered store): solve_point re-solves the cell without
/// trusting any store.  Never escapes the engine.
struct StaleCacheError {};

int count_dirty(const std::vector<bool>& clean) {
  return static_cast<int>(
      std::count(clean.begin(), clean.end(), false));
}

tam::PackingOptions at_budget(tam::PackingOptions packing, double max_power) {
  packing.max_power = max_power;
  return packing;
}

}  // namespace

void FrontierOptions::validate() const {
  require(!widths.empty(), "frontier needs at least one TAM width");
  require(!max_powers.empty(), "frontier needs at least one power budget");
  for (const double budget : max_powers) {
    // NaN slips through every sign test (NaN < 0.0 is false) and would
    // poison the cache's EntryKey ordering; infinities serialize badly.
    require(std::isfinite(budget) || budget < 0.0,
            "power budgets must be finite (or negative = inherit)");
  }
  require(std::isfinite(packing.window_limit) || packing.window_limit < 0.0,
          "the window limit must be finite (or negative = inherit)");
  require(packing.window_limit <= 0.0 || packing.window_cycles > 0,
          "an explicit window limit needs a positive window length");
  require(epsilon >= 0.0, "epsilon must be non-negative");
}

FrontierPoint FrontierPoint::cell(int width, double max_power,
                                  const soc::PowerWindow& window) {
  FrontierPoint point;
  point.tam_width = width;
  point.max_power = max_power;
  if (window.active()) {
    point.window_cycles = window.cycles;
    point.window_limit = window.limit;
  }
  return point;
}

FrontierEngine::FrontierEngine(const soc::Soc& soc, FrontierOptions options)
    : soc_(soc), options_(std::move(options)) {
  options_.validate();
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
  for (const double budget : options_.max_powers) {
    powers_.push_back(tam::effective_max_power(soc_, budget));
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

/// Stage 2 of the pipeline for one (width, budget) cell: resolves
/// partition makespans from the current store, then the replan baseline
/// store (clean partitions only), then one parallel fan-out of fresh
/// packs over the misses through the cell's tam::Packer.  Baseline
/// reads and fresh packs alike are recorded under the current digest —
/// the splice that makes one flush materialize an up-to-date store.
/// Lookups read the stores' open-time snapshots and the fan-out is
/// deterministic per jobs, so resolution order never changes results.
struct FrontierEngine::Cell {
  /// Resolves the all-share T_max every cost normalizes by.
  Cell(const FrontierEngine& engine, int width, double max_power,
       bool trust_cache);

  [[nodiscard]] ResultCache::EntryKey entry(const std::string& key) const {
    return {width, max_power, engine.fingerprint_, key, engine.window_.cycles,
            engine.window_.active() ? engine.window_.limit : 0.0};
  }
  /// Current store first, then the baseline store when `reusable`
  /// (only ever true while replanning).
  [[nodiscard]] std::optional<Cycles> lookup(const std::string& key,
                                             const std::string& label,
                                             bool reusable);
  void record(const std::string& key, const std::string& label,
              Cycles time) const {
    if (ResultCache* cache = engine.options_.cache) {
      cache->record(engine.digest_, entry(key), label, time);
    }
  }
  /// Fills time_of for `indices`; throws StaleCacheError when a store
  /// value contradicts the packer.
  void resolve(const std::vector<std::size_t>& indices);
  /// Eq. 2 of a resolved partition.
  [[nodiscard]] CombinationCost price(std::size_t index) const;

  const FrontierEngine& engine;
  const int width;
  const double max_power;  ///< Resolved; never the inherit sentinel.
  /// A peak or window budget binds, so keys use full digests.
  const bool powered;
  /// False disables every store read (the StaleCacheError retry).
  const bool trust_cache;
  /// Replan reuse permission per partition; null when not replanning.
  const std::vector<bool>* clean = nullptr;
  /// Packs nothing until a makespan misses every store.
  const tam::Packer packer;
  Cycles t_max = 0;
  std::vector<std::optional<Cycles>> time_of;
  /// Partition packs: the paper's N, without the T_max baseline.
  int packs = 0;
  int cache_hits = 0;
  int reused = 0;
};

FrontierEngine::Cell::Cell(const FrontierEngine& engine, int width,
                           double max_power, bool trust_cache)
    : engine(engine),
      width(width),
      max_power(max_power),
      powered(max_power > 0.0 || engine.window_.active()),
      trust_cache(trust_cache),
      packer(engine.soc_, width, at_budget(engine.options_.packing, max_power),
             engine.pareto_tables_),
      time_of(engine.space_->cells.size()) {
  if (!engine.replan_baseline_.empty()) {
    clean = powered ? &*engine.clean_full_ : &*engine.clean_packing_;
  }
  // The all-share partition covers every analog core, so its entry may
  // be reused exactly when every partition's may.
  const bool all_clean =
      clean != nullptr &&
      std::find(clean->begin(), clean->end(), false) == clean->end();
  const std::string& key = engine.space_->all_share_key_for(powered);
  const std::string label =
      engine.space_->all_share.to_string(engine.names_, true);
  if (const std::optional<Cycles> stored = lookup(key, label, all_clean)) {
    // Loading validated test_time >= 1, so it is a usable divisor;
    // resolve() checks it against the packer before its first pack.  It
    // is the normalization constant, not a combination evaluation, so
    // it counts in neither cache_hits nor reused (the paper's N).
    t_max = *stored;
    cache_hits = 0;
    reused = 0;
  } else {
    t_max = packer.all_share().makespan();
    record(key, label, t_max);
  }
}

std::optional<Cycles> FrontierEngine::Cell::lookup(const std::string& key,
                                                   const std::string& label,
                                                   bool reusable) {
  ResultCache* cache = engine.options_.cache;
  if (cache == nullptr || !trust_cache) return std::nullopt;
  const ResultCache::EntryKey at = entry(key);
  if (std::optional<Cycles> hit = cache->lookup(engine.digest_, at)) {
    ++cache_hits;
    return hit;
  }
  if (!reusable) return std::nullopt;
  if (std::optional<Cycles> hit =
          cache->lookup(engine.replan_baseline_, at)) {
    cache->record(engine.digest_, at, label, *hit);  // the splice
    ++reused;
    return hit;
  }
  return std::nullopt;
}

void FrontierEngine::Cell::resolve(const std::vector<std::size_t>& indices) {
  const std::vector<PartitionCell>& cells = engine.space_->cells;
  std::vector<std::size_t> misses;
  for (const std::size_t index : indices) {
    if (time_of[index].has_value()) continue;
    const PartitionCell& cell = cells[index];
    const std::optional<Cycles> hit =
        lookup(cell.key_for(powered), cell.evaluation.label,
               clean != nullptr && (*clean)[index]);
    if (!hit.has_value()) {
      misses.push_back(index);
      continue;
    }
    // A stored time above the baseline contradicts the packer's
    // serialized-fallback guarantee: the store is stale for this cell.
    if (*hit > t_max) throw StaleCacheError{};
    time_of[index] = *hit;
  }
  if (misses.empty()) return;
  // A stored T_max that disagrees with a fresh pack makes every stored
  // value of this cell suspect, including ones already consumed by
  // representative/elimination decisions: restart without the stores.
  if (packer.all_share().makespan() != t_max) throw StaleCacheError{};
  std::vector<Cycles> packed(misses.size(), t_max);
  parallel_for(misses.size(), engine.options_.jobs, [&](std::size_t i) {
    // The one one-wrapper partition is the all-share one: T_max, no pack.
    const mswrap::Partition& partition = cells[misses[i]].evaluation.partition;
    if (partition.groups().size() == 1) return;
    const tam::Schedule schedule = packer.schedule(
        mswrap::to_analog_partition(engine.soc_.analog_cores(), partition));
    tam::require_valid(schedule);
    packed[i] = schedule.makespan();
  });
  for (std::size_t i = 0; i < misses.size(); ++i) {
    const PartitionCell& cell = cells[misses[i]];
    if (cell.evaluation.partition.groups().size() > 1) ++packs;
    time_of[misses[i]] = packed[i];
    record(cell.key_for(powered), cell.evaluation.label, packed[i]);
  }
}

CombinationCost FrontierEngine::Cell::price(std::size_t index) const {
  const mswrap::SharingEvaluation& e = engine.space_->cells[index].evaluation;
  return plan::price(e.partition, e.label, e.area_cost, *time_of[index],
                     t_max, engine.options_.weights);
}

FrontierPoint FrontierEngine::solve_point(int width, double max_power) {
  // An unpackable cell fails in its Packer's constructor, before any
  // store lookup, with schedule_soc's own text; run_grid turns the
  // throw into its point.
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
  FrontierPoint point = FrontierPoint::cell(width, max_power, window_);
  point.total_combinations = static_cast<int>(space_->cells.size());
  Cell cell(*this, width, max_power, trust_cache);

  bool have_best = false;
  const auto consider = [&](std::size_t index) {
    CombinationCost cost = cell.price(index);
    if (!have_best || cost.total < point.best.total) {
      point.best = std::move(cost);
      have_best = true;
    }
  };

  // Pruning decisions are made BEFORE each resolve() fan-out, against
  // thresholds fixed serially, so jobs never changes results or
  // counts.
  const std::vector<PartitionCell>& cells = space_->cells;
  if (options_.exhaustive) {
    std::vector<std::size_t> everything(cells.size());
    for (std::size_t i = 0; i < everything.size(); ++i) everything[i] = i;
    cell.resolve(everything);
    for (std::size_t i = 0; i < cells.size(); ++i) consider(i);
  } else {
    // Every cost bound below is w_T * C_time(max(analog LB, makespan
    // LB)) + w_A * C_A: each term is known without a TAM run and never
    // exceeds the partition's Eq. 2 total.
    const Cycles makespan_lb = cell.packer.makespan_lower_bound();
    const auto bound_cost = [&](std::size_t index) {
      return options_.weights.total(
          c_time(std::max(cells[index].analog_lb, makespan_lb), cell.t_max),
          cells[index].evaluation.area_cost);
    };

    // --- Fig. 3 lines 9-13: evaluate group representatives, one at a
    // time in ascending order of bound-cost (ties by group).  A
    // representative whose bound-cost exceeds the cheapest evaluated
    // total plus epsilon is skipped: its own total would exceed it too,
    // so lines 14-17 eliminate its group for certain, and it cannot win
    // (selection is by strict <).  The all-share partition is never
    // skipped: its makespan is T_max, already known.
    std::vector<std::pair<double, std::size_t>> by_bound;  // (cost, group)
    for (std::size_t g = 0; g < space_->groups.size(); ++g) {
      by_bound.emplace_back(bound_cost(space_->groups[g].representative), g);
    }
    std::sort(by_bound.begin(), by_bound.end());
    // A skipped representative keeps an infinite total: eliminated.
    std::vector<double> rep_total(space_->groups.size(),
                                  std::numeric_limits<double>::infinity());
    double min_rep = std::numeric_limits<double>::infinity();
    for (const auto& [bound, g] : by_bound) {
      const std::size_t rep = space_->groups[g].representative;
      if (cells[rep].evaluation.partition.groups().size() > 1 &&
          bound > min_rep + options_.epsilon) {
        ++point.pruned;
        continue;
      }
      cell.resolve({rep});
      rep_total[g] = cell.price(rep).total;
      min_rep = std::min(min_rep, rep_total[g]);
    }

    // --- Lines 14-17: eliminate groups beyond epsilon of the winner.
    std::vector<bool> eliminated(space_->groups.size());
    for (std::size_t g = 0; g < space_->groups.size(); ++g) {
      eliminated[g] = rep_total[g] > min_rep + options_.epsilon;
    }

    // --- Lines 18-19, with the frontier engine's extra prune: a
    // surviving member whose bound-cost strictly exceeds the cheapest
    // representative can neither win nor tie, so skipping its TAM run
    // cannot change the result.
    std::vector<bool> pruned(cells.size());
    std::vector<std::size_t> survivors;
    for (std::size_t g = 0; g < space_->groups.size(); ++g) {
      if (eliminated[g]) continue;
      for (const std::size_t index : space_->groups[g].members) {
        if (cell.time_of[index].has_value()) continue;  // representative
        if (bound_cost(index) > min_rep) {
          pruned[index] = true;
          ++point.pruned;
          continue;
        }
        survivors.push_back(index);
      }
    }
    cell.resolve(survivors);

    // Reduce in exactly Fig. 3's order (tests/reference_fig3.hpp):
    // groups in shape order; an eliminated group's representative still
    // competes unless skipped (a strictly cheaper one is considered
    // anyway); surviving members in enumeration order.
    for (std::size_t g = 0; g < space_->groups.size(); ++g) {
      if (eliminated[g]) {
        const std::size_t rep = space_->groups[g].representative;
        if (cell.time_of[rep].has_value()) consider(rep);
        continue;
      }
      for (const std::size_t index : space_->groups[g].members) {
        if (!pruned[index]) consider(index);
      }
    }
  }

  point.t_max = cell.t_max;
  point.evaluations = cell.packs;
  point.cache_hits = cell.cache_hits;
  point.reused = cell.reused;
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
        point = FrontierPoint::cell(width, max_power, window_);
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

double evaluation_reduction_percent(int evaluations,
                                    int total_combinations) {
  if (total_combinations == 0) return 0.0;
  return 100.0 * static_cast<double>(total_combinations - evaluations) /
         static_cast<double>(total_combinations);
}

const FrontierPoint& FrontierResult::point(int width,
                                           double max_power) const {
  const auto found =
      std::find_if(points.begin(), points.end(), [&](const FrontierPoint& p) {
        return p.tam_width == width && p.max_power == max_power;
      });
  check_invariant(found != points.end(), "frontier has no such cell");
  return *found;
}

std::string FrontierResult::to_csv() const {
  BudgetColumns columns;
  columns.include(points);
  const bool replan = !replanned_from.empty();
  std::vector<std::string> own = {"total_combinations", "cache_hits",
                                  "pruned", "pareto"};
  if (replan) own.insert(own.begin() + 3, "reused");
  std::ostringstream out;
  CsvWriter csv(out, columns.csv_header(own));
  for (const FrontierPoint& p : points) {
    own = {std::to_string(p.total_combinations), std::to_string(p.cache_hits),
           std::to_string(p.pruned), p.pareto ? "1" : "0"};
    if (replan) own.insert(own.begin() + 3, std::to_string(p.reused));
    csv.write_row(columns.csv_row(*this, p, own));
  }
  return out.str();
}

std::string FrontierResult::to_json() const {
  BudgetColumns columns;
  columns.include(points);
  const bool replan = !replanned_from.empty();
  const char* schema =
      columns.window ? "v4" : (replan ? "v3" : (columns.power ? "v2" : "v1"));
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"msoc-frontier-" << schema << "\",\n"
     << "  \"soc\": \"" << json_escape(soc_name) << "\",\n"
     << "  \"digest\": \"" << json_escape(digest) << "\",\n";
  if (replan) write_replan_json(os, replanned_from, reused, dirty_partitions);
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
    columns.write_json(os, p);
    os << "\"wall_ms\": " << round_trip_double(p.wall_ms) << ", ";
    if (!p.ok()) {
      os << "\"error\": \"" << json_escape(p.error) << "\"}";
      continue;
    }
    write_best_json(os, p);
    os << "\"cache_hits\": " << p.cache_hits << ", ";
    if (replan) os << "\"reused\": " << p.reused << ", ";
    os << "\"pruned\": " << p.pruned << ", "
       << "\"pareto\": " << (p.pareto ? "true" : "false") << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace msoc::plan
