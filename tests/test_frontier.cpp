#include "msoc/plan/frontier.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "msoc/common/error.hpp"
#include "msoc/common/fileio.hpp"
#include "msoc/plan/optimizer.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/digest.hpp"
#include "powered_fixtures.hpp"

namespace msoc::plan {
namespace {

namespace fs = std::filesystem;

/// Per-process scratch dir: gtest's TempDir is plain /tmp on Linux, so
/// concurrent suite runs (e.g. two build trees) must not share names.
std::string fresh_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("msoc_frontier_" + std::to_string(::getpid())) /
                       name;
  fs::remove_all(dir);
  return dir.string();
}

FrontierOptions d695m_options(std::vector<int> widths = {16, 24, 32}) {
  FrontierOptions options;
  options.widths = std::move(widths);
  return options;
}

/// The per-width ground truth the engine must reproduce bit-for-bit.
CombinationCost heuristic_best(const soc::Soc& soc, int width,
                               double w_time, bool exhaustive,
                               double epsilon, Cycles* t_max_out) {
  PlanningProblem problem;
  problem.soc = &soc;
  problem.tam_width = width;
  problem.weights = {w_time, 1.0 - w_time};
  CostModel model(problem);
  if (t_max_out != nullptr) *t_max_out = model.t_max();
  if (exhaustive) return optimize_exhaustive(model).best;
  HeuristicOptions options;
  options.epsilon = epsilon;
  return optimize_cost_heuristic(model, options).best;
}

TEST(Frontier, BitIdenticalToPerWidthHeuristic) {
  const soc::Soc soc = soc::make_d695m();
  FrontierEngine engine(soc, d695m_options());
  const FrontierResult result = engine.run();
  ASSERT_EQ(result.points.size(), 3u);
  for (const FrontierPoint& point : result.points) {
    ASSERT_TRUE(point.ok()) << point.error;
    Cycles t_max = 0;
    const CombinationCost expected = heuristic_best(
        soc, point.tam_width, 0.5, /*exhaustive=*/false, 0.0, &t_max);
    EXPECT_EQ(point.best.partition, expected.partition);
    EXPECT_EQ(point.best.label, expected.label);
    EXPECT_EQ(point.best.test_time, expected.test_time);
    EXPECT_EQ(point.best.total, expected.total);  // exact, not near
    EXPECT_EQ(point.best.c_time, expected.c_time);
    EXPECT_EQ(point.best.c_area, expected.c_area);
    EXPECT_EQ(point.t_max, t_max);
  }
}

TEST(Frontier, BitIdenticalToPerWidthExhaustive) {
  const soc::Soc soc = soc::make_d695m();
  FrontierOptions options = d695m_options({24, 32});
  options.exhaustive = true;
  FrontierEngine engine(soc, options);
  const FrontierResult result = engine.run();
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.algorithm, "exhaustive");
  for (const FrontierPoint& point : result.points) {
    ASSERT_TRUE(point.ok());
    EXPECT_EQ(point.pruned, 0);  // pruning is a heuristic-path feature
    const CombinationCost expected = heuristic_best(
        soc, point.tam_width, 0.5, /*exhaustive=*/true, 0.0, nullptr);
    EXPECT_EQ(point.best.partition, expected.partition);
    EXPECT_EQ(point.best.total, expected.total);
    EXPECT_EQ(point.best.test_time, expected.test_time);
  }
}

TEST(Frontier, EpsilonMatchesHeuristic) {
  const soc::Soc soc = soc::make_d695m();
  FrontierOptions options = d695m_options({32});
  options.epsilon = 10.0;
  FrontierEngine engine(soc, options);
  const FrontierResult result = engine.run();
  ASSERT_EQ(result.points.size(), 1u);
  const CombinationCost expected =
      heuristic_best(soc, 32, 0.5, /*exhaustive=*/false, 10.0, nullptr);
  EXPECT_EQ(result.points[0].best.partition, expected.partition);
  EXPECT_EQ(result.points[0].best.total, expected.total);
}

TEST(Frontier, TestTimeMonotoneOnBenchmarks) {
  // The acceptance property: widening the budget never lengthens the
  // best plan's test time (paper Tables 3-4 rely on this shape).
  for (const soc::Soc& soc : {soc::make_d695m(), soc::make_p93791m()}) {
    FrontierEngine engine(soc, d695m_options({16, 24, 32, 48, 64}));
    const FrontierResult result = engine.run();
    EXPECT_TRUE(result.time_monotone) << soc.name();
    Cycles previous = 0;
    bool first = true;
    for (const FrontierPoint& point : result.points) {
      ASSERT_TRUE(point.ok());
      if (!first) {
        EXPECT_LE(point.best.test_time, previous);
      }
      previous = point.best.test_time;
      first = false;
    }
    // The narrowest feasible width always starts the Pareto frontier.
    EXPECT_TRUE(result.points.front().pareto);
  }
}

TEST(Frontier, JobsDoNotChangeResultsOrCounts) {
  const soc::Soc soc = soc::make_d695m();
  FrontierOptions serial = d695m_options();
  FrontierOptions parallel = d695m_options();
  parallel.jobs = 4;
  const FrontierResult a = FrontierEngine(soc, serial).run();
  const FrontierResult b = FrontierEngine(soc, parallel).run();
  ASSERT_EQ(a.points.size(), b.points.size());
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.pruned, b.pruned);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].best.partition, b.points[i].best.partition);
    EXPECT_EQ(a.points[i].best.total, b.points[i].best.total);
    EXPECT_EQ(a.points[i].best.test_time, b.points[i].best.test_time);
    EXPECT_EQ(a.points[i].evaluations, b.points[i].evaluations);
    EXPECT_EQ(a.points[i].pruned, b.points[i].pruned);
  }
}

TEST(Frontier, WidthBelowAnalogMinimumRecordedNotFatal) {
  // d695m's widest analog wrapper needs 10 wires: width 4 is
  // unsatisfiable and must land as an error point, not an exception.
  const soc::Soc soc = soc::make_d695m();
  FrontierEngine engine(soc, d695m_options({4, 32}));
  const FrontierResult result = engine.run();
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_FALSE(result.points[0].ok());
  EXPECT_NE(result.points[0].error.find("TAM wires"), std::string::npos);
  EXPECT_EQ(result.points[0].evaluations, 0);
  EXPECT_TRUE(result.points[1].ok());
  EXPECT_TRUE(result.time_monotone);  // error points don't break it
}

TEST(Frontier, AllWidthsInfeasibleStillReturns) {
  const soc::Soc soc = soc::make_d695m();
  FrontierEngine engine(soc, d695m_options({1, 2}));
  const FrontierResult result = engine.run();
  ASSERT_EQ(result.points.size(), 2u);
  for (const FrontierPoint& point : result.points) {
    EXPECT_FALSE(point.ok());
  }
  EXPECT_EQ(result.evaluations, 0);
}

TEST(Frontier, InvalidOptionsRejected) {
  const soc::Soc soc = soc::make_d695m();
  EXPECT_THROW(FrontierEngine(soc, d695m_options({})), InfeasibleError);
  FrontierOptions negative_epsilon = d695m_options();
  negative_epsilon.epsilon = -1.0;
  EXPECT_THROW(FrontierEngine(soc, negative_epsilon), InfeasibleError);
  EXPECT_THROW(FrontierEngine(soc::make_d695(), d695m_options()),
               InfeasibleError);  // digital-only SOC
}

TEST(Frontier, NonPositiveWidthIsErrorPointNotFatal) {
  // Like the sweep's old per-case behavior: one bad width in the
  // ladder must not poison the valid ones.
  const soc::Soc soc = soc::make_d695m();
  FrontierEngine engine(soc, d695m_options({0, 32}));
  const FrontierResult result = engine.run();
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_FALSE(result.points[0].ok());
  EXPECT_NE(result.points[0].error.find(">= 1"), std::string::npos);
  EXPECT_TRUE(result.points[1].ok());
}

TEST(Frontier, BorrowedParetoTablesAreBitIdentical) {
  const soc::Soc soc = soc::make_d695m();
  const tam::ParetoTables tables = tam::compute_pareto_tables(soc, 64);
  FrontierOptions borrowed = d695m_options();
  borrowed.pareto_tables = &tables;
  const FrontierResult own = FrontierEngine(soc, d695m_options()).run();
  const FrontierResult lent = FrontierEngine(soc, borrowed).run();
  ASSERT_EQ(own.points.size(), lent.points.size());
  EXPECT_EQ(own.evaluations, lent.evaluations);
  for (std::size_t i = 0; i < own.points.size(); ++i) {
    EXPECT_EQ(own.points[i].best.partition, lent.points[i].best.partition);
    EXPECT_EQ(own.points[i].best.total, lent.points[i].best.total);
    EXPECT_EQ(own.points[i].best.test_time, lent.points[i].best.test_time);
  }

  // A table that does not cover the ladder is a caller bug, not a
  // soft error.
  const tam::ParetoTables narrow = tam::compute_pareto_tables(soc, 8);
  FrontierOptions too_narrow = d695m_options();
  too_narrow.pareto_tables = &narrow;
  EXPECT_THROW(FrontierEngine(soc, too_narrow), InfeasibleError);
}

TEST(Frontier, WarmCacheAnswersWithZeroEvaluations) {
  const soc::Soc soc = soc::make_d695m();
  const std::string dir = fresh_dir("frontier_warm");

  ResultCache cold_cache(dir);
  FrontierOptions options = d695m_options();
  options.cache = &cold_cache;
  const FrontierResult cold = FrontierEngine(soc, options).run();
  EXPECT_GT(cold.evaluations, 0);
  EXPECT_EQ(cold.cache_hits, 0);
  cold_cache.flush();

  ResultCache warm_cache(dir);
  options.cache = &warm_cache;
  const FrontierResult warm = FrontierEngine(soc, options).run();
  EXPECT_EQ(warm.evaluations, 0);  // the acceptance criterion
  EXPECT_GT(warm.cache_hits, 0);
  ASSERT_EQ(warm.points.size(), cold.points.size());
  for (std::size_t i = 0; i < warm.points.size(); ++i) {
    EXPECT_EQ(warm.points[i].best.partition, cold.points[i].best.partition);
    EXPECT_EQ(warm.points[i].best.total, cold.points[i].best.total);
    EXPECT_EQ(warm.points[i].best.test_time, cold.points[i].best.test_time);
    EXPECT_EQ(warm.points[i].t_max, cold.points[i].t_max);
  }
}

TEST(Frontier, CorruptCacheFallsBackToRecompute) {
  const soc::Soc soc = soc::make_d695m();

  // Reference cold run (no cache at all).
  const FrontierResult reference =
      FrontierEngine(soc, d695m_options()).run();

  const std::string digest = soc::digest_hex(soc);
  const std::vector<std::string> garbage_files = {
      "{ not json at all",                      // unparseable
      "{\"schema\": \"msoc-cache-v4\", \"dig",  // truncated
      "{\"schema\": \"wrong-schema\", \"digest\": \"" + digest +
          "\", \"entries\": []}",               // wrong schema
      "{\"schema\": \"msoc-cache-v4\", \"digest\": \"beef\", "
      "\"entries\": []}",                       // wrong digest
      "{\"schema\": \"msoc-cache-v4\", \"digest\": \"" + digest +
          "\", \"entries\": [{\"width\": -1, \"packing\": \"p\", "
          "\"partition\": \"q\", \"test_time\": 1}]}",  // bad entry
  };
  for (std::size_t g = 0; g < garbage_files.size(); ++g) {
    const std::string& garbage = garbage_files[g];
    // One directory per variant: flush() journals repairs durably, so
    // a shared directory would leak one iteration's repair into the
    // next iteration's supposedly cold run.
    const std::string dir =
        fresh_dir(("frontier_corrupt_" + std::to_string(g)).c_str());
    // The v4 snapshot of the digest, in its shard directory.
    const std::string shard = dir + "/" + digest.substr(0, 2);
    ensure_directory(shard);
    const std::string cache_file = shard + "/" + digest + ".json";
    write_file_atomic(cache_file, garbage);
    ResultCache cache(dir);
    FrontierOptions options = d695m_options();
    options.cache = &cache;
    const FrontierResult result = FrontierEngine(soc, options).run();
    EXPECT_EQ(cache.corrupt_files(), 1) << garbage;
    EXPECT_EQ(result.cache_hits, 0) << garbage;
    EXPECT_EQ(result.evaluations, reference.evaluations) << garbage;
    ASSERT_EQ(result.points.size(), reference.points.size());
    for (std::size_t i = 0; i < result.points.size(); ++i) {
      EXPECT_EQ(result.points[i].best.total,
                reference.points[i].best.total);
      EXPECT_EQ(result.points[i].best.test_time,
                reference.points[i].best.test_time);
    }
    // Flushing repairs the store: the next run must be fully warm.
    cache.flush();
    ResultCache repaired(dir);
    options.cache = &repaired;
    EXPECT_EQ(FrontierEngine(soc, options).run().evaluations, 0)
        << garbage;
  }
}

TEST(Frontier, StaleCacheEntriesRecomputedNotFatal) {
  // A file that PARSES but stores a wrong baseline is the nastier
  // corruption: it is only detectable once a model gets built.  The
  // engine must fall back to recomputing the width, never abort.
  const soc::Soc soc = soc::make_d695m();
  const FrontierResult reference =
      FrontierEngine(soc, d695m_options({16})).run();

  const std::string dir = fresh_dir("frontier_stale");
  const std::string digest = soc::digest_hex(soc);
  const std::string shard = dir + "/" + digest.substr(0, 2);
  ensure_directory(shard);
  std::vector<std::size_t> everyone(soc.analog_count());
  for (std::size_t i = 0; i < everyone.size(); ++i) everyone[i] = i;
  const mswrap::Partition all_share(
      std::vector<std::vector<std::size_t>>{everyone});
  // An absurdly small all-share baseline: every honest makespan
  // exceeds it, and a fresh pack disagrees with it.
  write_file_atomic(
      shard + "/" + digest + ".json",
      "{\"schema\": \"msoc-cache-v4\", \"digest\": \"" + digest +
          "\", \"soc_name\": \"d695m\", \"entries\": [{\"width\": 16, "
          "\"packing\": \"" + packing_fingerprint(tam::PackingOptions{}) +
          "\", \"partition\": \"" +
          partition_key(soc.analog_cores(), all_share) +
          "\", \"test_time\": 1000}]}");

  ResultCache cache(dir);
  FrontierOptions options = d695m_options({16});
  options.cache = &cache;
  const FrontierResult result = FrontierEngine(soc, options).run();
  EXPECT_EQ(cache.corrupt_files(), 0);  // it parsed fine
  ASSERT_TRUE(result.points[0].ok());
  EXPECT_EQ(result.points[0].best.total, reference.points[0].best.total);
  EXPECT_EQ(result.points[0].best.test_time,
            reference.points[0].best.test_time);
  EXPECT_EQ(result.points[0].t_max, reference.points[0].t_max);
  EXPECT_EQ(result.evaluations, reference.evaluations);

  // The flush overwrites the stale baseline; the next run is warm.
  cache.flush();
  ResultCache repaired(dir);
  options.cache = &repaired;
  EXPECT_EQ(FrontierEngine(soc, options).run().evaluations, 0);
}

TEST(Frontier, ReorderedSocHitsTheSameCache) {
  // Content addressing end to end: a SOC with reshuffled, renamed
  // cores digests identically and must be answered entirely from a
  // cache warmed by the original.
  const soc::Soc original = soc::make_d695m();
  soc::Soc shuffled("shuffled_d695m");
  const auto& digital = original.digital_cores();
  for (auto it = digital.rbegin(); it != digital.rend(); ++it) {
    shuffled.add_digital(*it);
  }
  const auto& analog = original.analog_cores();
  for (auto it = analog.rbegin(); it != analog.rend(); ++it) {
    soc::AnalogCore copy = *it;
    copy.name = copy.name + "x";
    shuffled.add_analog(copy);
  }
  ASSERT_EQ(soc::digest_hex(original), soc::digest_hex(shuffled));

  const std::string dir = fresh_dir("frontier_reorder");
  ResultCache cache(dir);
  FrontierOptions options = d695m_options();
  options.cache = &cache;
  const FrontierResult cold = FrontierEngine(original, options).run();
  EXPECT_GT(cold.evaluations, 0);
  cache.flush();

  ResultCache warm(dir);
  options.cache = &warm;
  const FrontierResult result = FrontierEngine(shuffled, options).run();
  EXPECT_EQ(result.evaluations, 0);
  ASSERT_EQ(result.points.size(), cold.points.size());
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    // Test times are pure integers and must agree exactly; labels and
    // float totals may differ cosmetically under relabeling.
    EXPECT_EQ(result.points[i].best.test_time,
              cold.points[i].best.test_time);
    EXPECT_EQ(result.points[i].t_max, cold.points[i].t_max);
  }
}

TEST(Frontier, JsonAndCsvCarrySchemaAndRows) {
  const soc::Soc soc = soc::make_d695m();
  FrontierEngine engine(soc, d695m_options({4, 32}));
  const FrontierResult result = engine.run();
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"schema\": \"msoc-frontier-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"digest\""), std::string::npos);
  EXPECT_NE(json.find("\"error\""), std::string::npos);   // width 4
  EXPECT_NE(json.find("\"pareto\""), std::string::npos);  // width 32
  const std::string csv = result.to_csv();
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1u + result.points.size());
  EXPECT_NE(csv.find("soc,tam_width"), std::string::npos);
}

// --- Power ladder. ---

using soc::powered_d695m;  // shared fixture (powered_fixtures.hpp)

TEST(FrontierPower, LadderSolvesEveryWidthPowerCell) {
  const soc::Soc soc = powered_d695m(2.0);
  FrontierOptions options = d695m_options({16, 32});
  options.max_powers = {0.0, -1.0, soc.peak_test_power() * 1.2};
  const FrontierResult result = FrontierEngine(soc, options).run();
  // 3 distinct rungs x 2 widths; unconstrained rung first.
  ASSERT_EQ(result.points.size(), 6u);
  EXPECT_EQ(result.points[0].max_power, 0.0);
  EXPECT_EQ(result.points[2].max_power, soc.max_power());  // inherit rung
  for (const FrontierPoint& p : result.points) {
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_LE(p.best.c_time, 100.0 + 1e-9);
  }
  // v2 documents carry the budget; the CSV grows the extra column.
  EXPECT_NE(result.to_json().find("\"schema\": \"msoc-frontier-v2\""),
            std::string::npos);
  EXPECT_NE(result.to_json().find("\"max_power\": "), std::string::npos);
  EXPECT_NE(result.to_csv().find("soc,tam_width,max_power"),
            std::string::npos);
}

TEST(FrontierPower, PerCellResultsBitIdenticalToStandalone) {
  const soc::Soc soc = powered_d695m(1.5);
  FrontierOptions options = d695m_options({24});
  options.max_powers = {-1.0};  // inherit the declared budget
  const FrontierResult result = FrontierEngine(soc, options).run();
  ASSERT_EQ(result.points.size(), 1u);
  ASSERT_TRUE(result.points[0].ok());
  Cycles t_max = 0;
  const CombinationCost standalone =
      heuristic_best(soc, 24, 0.5, false, 0.0, &t_max);
  EXPECT_EQ(result.points[0].best.partition, standalone.partition);
  EXPECT_EQ(result.points[0].best.test_time, standalone.test_time);
  EXPECT_EQ(result.points[0].best.total, standalone.total);
  EXPECT_EQ(result.points[0].t_max, t_max);
}

TEST(FrontierPower, BudgetBelowPeakTestPowerIsErrorPointNotFatal) {
  const soc::Soc soc = powered_d695m(2.0);
  FrontierOptions options = d695m_options({16});
  options.max_powers = {soc.peak_test_power() * 0.5};
  const FrontierResult result = FrontierEngine(soc, options).run();
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_FALSE(result.points[0].ok());
  EXPECT_NE(result.points[0].error.find("power"), std::string::npos);
  EXPECT_EQ(result.evaluations, 0);
}

TEST(FrontierPower, NonFiniteBudgetsRejectedAtConstruction) {
  // NaN passes every sign test (NaN < 0.0 is false), so without an
  // isfinite gate a NaN budget would reach the cache's EntryKey and
  // break its strict weak ordering.
  const soc::Soc soc = powered_d695m(2.0);
  FrontierOptions options = d695m_options({16});
  options.max_powers = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(FrontierEngine(soc, options), Error);
  options.max_powers = {std::numeric_limits<double>::infinity()};
  EXPECT_THROW(FrontierEngine(soc, options), Error);
  options.max_powers = {-1.0};  // negative = inherit stays legal
  EXPECT_NO_THROW(FrontierEngine(soc, options));
}

TEST(FrontierPower, WarmCacheCoversPowerEntriesWithoutCollisions) {
  const soc::Soc soc = powered_d695m(2.0);
  const std::string dir = fresh_dir("frontier_power_warm");

  FrontierOptions options = d695m_options({16, 32});
  options.max_powers = {0.0, soc.max_power()};
  ResultCache cold_cache(dir);
  options.cache = &cold_cache;
  const FrontierResult cold = FrontierEngine(soc, options).run();
  EXPECT_GT(cold.evaluations, 0);
  cold_cache.flush();

  // flush() appends to the shard journal; compact() folds it into a
  // v4 snapshot under <dir>/<pp>/.  Constrained entries carry their
  // budget, and the header carries the SOC's digest inventory so the
  // store can seed a replan.
  const std::string digest = soc::digest_hex(soc);
  const CompactionStats stats = cold_cache.compact();
  EXPECT_EQ(stats.shards_compacted, 1);
  EXPECT_GE(stats.snapshots_written, 1);
  const std::optional<std::string> text = read_file_if_exists(
      (fs::path(dir) / digest.substr(0, 2) / (digest + ".json")).string());
  ASSERT_TRUE(text.has_value());
  EXPECT_NE(text->find("msoc-cache-v4"), std::string::npos);
  EXPECT_NE(text->find("\"max_power\": "), std::string::npos);
  EXPECT_NE(text->find("\"inventory\""), std::string::npos);

  ResultCache warm_cache(dir);
  options.cache = &warm_cache;
  const FrontierResult warm = FrontierEngine(soc, options).run();
  EXPECT_EQ(warm.evaluations, 0);
  ASSERT_EQ(warm.points.size(), cold.points.size());
  for (std::size_t i = 0; i < warm.points.size(); ++i) {
    // Constrained and unconstrained cells answer from DISTINCT entries:
    // identical widths, different budgets, different (correct) times.
    EXPECT_EQ(warm.points[i].max_power, cold.points[i].max_power);
    EXPECT_EQ(warm.points[i].best.test_time, cold.points[i].best.test_time);
    EXPECT_EQ(warm.points[i].t_max, cold.points[i].t_max);
  }
}

}  // namespace
}  // namespace msoc::plan
