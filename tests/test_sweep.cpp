#include "msoc/plan/sweep.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <limits>

#include "msoc/common/error.hpp"
#include "msoc/plan/result_cache.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "powered_fixtures.hpp"

namespace msoc::plan {
namespace {

/// A small, fast config: one SOC, two widths, one weight.
SweepConfig small_config() {
  SweepConfig config;
  config.socs.push_back(soc::make_d695m());
  config.frontier.widths = {24, 32};
  config.time_weights = {0.5};
  return config;
}

/// The sweep's cases in document order.
std::vector<FrontierPoint> cases(const SweepResult& result) {
  std::vector<FrontierPoint> points;
  result.for_each_case([&](const FrontierResult&, const FrontierPoint& p) {
    points.push_back(p);
  });
  return points;
}

TEST(Sweep, CaseCountIsCrossProduct) {
  SweepConfig config = small_config();
  EXPECT_EQ(config.case_count(), 2u);
  config.socs.push_back(soc::make_p93791m());
  config.time_weights = {0.25, 0.75};
  EXPECT_EQ(config.case_count(), 8u);
}

TEST(Sweep, RowsInCrossProductOrder) {
  const SweepResult result = run_sweep(small_config());
  ASSERT_EQ(result.series.size(), 1u);
  EXPECT_EQ(result.series[0].soc_name, "d695m");
  EXPECT_EQ(result.series[0].algorithm, "cost_optimizer");
  const std::vector<FrontierPoint> points = cases(result);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].tam_width, 24);
  EXPECT_EQ(points[1].tam_width, 32);
  for (const FrontierPoint& p : points) {
    EXPECT_TRUE(p.ok()) << p.error;
    EXPECT_GT(p.best.total, 0.0);
    EXPECT_GT(p.t_max, 0u);
    EXPECT_LE(p.best.c_time, 100.0 + 1e-9);
  }
}

TEST(Sweep, DuplicateAndUnsortedRungsKeepConfigOrder) {
  SweepConfig config = small_config();
  config.frontier.widths = {32, 24, 32};
  config.time_weights = {0.25, 0.75};
  const SweepResult result = run_sweep(config);
  const std::vector<FrontierPoint> points = cases(result);
  ASSERT_EQ(points.size(), config.case_count());
  // widths x weights: the engine solved each width once, the document
  // repeats the duplicate rung where the config lists it.
  const int want[] = {32, 32, 24, 24, 32, 32};
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].tam_width, want[i]) << i;
    EXPECT_EQ(points[i].best.total, points[i % 2 + 4].best.total) << i;
  }
  EXPECT_EQ(result.series[0].points.size(), 2u);
}

TEST(Sweep, JobsDoNotChangeResults) {
  SweepConfig config = small_config();
  config.frontier.jobs = 1;
  const SweepResult serial = run_sweep(config);
  config.frontier.jobs = 4;
  const SweepResult parallel = run_sweep(config);
  const std::vector<FrontierPoint> a = cases(serial);
  const std::vector<FrontierPoint> b = cases(parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].best.label, b[i].best.label);
    EXPECT_EQ(a[i].best.total, b[i].best.total);
    EXPECT_EQ(a[i].best.test_time, b[i].best.test_time);
    EXPECT_EQ(a[i].evaluations, b[i].evaluations);
  }
}

TEST(Sweep, InfeasibleCaseRecordedNotFatal) {
  SweepConfig config = small_config();
  config.frontier.widths = {8, 32};  // analog core D needs 10 wires
  const std::vector<FrontierPoint> points = cases(run_sweep(config));
  ASSERT_EQ(points.size(), 2u);
  EXPECT_FALSE(points[0].ok());
  EXPECT_FALSE(points[0].error.empty());
  EXPECT_TRUE(points[1].ok());
}

TEST(Sweep, ExhaustiveMatchesHeuristicOrBetter) {
  SweepConfig config = small_config();
  config.frontier.widths = {32};
  config.frontier.exhaustive = true;
  const SweepResult exhaustive = run_sweep(config);
  config.frontier.exhaustive = false;
  const SweepResult heuristic = run_sweep(config);
  const std::vector<FrontierPoint> e = cases(exhaustive);
  const std::vector<FrontierPoint> h = cases(heuristic);
  ASSERT_EQ(e.size(), 1u);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(exhaustive.series[0].algorithm, "exhaustive");
  EXPECT_LE(e[0].best.total, h[0].best.total + 1e-9);
  EXPECT_LE(h[0].evaluations, e[0].evaluations);
}

TEST(Sweep, EmptyConfigRejected) {
  SweepConfig config;
  EXPECT_THROW((void)run_sweep(config), InfeasibleError);
  config = small_config();
  config.frontier.widths.clear();
  EXPECT_THROW((void)run_sweep(config), InfeasibleError);
}

TEST(Sweep, CsvHasHeaderAndOneLinePerCase) {
  const SweepResult result = run_sweep(small_config());
  const std::string csv = result.to_csv();
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1u + cases(result).size());
  EXPECT_NE(csv.find("soc,tam_width,w_time,algorithm"), std::string::npos);
  EXPECT_NE(csv.find("d695m"), std::string::npos);
}

TEST(Sweep, JsonCarriesSchemaAndCases) {
  const SweepResult result = run_sweep(small_config());
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"schema\": \"msoc-sweep-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"soc\": \"d695m\""), std::string::npos);
  EXPECT_NE(json.find("\"tam_width\": 24"), std::string::npos);
  EXPECT_NE(json.find("\"best\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  long braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Sweep, CacheMakesSecondSweepEvaluationFree) {
  // Per-process dir: gtest's TempDir is plain /tmp on Linux, and
  // concurrent suite runs (e.g. two build trees) must not share it.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("msoc_sweep_cache_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  SweepConfig config = small_config();
  ResultCache cold_cache(dir.string());
  config.frontier.cache = &cold_cache;
  const std::vector<FrontierPoint> cold = cases(run_sweep(config));
  ResultCache warm_cache(dir.string());
  config.frontier.cache = &warm_cache;
  const std::vector<FrontierPoint> warm = cases(run_sweep(config));
  ASSERT_EQ(cold.size(), warm.size());
  int cold_evaluations = 0;
  for (std::size_t i = 0; i < cold.size(); ++i) {
    cold_evaluations += cold[i].evaluations;
    EXPECT_EQ(warm[i].evaluations, 0);  // every cell was cached
    EXPECT_EQ(warm[i].best.label, cold[i].best.label);
    EXPECT_EQ(warm[i].best.total, cold[i].best.total);
    EXPECT_EQ(warm[i].best.test_time, cold[i].best.test_time);
    EXPECT_EQ(warm[i].t_max, cold[i].t_max);
  }
  EXPECT_GT(cold_evaluations, 0);
  // The msoc-cache-v4 store shards by digest prefix: flush() appends
  // to one journal.wal per shard directory, no top-level files.
  std::size_t shard_dirs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ASSERT_TRUE(entry.is_directory()) << entry.path();
    EXPECT_EQ(entry.path().filename().string().size(), 2u);
    EXPECT_TRUE(std::filesystem::is_regular_file(entry.path() /
                                                 "journal.wal"));
    ++shard_dirs;
  }
  EXPECT_EQ(shard_dirs, 1u);  // small_config sweeps one SOC
}

TEST(Sweep, DefaultBenchmarkSweepShape) {
  const SweepConfig config = default_benchmark_sweep();
  ASSERT_EQ(config.socs.size(), 2u);
  EXPECT_EQ(config.socs[0].name(), "p93791m");
  EXPECT_EQ(config.socs[1].name(), "d695m");
  EXPECT_FALSE(config.frontier.widths.empty());
  EXPECT_FALSE(config.time_weights.empty());
}

// --- Power ladder through the sweep. ---

/// small_config with its SOC swapped for the shared powered fixture.
SweepConfig powered_config() {
  SweepConfig config = small_config();
  config.socs[0] = soc::powered_d695m(1.5);
  return config;
}

TEST(SweepPower, PowerLadderMultipliesCasesInOrder) {
  SweepConfig config = powered_config();
  config.frontier.max_powers = {0.0, -1.0};
  EXPECT_EQ(config.case_count(), 4u);  // 2 widths x 2 powers x 1 weight
  const SweepResult result = run_sweep(config);
  const std::vector<FrontierPoint> points = cases(result);
  ASSERT_EQ(points.size(), 4u);
  // socs x widths x powers x weights order.
  EXPECT_EQ(points[0].tam_width, 24);
  EXPECT_EQ(points[0].max_power, 0.0);
  EXPECT_EQ(points[1].tam_width, 24);
  EXPECT_EQ(points[1].max_power, config.socs[0].max_power());
  EXPECT_EQ(points[2].tam_width, 32);
  EXPECT_EQ(points[2].max_power, 0.0);
  for (const FrontierPoint& p : points) {
    ASSERT_TRUE(p.ok()) << p.error;
    // The constrained rows can only be as fast as the unconstrained
    // baseline normalizes them to.
    EXPECT_LE(p.best.c_time, 100.0 + 1e-9);
  }
  // v2 documents; the unconstrained config still writes v1.
  EXPECT_NE(result.to_json().find("\"schema\": \"msoc-sweep-v2\""),
            std::string::npos);
  EXPECT_NE(result.to_csv().find("soc,tam_width,max_power"),
            std::string::npos);
  const SweepResult plain = run_sweep(small_config());
  EXPECT_NE(plain.to_json().find("\"schema\": \"msoc-sweep-v1\""),
            std::string::npos);
  EXPECT_EQ(plain.to_json().find("max_power"), std::string::npos);
}

TEST(SweepPower, NonFiniteBudgetsRejectedUpFront) {
  // NaN passes every sign test (NaN < 0.0 is false), so without an
  // explicit isfinite gate it would flow into the cache's EntryKey and
  // break its strict weak ordering.
  SweepConfig config = powered_config();
  config.frontier.max_powers = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)run_sweep(config), Error);
  config.frontier.max_powers = {std::numeric_limits<double>::infinity()};
  EXPECT_THROW((void)run_sweep(config), Error);
  config.frontier.max_powers = {-1.0};  // negative = inherit stays legal
  EXPECT_NO_THROW((void)run_sweep(config));
}

TEST(SweepPower, InfeasibleBudgetIsSoftPerRow) {
  SweepConfig config = powered_config();
  config.frontier.max_powers = {1.0};  // below every test's power
  const std::vector<FrontierPoint> points = cases(run_sweep(config));
  ASSERT_EQ(points.size(), 2u);
  for (const FrontierPoint& p : points) {
    EXPECT_FALSE(p.ok());
    EXPECT_NE(p.error.find("power"), std::string::npos);
  }
}

TEST(SweepPower, FailedSeriesCarriesResolvedBudgets) {
  // A digital-only SOC fails its whole series in the engine's
  // constructor; its cases still say which budget and window they ran
  // under, so a windowed sweep writes the v4 documents.
  const soc::Soc powered = soc::powered_d695m(1.5);
  soc::Soc digital(powered.name());
  for (const soc::DigitalCore& core : powered.digital_cores()) {
    digital.add_digital(core);
  }
  digital.set_max_power(powered.max_power());
  SweepConfig config = small_config();
  config.socs[0] = digital;
  config.frontier.packing.window_cycles = 4096;
  config.frontier.packing.window_limit = 400.0;
  const SweepResult result = run_sweep(config);
  for (const FrontierPoint& p : cases(result)) {
    EXPECT_FALSE(p.ok());
    EXPECT_EQ(p.max_power, digital.max_power());
    EXPECT_EQ(p.window_cycles, 4096u);
    EXPECT_EQ(p.window_limit, 400.0);
  }
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"schema\": \"msoc-sweep-v4\""), std::string::npos);
  EXPECT_NE(json.find("\"window_cycles\": 4096"), std::string::npos);
  EXPECT_NE(result.to_csv().find(",window_cycles,window_limit,"),
            std::string::npos);
}

}  // namespace
}  // namespace msoc::plan
