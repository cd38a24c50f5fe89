// Incremental re-planning (FrontierEngine::replan, SweepConfig::
// replan_from): after an ECO edit, the engine must splice every
// provably-unchanged partition makespan from the baseline store and
// stay bit-identical to a cold solve of the new revision.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/journal.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/plan/sweep.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/digest.hpp"
#include "powered_fixtures.hpp"

namespace msoc::plan {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("msoc_replan_" + std::to_string(::getpid())) /
                       name;
  fs::remove_all(dir);
  return dir.string();
}

/// d695m with one analog test lengthened — a content ECO that dirties
/// every sharing partition (each partition covers all analog cores).
soc::Soc analog_edited_d695m() {
  const soc::Soc plain = soc::make_d695m();
  soc::Soc out(plain.name());
  for (const soc::DigitalCore& core : plain.digital_cores()) {
    out.add_digital(core);
  }
  for (std::size_t i = 0; i < plain.analog_count(); ++i) {
    soc::AnalogCore copy = plain.analog_cores()[i];
    if (i == 0) copy.tests.front().cycles += 500;
    out.add_analog(copy);
  }
  return out;
}

/// The planning OUTPUT must match bit for bit; counters (evaluations,
/// cache_hits, reused) and wall clocks legitimately differ.
void expect_same_plan(const FrontierResult& actual,
                      const FrontierResult& expected) {
  ASSERT_EQ(actual.points.size(), expected.points.size());
  for (std::size_t i = 0; i < expected.points.size(); ++i) {
    const FrontierPoint& a = actual.points[i];
    const FrontierPoint& e = expected.points[i];
    EXPECT_EQ(a.tam_width, e.tam_width) << i;
    EXPECT_EQ(a.max_power, e.max_power) << i;
    EXPECT_EQ(a.error, e.error) << i;
    EXPECT_EQ(a.best.partition, e.best.partition) << i;
    EXPECT_EQ(a.best.label, e.best.label) << i;
    EXPECT_EQ(a.best.test_time, e.best.test_time) << i;
    EXPECT_EQ(a.best.total, e.best.total) << i;  // exact, not near
    EXPECT_EQ(a.best.c_time, e.best.c_time) << i;
    EXPECT_EQ(a.best.c_area, e.best.c_area) << i;
    EXPECT_EQ(a.t_max, e.t_max) << i;
    EXPECT_EQ(a.pareto, e.pareto) << i;
    EXPECT_EQ(a.total_combinations, e.total_combinations) << i;
  }
  EXPECT_EQ(actual.time_monotone, expected.time_monotone);
}

int total_evaluations(const FrontierResult& result) {
  int total = 0;
  for (const FrontierPoint& point : result.points) {
    total += point.evaluations;
  }
  return total;
}

FrontierOptions cached_options(ResultCache* cache,
                               std::vector<int> widths = {16, 24}) {
  FrontierOptions options;
  options.widths = std::move(widths);
  options.cache = cache;
  return options;
}

TEST(Replan, UnchangedSocAnswersWithoutEvaluations) {
  const soc::Soc soc = soc::make_d695m();
  ResultCache cache(fresh_dir("unchanged"));

  FrontierEngine cold_engine(soc, cached_options(&cache));
  const FrontierResult cold = cold_engine.run();
  cache.flush();

  ResultCache warm_cache(cache.directory());
  FrontierEngine warm_engine(soc, cached_options(&warm_cache));
  const FrontierResult replanned = warm_engine.replan(cold.digest);

  EXPECT_EQ(replanned.replanned_from, cold.digest);
  EXPECT_EQ(replanned.dirty_partitions, 0);
  // Current digest == baseline digest, so every answer is an ordinary
  // snapshot hit — nothing needs the cross-digest splice.
  EXPECT_EQ(total_evaluations(replanned), 0);
  EXPECT_GT(replanned.cache_hits, 0);
  expect_same_plan(replanned, cold);
}

TEST(Replan, PowerAnnotationEditSplicesUnconstrainedMakespans) {
  // The motivating ECO: annotate powers on a previously bare SOC.  The
  // SOC digest moves, but unconstrained makespans cannot observe power
  // annotations, so the baseline store answers every cell.
  const soc::Soc baseline = soc::make_d695m();
  soc::Soc revision = soc::powered_d695m(2.0);
  const std::string cache_dir = fresh_dir("power_annotation");
  {
    ResultCache cache(cache_dir);
    FrontierOptions options = cached_options(&cache);
    options.max_powers = {0.0};
    FrontierEngine engine(baseline, options);
    (void)engine.run();
    cache.flush();
  }
  ASSERT_NE(soc::digest_hex(baseline), soc::digest_hex(revision));

  // Fresh ResultCache: the baseline's inventory must come back from
  // the v3 file header, not from this process's memory.
  ResultCache cache(cache_dir);
  FrontierOptions options = cached_options(&cache);
  options.max_powers = {0.0};
  FrontierEngine engine(revision, options);
  const FrontierResult replanned =
      engine.replan(soc::digest_hex(baseline));

  EXPECT_EQ(replanned.replanned_from, soc::digest_hex(baseline));
  EXPECT_EQ(replanned.dirty_partitions, 0);
  EXPECT_EQ(total_evaluations(replanned), 0);
  EXPECT_GT(replanned.reused, 0);

  FrontierOptions cold_options;
  cold_options.widths = {16, 24};
  cold_options.max_powers = {0.0};
  FrontierEngine cold_engine(revision, cold_options);
  expect_same_plan(replanned, cold_engine.run());
}

TEST(Replan, BudgetOnlyEditSplicesBothPowerRungs) {
  // Moving Soc::max_power alone changes the SOC digest but no core;
  // the budget is an explicit EntryKey coordinate, so both the
  // unconstrained rung and an explicit constrained rung splice.
  const soc::Soc baseline = soc::powered_d695m(2.0);
  soc::Soc revision = soc::powered_d695m(2.0);
  revision.set_max_power(baseline.max_power() * 1.5);
  ASSERT_NE(soc::digest_hex(baseline), soc::digest_hex(revision));

  const double explicit_budget = baseline.max_power();
  const std::string cache_dir = fresh_dir("budget_only");
  {
    ResultCache cache(cache_dir);
    FrontierOptions options = cached_options(&cache);
    options.max_powers = {0.0, explicit_budget};
    FrontierEngine engine(baseline, options);
    (void)engine.run();
    cache.flush();
  }

  ResultCache cache(cache_dir);
  FrontierOptions options = cached_options(&cache);
  options.max_powers = {0.0, explicit_budget};
  FrontierEngine engine(revision, options);
  const FrontierResult replanned =
      engine.replan(soc::digest_hex(baseline));

  EXPECT_EQ(replanned.dirty_partitions, 0);
  EXPECT_EQ(total_evaluations(replanned), 0);
  EXPECT_GT(replanned.reused, 0);

  FrontierOptions cold_options;
  cold_options.widths = {16, 24};
  cold_options.max_powers = {0.0, explicit_budget};
  FrontierEngine cold_engine(revision, cold_options);
  expect_same_plan(replanned, cold_engine.run());
}

TEST(Replan, ContentEditRepacksDirtyPartitions) {
  // A content edit on an analog core dirties every sharing partition
  // (each one contains that core), so the replan must degrade to a
  // full re-pack — correctness over thrift — and still match cold.
  const soc::Soc baseline = soc::make_d695m();
  const soc::Soc revision = analog_edited_d695m();
  const std::string cache_dir = fresh_dir("content_edit");
  {
    ResultCache cache(cache_dir);
    FrontierOptions options = cached_options(&cache);
    FrontierEngine engine(baseline, options);
    (void)engine.run();
    cache.flush();
  }

  ResultCache cache(cache_dir);
  FrontierEngine engine(revision, cached_options(&cache));
  const FrontierResult replanned =
      engine.replan(soc::digest_hex(baseline));

  FrontierOptions cold_options;
  cold_options.widths = {16, 24};
  FrontierEngine cold_engine(revision, cold_options);
  const FrontierResult cold = cold_engine.run();

  EXPECT_EQ(replanned.replanned_from, soc::digest_hex(baseline));
  EXPECT_GT(replanned.dirty_partitions, 0);
  EXPECT_EQ(replanned.reused, 0);
  EXPECT_EQ(replanned.cache_hits, 0);
  EXPECT_EQ(total_evaluations(replanned), total_evaluations(cold));
  expect_same_plan(replanned, cold);
}

TEST(Replan, MissingBaselineFallsBackToColdPlanning) {
  const soc::Soc soc = soc::make_d695m();
  ResultCache cache(fresh_dir("missing_baseline"));
  FrontierEngine engine(soc, cached_options(&cache));
  const FrontierResult cold = engine.run();

  // No store was ever flushed for this digest: replan must warn, plan
  // cold, and leave the provenance fields empty.
  const FrontierResult fallback = engine.replan("00000000deadbeef");
  EXPECT_TRUE(fallback.replanned_from.empty());
  EXPECT_EQ(fallback.reused, 0);
  EXPECT_EQ(fallback.dirty_partitions, 0);
  expect_same_plan(fallback, cold);
}

TEST(Replan, StoreWithoutInventoryFallsBackToCold) {
  // A store with no digest inventory cannot seed a diff; replan must
  // fall back instead of guessing.
  const soc::Soc soc = soc::make_d695m();
  const std::string dir = fresh_dir("no_inventory_store");
  const std::string baseline_digest = "00000000deadbeef";
  fs::create_directories(fs::path(dir) / "00");
  std::ofstream(fs::path(dir) / "00" / (baseline_digest + ".snap"),
                std::ios::binary)
      << encode_journal_header(0)
      << encode_journal_record("{\"op\": \"meta\", \"digest\": \"" +
                               baseline_digest + "\", \"soc_name\": \"old\"}")
      << encode_journal_record(
             "{\"op\": \"entry\", \"digest\": \"" + baseline_digest +
             "\", \"width\": 16, \"packing\": \"p\", \"partition\": "
             "\"q\", \"label\": \"l\", \"test_time\": 77}");

  ResultCache cache(dir);
  FrontierEngine engine(soc, cached_options(&cache));
  const FrontierResult fallback = engine.replan(baseline_digest);
  EXPECT_EQ(cache.corrupt_files(), 0);  // a valid store, just no inventory
  EXPECT_EQ(cache.lookup(baseline_digest, ResultCache::EntryKey(16, 0.0, "p", "q")),
            std::optional<Cycles>(77));  // ...and it was read
  EXPECT_TRUE(fallback.replanned_from.empty());

  FrontierOptions cold_options;
  cold_options.widths = {16, 24};
  FrontierEngine cold_engine(soc, cold_options);
  expect_same_plan(fallback, cold_engine.run());
}

TEST(Replan, NoCacheFallsBackToColdPlanning) {
  const soc::Soc soc = soc::make_d695m();
  FrontierOptions options;
  options.widths = {16, 24};
  FrontierEngine engine(soc, options);
  const FrontierResult fallback = engine.replan("00000000deadbeef");
  EXPECT_TRUE(fallback.replanned_from.empty());
  FrontierEngine cold_engine(soc, options);
  expect_same_plan(fallback, cold_engine.run());
}

TEST(Replan, InMemoryCacheSplicesAcrossEngines) {
  // The splice path must not depend on disk: one in-memory cache
  // shared by two engines (flush merges the overlay) is enough.
  const soc::Soc baseline = soc::make_d695m();
  const soc::Soc revision = soc::powered_d695m(2.0);
  ResultCache cache;
  FrontierOptions options = cached_options(&cache);
  options.max_powers = {0.0};
  FrontierEngine baseline_engine(baseline, options);
  (void)baseline_engine.run();
  cache.flush();

  FrontierEngine engine(revision, options);
  const FrontierResult replanned =
      engine.replan(soc::digest_hex(baseline));
  EXPECT_EQ(total_evaluations(replanned), 0);
  EXPECT_GT(replanned.reused, 0);
}

TEST(Replan, SerializersCarryTheProvenance) {
  const soc::Soc soc = soc::make_d695m();
  ResultCache cache(fresh_dir("serializers"));
  FrontierEngine cold_engine(soc, cached_options(&cache));
  const FrontierResult cold = cold_engine.run();
  cache.flush();

  // Non-replan documents must keep the pre-replan schema...
  EXPECT_NE(cold.to_json().find("\"msoc-frontier-v1\""), std::string::npos);
  EXPECT_EQ(cold.to_json().find("replanned_from"), std::string::npos);
  EXPECT_EQ(cold.to_csv().find("reused"), std::string::npos);

  ResultCache warm_cache(cache.directory());
  FrontierEngine engine(soc, cached_options(&warm_cache));
  const FrontierResult replanned = engine.replan(cold.digest);

  // ...while replan documents declare v3 plus the provenance fields.
  const std::string json = replanned.to_json();
  EXPECT_NE(json.find("\"msoc-frontier-v3\""), std::string::npos);
  EXPECT_NE(json.find("\"replanned_from\": \"" + cold.digest + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"dirty_partitions\": 0"), std::string::npos);
  const std::string csv = replanned.to_csv();
  EXPECT_NE(csv.find(",reused,"), std::string::npos);
}

TEST(ReplanSweep, SplicesEveryCaseAndReportsCacheStats) {
  const soc::Soc baseline = soc::make_d695m();
  SweepConfig config;
  config.socs = {baseline};
  config.frontier.widths = {16, 24};
  config.frontier.max_powers = {0.0};
  config.time_weights = {0.25, 0.75};
  const std::string dir = fresh_dir("sweep_replan");
  ResultCache cold_cache(dir);
  config.frontier.cache = &cold_cache;
  const SweepResult cold = run_sweep(config);
  ASSERT_TRUE(cold.cache_used);
  EXPECT_GT(cold.cache_records, 0);
  EXPECT_TRUE(cold.replanned_from.empty());

  config.socs = {soc::powered_d695m(2.0)};
  config.replan_from = soc::digest_hex(baseline);
  ResultCache warm_cache(dir);
  config.frontier.cache = &warm_cache;
  const SweepResult replanned = run_sweep(config);

  EXPECT_EQ(replanned.replanned_from, soc::digest_hex(baseline));
  EXPECT_GT(replanned.reused, 0);
  EXPECT_EQ(replanned.dirty_partitions, 0);
  std::vector<FrontierPoint> cold_cases;
  cold.for_each_case([&](const FrontierResult&, const FrontierPoint& p) {
    cold_cases.push_back(p);
  });
  std::size_t i = 0;
  replanned.for_each_case([&](const FrontierResult&, const FrontierPoint& p) {
    ASSERT_LT(i, cold_cases.size());
    const FrontierPoint& baseline_case = cold_cases[i];
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_EQ(p.evaluations, 0) << i;
    EXPECT_GT(p.reused, 0) << i;
    // The plan itself must match the cold sweep of the baseline —
    // power annotations are invisible to unconstrained packing.
    EXPECT_EQ(p.best.test_time, baseline_case.best.test_time) << i;
    EXPECT_EQ(p.best.label, baseline_case.best.label) << i;
    EXPECT_EQ(p.best.total, baseline_case.best.total) << i;
    ++i;
  });
  EXPECT_EQ(i, cold_cases.size());

  const std::string json = replanned.to_json();
  EXPECT_NE(json.find("\"msoc-sweep-v3\""), std::string::npos);
  EXPECT_NE(json.find("\"replanned_from\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"corrupt_files\": 0"), std::string::npos);
  EXPECT_NE(replanned.to_csv().find(",reused,"), std::string::npos);
}

TEST(ReplanSweep, ConfigValidationRejectsUnusableReplans) {
  SweepConfig config;
  config.socs = {soc::make_d695m()};
  config.frontier.widths = {16};
  config.replan_from = "00000000deadbeef";
  EXPECT_THROW((void)run_sweep(config), Error);  // no cache

  ResultCache cache(fresh_dir("sweep_validation"));
  config.frontier.cache = &cache;
  config.socs.push_back(soc::make_p93791m());
  EXPECT_THROW((void)run_sweep(config), Error);  // two SOCs
}

}  // namespace
}  // namespace msoc::plan
