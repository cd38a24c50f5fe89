// Pins full p93791m schedules — every test's start, width and duration
// — to values recorded before the packer's admission search was
// reworked (tam::Timeline watermarks and the width skip).  Those
// changes only prune probes whose answers could not be chosen, so the
// schedules must come out exactly as recorded: unconstrained, under a
// peak power budget and under a sliding-window budget, at widths
// 16/32/64, for the singleton and the all-share wrapper partitions.
//
// The recording is tests/data/p93791m_schedule_pins.txt.  On a
// mismatch the fresh rendering is written next to the test binary as
// p93791m_schedule_pins.actual.txt, so `diff` shows which tests moved.
//
// The same packs also pin the packer's deterministic counters
// (admission checks, skyline segments visited, retries, reservations)
// in tests/data/p93791m_counter_pins.txt: a change to how probes are
// run or counted, not only to where tests land, shows up here.
//
// A second recording, tests/data/extra_schedule_pins.txt, pins packs
// the p93791m set barely reaches: d695m and a powered synthetic SOC
// (peak budget plus a sliding window), both at per-test analog
// granularity, at widths 16/32/64 for the singleton and the all-share
// partitions.  pack_best races each placement order with a narrow- and
// a wide-on-tie width preference and skips a candidate that must
// reproduce an earlier one, so these cases exercise both skips:
//  - a race won by a kWide pass: the synthetic SOC at width 32
//    singleton (the p93791m pins have one such race, the differential
//    suite none);
//  - races with a duplicate placement order: every d695m all-share pack
//    and every d695m singleton pack's serialized fallback, where
//    kAnalogFirst lays out the one analog group exactly as
//    kAreaDescending does;
//  - races in which the wide preference breaks a tie for some orders
//    but not others: the synthetic SOC at every width.
// The schedules must not move when candidates are skipped.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/counters.hpp"
#include "msoc/tam/packing.hpp"
#include "msoc/tam/schedule.hpp"

namespace msoc::tam {
namespace {

/// p93791m with deterministic powers (digital cores cycle through
/// 10, 17, ..., 80; analog tests 30, 50, 70, ... per core) and a peak
/// budget of 2.5x the hottest single test, which binds at every width.
soc::Soc powered_p93791m() {
  const soc::Soc plain = soc::make_p93791m();
  soc::Soc out(plain.name());
  int i = 0;
  for (soc::DigitalCore core : plain.digital_cores()) {
    core.power = 10.0 + 7.0 * (i++ % 11);
    out.add_digital(std::move(core));
  }
  for (soc::AnalogCore core : plain.analog_cores()) {
    double power = 30.0;
    for (soc::AnalogTestSpec& test : core.tests) {
      test.power = power;
      power += 20.0;
    }
    out.add_analog(std::move(core));
  }
  out.set_max_power(2.5 * out.peak_test_power());
  return out;
}

/// A powered synthetic SOC with a sliding window: 20 digital cores and
/// four analog cores (several specification tests each), every test
/// drawing 5..60 power units under a peak budget of twice the hottest
/// and a 20000-cycle window averaging at most 1.5x the hottest.
soc::Soc powered_synthetic() {
  soc::SyntheticSocParams params;
  params.digital_cores = 20;
  params.analog_cores = 4;
  params.seed = 12;
  params.min_test_power = 5.0;
  params.max_test_power = 60.0;
  params.power_budget_factor = 2.0;
  soc::Soc out = soc::make_synthetic_soc(params);
  out.set_power_window({20000, 1.5 * out.peak_test_power()});
  return out;
}

void render(std::ostream& out, const std::string& label,
            const Schedule& schedule) {
  out << "# " << label << " makespan " << schedule.makespan() << '\n';
  for (const ScheduledTest& t : schedule.tests) {
    out << t.core_name << (t.test_name.empty() ? "" : ".") << t.test_name
        << " start " << t.start << " width " << t.width << " duration "
        << t.duration << '\n';
  }
}

/// The pinned packs' schedules and, one line per pack, their counters.
struct Rendering {
  std::string schedules;
  std::string counters;
};

/// Packs one labelled case after another into a Rendering.
class Recorder {
 public:
  void pack(const std::string& label, const soc::Soc& soc, int width,
            const AnalogPartition& partition, const PackingOptions& options) {
    reset_pack_counters();
    render(schedules_, label, schedule_soc(soc, width, partition, options));
    const PackCounterSnapshot c = snapshot_pack_counters();
    counters_ << label << " checks " << c.admission_checks << " events "
              << c.events_visited << " retries " << c.retries
              << " reservations " << c.reservations << '\n';
  }

  [[nodiscard]] Rendering rendering() const {
    return {schedules_.str(), counters_.str()};
  }

 private:
  std::ostringstream schedules_;
  std::ostringstream counters_;
};

/// " width W singleton" / " width W all-share".
std::string case_suffix(int width, bool share) {
  return " width " + std::to_string(width) +
         (share ? " all-share" : " singleton");
}

Rendering render_all() {
  const soc::Soc plain = soc::make_p93791m();
  const soc::Soc powered = powered_p93791m();
  Recorder recorder;
  for (const int width : {16, 32, 64}) {
    for (const bool share : {false, true}) {
      const AnalogPartition partition =
          share ? all_share_partition(plain) : singleton_partition(plain);
      const std::string suffix = case_suffix(width, share);
      recorder.pack("unconstrained" + suffix, plain, width, partition, {});
      recorder.pack("peak" + suffix, powered, width, partition, {});
      // Sustained budget alone: peak off, every 20000-cycle window
      // averaging at most 1.5x the hottest single test.
      PackingOptions windowed;
      windowed.max_power = 0.0;
      windowed.window_cycles = 20000;
      windowed.window_limit = 1.5 * powered.peak_test_power();
      recorder.pack("window" + suffix, powered, width, partition, windowed);
    }
  }
  return recorder.rendering();
}

/// The extra recording's packs, all at per-test analog granularity.
std::string render_extra() {
  const soc::Soc d695m = soc::make_d695m();
  const soc::Soc synthetic = powered_synthetic();
  PackingOptions per_test;
  per_test.analog_per_test = true;
  Recorder recorder;
  for (const int width : {16, 32, 64}) {
    for (const bool share : {false, true}) {
      const std::string suffix = case_suffix(width, share);
      for (const auto& [name, soc] :
           {std::pair<std::string, const soc::Soc&>{"d695m", d695m},
            {"synthetic", synthetic}}) {
        recorder.pack(
            name + suffix, soc, width,
            share ? all_share_partition(soc) : singleton_partition(soc),
            per_test);
      }
    }
  }
  return recorder.rendering().schedules;
}

/// Compares `fresh` with the recording `name` under tests/data, writing
/// `actual` next to the test binary on a mismatch.
void expect_recording(const std::string& name, const std::string& actual,
                      const std::string& fresh) {
  const std::string path = std::string(MSOC_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing recording " << path;
  std::stringstream recorded;
  recorded << in.rdbuf();
  if (fresh != recorded.str()) std::ofstream(actual) << fresh;
  ASSERT_EQ(fresh, recorded.str())
      << "pins moved; diff " << path << " " << actual;
}

TEST(SchedulePins, P93791mSchedulesMatchTheRecording) {
  expect_recording("p93791m_schedule_pins.txt",
                   "p93791m_schedule_pins.actual.txt",
                   render_all().schedules);
}

TEST(SchedulePins, ExtraSchedulesMatchTheRecording) {
  expect_recording("extra_schedule_pins.txt",
                   "extra_schedule_pins.actual.txt", render_extra());
}

TEST(SchedulePins, P93791mCountersMatchTheRecording) {
  expect_recording("p93791m_counter_pins.txt",
                   "p93791m_counter_pins.actual.txt",
                   render_all().counters);
}

}  // namespace
}  // namespace msoc::tam
