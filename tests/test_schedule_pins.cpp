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

Rendering render_all() {
  const soc::Soc plain = soc::make_p93791m();
  const soc::Soc powered = powered_p93791m();
  std::ostringstream schedules;
  std::ostringstream counters;
  const auto pack = [&](const std::string& label, const soc::Soc& soc,
                        int width, const AnalogPartition& partition,
                        const PackingOptions& options) {
    reset_pack_counters();
    render(schedules, label, schedule_soc(soc, width, partition, options));
    const PackCounterSnapshot c = snapshot_pack_counters();
    counters << label << " checks " << c.admission_checks << " events "
             << c.events_visited << " retries " << c.retries
             << " reservations " << c.reservations << '\n';
  };
  for (const int width : {16, 32, 64}) {
    for (const bool share : {false, true}) {
      const AnalogPartition partition =
          share ? all_share_partition(plain) : singleton_partition(plain);
      const std::string suffix = " width " + std::to_string(width) +
                                 (share ? " all-share" : " singleton");
      pack("unconstrained" + suffix, plain, width, partition, {});
      pack("peak" + suffix, powered, width, partition, {});
      // Sustained budget alone: peak off, every 20000-cycle window
      // averaging at most 1.5x the hottest single test.
      PackingOptions windowed;
      windowed.max_power = 0.0;
      windowed.window_cycles = 20000;
      windowed.window_limit = 1.5 * powered.peak_test_power();
      pack("window" + suffix, powered, width, partition, windowed);
    }
  }
  return {schedules.str(), counters.str()};
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

TEST(SchedulePins, P93791mCountersMatchTheRecording) {
  expect_recording("p93791m_counter_pins.txt",
                   "p93791m_counter_pins.actual.txt",
                   render_all().counters);
}

}  // namespace
}  // namespace msoc::tam
