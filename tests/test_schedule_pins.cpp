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

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/soc.hpp"
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

std::string render_all() {
  const soc::Soc plain = soc::make_p93791m();
  const soc::Soc powered = powered_p93791m();
  std::ostringstream out;
  for (const int width : {16, 32, 64}) {
    for (const bool share : {false, true}) {
      const AnalogPartition partition =
          share ? all_share_partition(plain) : singleton_partition(plain);
      const std::string suffix = " width " + std::to_string(width) +
                                 (share ? " all-share" : " singleton");
      render(out, "unconstrained" + suffix,
             schedule_soc(plain, width, partition));
      render(out, "peak" + suffix, schedule_soc(powered, width, partition));
      // Sustained budget alone: peak off, every 20000-cycle window
      // averaging at most 1.5x the hottest single test.
      PackingOptions windowed;
      windowed.max_power = 0.0;
      windowed.window_cycles = 20000;
      windowed.window_limit = 1.5 * powered.peak_test_power();
      render(out, "window" + suffix,
             schedule_soc(powered, width, partition, windowed));
    }
  }
  return out.str();
}

TEST(SchedulePins, P93791mSchedulesMatchTheRecording) {
  const std::string path =
      std::string(MSOC_TEST_DATA_DIR) + "/p93791m_schedule_pins.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing recording " << path;
  std::stringstream recorded;
  recorded << in.rdbuf();

  const std::string fresh = render_all();
  if (fresh != recorded.str()) {
    std::ofstream("p93791m_schedule_pins.actual.txt") << fresh;
  }
  ASSERT_EQ(fresh, recorded.str())
      << "schedules moved; diff " << path
      << " p93791m_schedule_pins.actual.txt";
}

}  // namespace
}  // namespace msoc::tam
