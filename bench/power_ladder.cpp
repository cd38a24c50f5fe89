// Power-constrained scheduling trajectory.
//
// Annotates the built-in d695m benchmark with deterministic per-test
// power figures, then walks plan::FrontierEngine down a power ladder
// (unconstrained, then 4x / 2x / 1.2x the peak single-test power) across
// the paper's width ladder.  Gates:
//   * every (width, power) cell must be feasible (the ladder never dips
//     below the peak single-test power);
//   * the UNCONSTRAINED rung's test-time curve must stay monotone in
//     width (the paper's Tables 3-4 sanity).  Constrained rungs only
//     report monotonicity: a tight power budget can steer the greedy
//     packer to a slightly longer schedule at a wider TAM, which is a
//     known anomaly, not a bug;
//   * the schedule behind every constrained cell must pass
//     tam::check_schedule (instantaneous power within budget).
// Writes the per-cell times and the makespan inflation vs unconstrained
// as JSON (schema "msoc-power-ladder-v1") for CI to archive.
//
// Usage: power_ladder [output.json]

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "msoc/common/format.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/tam/packing.hpp"
#include "msoc/tam/schedule.hpp"

namespace {

/// d695m with a deterministic power annotation: digital cores scale
/// with their scan volume (bigger cores toggle more), analog tests get
/// a fixed spread.  Values are arbitrary but stable — the bench tracks
/// trajectories, not absolute watts.
msoc::soc::Soc make_power_annotated_d695m() {
  using namespace msoc::soc;
  Soc plain = make_d695m();
  Soc soc(plain.name() + "_power");
  for (DigitalCore core : plain.digital_cores()) {
    core.power =
        40.0 + static_cast<double>(core.total_scan_cells()) / 20.0;
    soc.add_digital(std::move(core));
  }
  for (AnalogCore core : plain.analog_cores()) {
    double p = 25.0;
    for (AnalogTestSpec& test : core.tests) {
      test.power = p;
      p += 12.5;
    }
    soc.add_analog(std::move(core));
  }
  return soc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msoc;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_power.json";

  const soc::Soc soc = make_power_annotated_d695m();
  const double peak = soc.peak_test_power();

  plan::FrontierOptions options;
  options.max_powers = {0.0, peak * 4.0, peak * 2.0, peak * 1.2};
  options.jobs = 0;
  plan::FrontierEngine engine(soc, options);
  const plan::FrontierResult result = engine.run();

  int failures = 0;
  // Gate monotonicity on the unconstrained rung only (see header).
  bool unconstrained_monotone = true;
  Cycles running_min = 0;
  bool have_min = false;
  for (const plan::FrontierPoint& p : result.points) {
    if (!p.ok() || p.max_power != 0.0) continue;
    if (have_min && p.best.test_time > running_min) {
      unconstrained_monotone = false;
    }
    if (!have_min || p.best.test_time < running_min) {
      running_min = p.best.test_time;
      have_min = true;
    }
  }
  if (!unconstrained_monotone) {
    std::fprintf(
        stderr,
        "FAIL: the unconstrained rung's test time grew with width\n");
    ++failures;
  }
  if (!result.time_monotone) {
    std::printf("note: a constrained rung's time grew with width "
                "(greedy anomaly under a tight budget)\n");
  }
  for (const plan::FrontierPoint& p : result.points) {
    if (!p.ok()) {
      std::fprintf(stderr, "FAIL: W=%d P=%g infeasible: %s\n", p.tam_width,
                   p.max_power, p.error.c_str());
      ++failures;
      continue;
    }
    // Re-derive the winning schedule and re-walk it: the bench gate is
    // the external validity oracle, not the packer's own invariant.
    tam::PackingOptions packing;
    packing.max_power = p.max_power;
    tam::Schedule schedule = tam::schedule_soc(
        soc, p.tam_width,
        mswrap::to_analog_partition(soc.analog_cores(), p.best.partition),
        packing);
    schedule.max_power = p.max_power;
    const std::vector<tam::ScheduleViolation> violations =
        tam::check_schedule(schedule);
    for (const tam::ScheduleViolation& v : violations) {
      std::fprintf(stderr, "FAIL: W=%d P=%g: %s\n", p.tam_width,
                   p.max_power, v.message.c_str());
      ++failures;
    }
    std::printf("W=%-3d P=%-8.6g T=%8llu cycles  peak power %.6g\n",
                p.tam_width, p.max_power,
                static_cast<unsigned long long>(p.best.test_time),
                schedule.peak_power());
  }

  // Unconstrained baseline per width for the inflation report.
  std::vector<std::pair<int, Cycles>> baseline;
  for (const plan::FrontierPoint& p : result.points) {
    if (p.ok() && p.max_power == 0.0) {
      baseline.emplace_back(p.tam_width, p.best.test_time);
    }
  }
  const auto baseline_time = [&baseline](int width) -> Cycles {
    for (const auto& [w, t] : baseline) {
      if (w == width) return t;
    }
    return 0;
  };

  std::ofstream out(out_path);
  out << "{\n  \"schema\": \"msoc-power-ladder-v1\",\n"
      << "  \"soc\": \"" << soc.name() << "\",\n"
      << "  \"peak_test_power\": " << round_trip_double(peak) << ",\n"
      << "  \"time_monotone\": " << (result.time_monotone ? "true" : "false")
      << ",\n"
      << "  \"cells\": [";
  bool first = true;
  for (const plan::FrontierPoint& p : result.points) {
    if (!p.ok()) continue;
    const Cycles base = baseline_time(p.tam_width);
    const double inflation =
        base == 0 ? 0.0
                  : 100.0 * (static_cast<double>(p.best.test_time) -
                             static_cast<double>(base)) /
                        static_cast<double>(base);
    out << (first ? "\n" : ",\n") << "    {\"tam_width\": " << p.tam_width
        << ", \"max_power\": " << round_trip_double(p.max_power)
        << ", \"test_time\": " << p.best.test_time
        << ", \"inflation_percent\": " << round_trip_double(inflation)
        << ", \"evaluations\": " << p.evaluations << "}";
    first = false;
  }
  out << "\n  ]\n}\n";
  std::printf("power-ladder trajectory written to %s\n", out_path.c_str());

  if (failures > 0) {
    std::fprintf(stderr, "%d power-ladder gate(s) failed\n", failures);
    return 1;
  }
  return 0;
}
