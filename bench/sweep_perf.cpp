// Parallel-evaluation perf trajectory.
//
// Times a one-width exhaustive plan::FrontierEngine run on the built-in
// p93791m benchmark (W=32, w_T=0.5) across a jobs ladder (1, 2, 4, all
// cores), verifies every run returns bit-identical results, then runs
// the default benchmark sweep and writes the whole trajectory as JSON
// (schema "msoc-sweep-perf-v1") for CI to archive.  Exits non-zero when
// any parallel run diverges from serial — this doubles as the
// determinism gate for the speedup numbers it prints.
//
// Usage: sweep_perf [output.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "msoc/common/parallel.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/plan/sweep.hpp"
#include "msoc/soc/benchmarks.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct ScalingPoint {
  int jobs = 0;
  double wall_ms = 0.0;
  double speedup = 1.0;
  msoc::plan::FrontierPoint result;
  bool identical = true;
};

bool same_result(const msoc::plan::FrontierPoint& a,
                 const msoc::plan::FrontierPoint& b) {
  return a.best.partition == b.best.partition &&
         a.best.test_time == b.best.test_time && a.best.total == b.best.total &&
         a.evaluations == b.evaluations &&
         a.total_combinations == b.total_combinations;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msoc;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sweep.json";

  const soc::Soc soc = soc::make_p93791m();
  plan::FrontierOptions options;
  options.widths = {32};
  options.weights = {0.5, 0.5};
  options.exhaustive = true;

  std::vector<int> ladder = {1, 2, 4};
  if (hardware_jobs() > 4) ladder.push_back(hardware_jobs());

  std::printf("exhaustive FrontierEngine on p93791m (W=32, w_T=0.5), "
              "%d hardware threads\n",
              hardware_jobs());
  std::vector<ScalingPoint> points;
  for (const int jobs : ladder) {
    ScalingPoint p;
    p.jobs = jobs;
    // Best of three runs, each on a fresh engine whose construction
    // (enumeration and staircases, all serial) is excluded from the
    // timing.  EVERY run must match the jobs=1 reference, not just the
    // first: a scheduling-dependent divergence can show up in any
    // repetition.
    options.jobs = jobs;
    p.wall_ms = 0.0;
    p.identical = true;
    for (int run = 0; run < 3; ++run) {
      plan::FrontierEngine engine(soc, options);
      const Clock::time_point start = Clock::now();
      const plan::FrontierPoint result = engine.run().points.front();
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      if (run == 0) p.result = result;
      p.identical &= same_result(
          result, points.empty() ? p.result : points.front().result);
      if (run == 0 || ms < p.wall_ms) p.wall_ms = ms;
    }
    p.speedup = points.empty() ? 1.0 : points.front().wall_ms / p.wall_ms;
    std::printf("  jobs=%-2d  %8.1f ms  speedup %.2fx  %s\n", p.jobs,
                p.wall_ms, p.speedup,
                p.identical ? "bit-identical" : "RESULT MISMATCH");
    points.push_back(std::move(p));
  }

  // The multi-SOC scenario sweep: per-case wall times are the trajectory.
  plan::SweepConfig sweep_config = plan::default_benchmark_sweep();
  sweep_config.frontier.jobs = 0;  // all cores
  const plan::SweepResult sweep = plan::run_sweep(sweep_config);
  std::printf("benchmark sweep: %zu cases in %.1f ms (jobs=%d)\n",
              sweep_config.case_count(), sweep.total_wall_ms, sweep.jobs);

  bool all_identical = true;
  for (const ScalingPoint& p : points) all_identical &= p.identical;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"schema\": \"msoc-sweep-perf-v1\",\n"
      << "  \"hardware_jobs\": " << hardware_jobs() << ",\n"
      << "  \"exhaustive_scaling\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalingPoint& p = points[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"jobs\": " << p.jobs
        << ", \"wall_ms\": " << p.wall_ms << ", \"speedup\": " << p.speedup
        << ", \"best_total\": " << p.result.best.total
        << ", \"evaluations\": " << p.result.evaluations
        << ", \"identical\": " << (p.identical ? "true" : "false") << "}";
  }
  out << "\n  ],\n  \"sweep\": " << sweep.to_json() << "}\n";
  out.close();
  std::printf("trajectory written to %s\n", out_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr, "error: parallel results diverged from serial\n");
    return 1;
  }
  return 0;
}
