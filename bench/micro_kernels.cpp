// Google-benchmark microbenchmarks for the library's hot kernels:
// FFT, Goertzel, wrapper design (BFD), Pareto-set computation, the
// packer's interval-set/skyline structures, rectangle packing and
// partition enumeration.

#include <benchmark/benchmark.h>

#include "msoc/common/rng.hpp"
#include "msoc/dsp/fft.hpp"
#include "msoc/dsp/goertzel.hpp"
#include "msoc/dsp/multitone.hpp"
#include "msoc/mswrap/partition.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/tam/interval_set.hpp"
#include "msoc/tam/level_profile.hpp"
#include "msoc/tam/packing.hpp"
#include "msoc/tam/skyline.hpp"
#include "msoc/wrapper/wrapper_design.hpp"

namespace {

using namespace msoc;

void BM_FftRadix2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  std::vector<dsp::Complex> data(n);
  for (auto& c : data) c = dsp::Complex(rng.uniform(-1.0, 1.0), 0.0);
  for (auto _ : state) {
    std::vector<dsp::Complex> work = data;
    dsp::fft_inplace(work);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FftRadix2)->RangeMultiplier(4)->Range(256, 16384)
    ->Complexity(benchmark::oNLogN);

void BM_Goertzel(benchmark::State& state) {
  dsp::MultitoneSpec spec;
  spec.tones = {dsp::Tone{Hertz(61e3), 1.0, 0.0}};
  const dsp::Signal s = dsp::generate_multitone(
      spec, Hertz(1.7e6), static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::goertzel(s, Hertz(61e3)).amplitude);
  }
}
BENCHMARK(BM_Goertzel)->Arg(4551)->Arg(16384);

void BM_DesignWrapper(benchmark::State& state) {
  const soc::Soc soc = soc::make_p93791();
  const soc::DigitalCore& core = soc.digital_cores()[0];  // largest
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wrapper::design_wrapper(core, width).scan_in);
  }
}
BENCHMARK(BM_DesignWrapper)->Arg(8)->Arg(32)->Arg(64);

void BM_ParetoWidths(benchmark::State& state) {
  const soc::Soc soc = soc::make_p93791();
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (const soc::DigitalCore& core : soc.digital_cores()) {
      benchmark::DoNotOptimize(wrapper::pareto_widths(core, width).size());
    }
  }
}
BENCHMARK(BM_ParetoWidths)->Arg(32)->Arg(64);

void BM_IntervalSetInsert(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  Rng rng(static_cast<std::uint64_t>(n));
  std::vector<tam::IntervalSet::Interval> inserts;
  inserts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Cycles start = rng.uniform_u64(0, static_cast<Cycles>(n) * 20);
    inserts.emplace_back(start, start + rng.uniform_u64(1, 40));
  }
  for (auto _ : state) {
    tam::IntervalSet set;
    for (const auto& [b, e] : inserts) set.insert(b, e);
    benchmark::DoNotOptimize(set.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IntervalSetInsert)->RangeMultiplier(4)->Range(64, 4096)
    ->Complexity(benchmark::oNLogN);

void BM_IntervalSetFirstFit(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  Rng rng(static_cast<std::uint64_t>(n) + 1);
  tam::IntervalSet set;
  for (int i = 0; i < n; ++i) {
    const Cycles start = rng.uniform_u64(0, static_cast<Cycles>(n) * 20);
    set.insert(start, start + rng.uniform_u64(1, 15));
  }
  Cycles probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.first_fit(probe, 30));
    probe = (probe + 97) % (static_cast<Cycles>(n) * 20);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IntervalSetFirstFit)->RangeMultiplier(4)->Range(64, 4096)
    ->Complexity(benchmark::oLogN);

// Random adds into a flat sorted vector: each new boundary is a binary
// search plus a tail memmove, so the fit is left to the library rather
// than claimed.
void BM_SkylineAdd(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  Rng rng(static_cast<std::uint64_t>(n) + 2);
  std::vector<std::pair<Cycles, Cycles>> adds;
  adds.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Cycles start = rng.uniform_u64(0, static_cast<Cycles>(n) * 10);
    adds.emplace_back(start, start + rng.uniform_u64(1, 50));
  }
  for (auto _ : state) {
    tam::Skyline<long long> sky;
    for (const auto& [b, e] : adds) sky.add(b, e, 4);
    benchmark::DoNotOptimize(sky.segment_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SkylineAdd)->RangeMultiplier(4)->Range(64, 4096)
    ->Complexity(benchmark::oAuto);

// One p93791m-sized wire timeline end to end: ~40 tests, each probed
// first-fit from cycle 0 along the retry chain, then reserved — the
// mix of probes and adds one greedy pass of the packer makes.
void BM_LevelProfilePack(benchmark::State& state) {
  constexpr long long kCapacity = 32;
  constexpr int kTests = 40;
  Rng rng(40);
  std::vector<std::pair<long long, Cycles>> tests;  // (wires, duration)
  for (int i = 0; i < kTests; ++i) {
    tests.emplace_back(rng.uniform_int(1, 16), rng.uniform_u64(1000, 200000));
  }
  std::uint64_t visited = 0;
  for (auto _ : state) {
    tam::LevelProfile<long long> wires(kCapacity);
    for (const auto& [width, duration] : tests) {
      Cycles start = 0;
      Cycles retry = 0;
      while (!wires.window_free(start, width, duration, &retry, &visited)) {
        start = retry;
      }
      wires.reserve(start, duration, width);
    }
    benchmark::DoNotOptimize(wires.skyline().segment_count());
  }
  state.counters["events_per_pack"] = benchmark::Counter(
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(visited) /
                static_cast<double>(state.iterations()));
}
BENCHMARK(BM_LevelProfilePack);

// The packer's wire admission probe against a populated profile,
// reported with the deterministic per-op counter (skyline events per
// check) so the number CI gates on is visible right next to the wall
// time.
void BM_WireWindowFree(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  constexpr long long kCapacity = 32;
  Rng rng(static_cast<std::uint64_t>(n) + 3);
  tam::LevelProfile<long long> profile(kCapacity);
  for (int i = 0; i < n; ++i) {
    profile.reserve(rng.uniform_u64(0, static_cast<Cycles>(n) * 10),
                    rng.uniform_u64(10, 200), rng.uniform_int(1, 12));
  }
  std::uint64_t visited = 0;
  Cycles probe = 0;
  for (auto _ : state) {
    Cycles retry = 0;
    benchmark::DoNotOptimize(
        profile.window_free(probe, 8, 64, &retry, &visited));
    probe = (probe + 131) % (static_cast<Cycles>(n) * 10);
  }
  state.counters["events_per_check"] = benchmark::Counter(
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(visited) /
                static_cast<double>(state.iterations()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WireWindowFree)->RangeMultiplier(4)->Range(64, 4096)
    ->Complexity(benchmark::oLogN);

// The staircases are built once outside the timed loop, as
// plan::FrontierEngine does, so the benchmark times the pack alone.
void BM_SchedulePack(benchmark::State& state) {
  const soc::Soc soc = soc::make_p93791m();
  const tam::AnalogPartition partition = tam::singleton_partition(soc);
  const int width = static_cast<int>(state.range(0));
  const tam::ParetoTables tables = tam::compute_pareto_tables(soc, width);
  tam::PackingOptions options;
  options.pareto_hint = &tables;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tam::schedule_soc(soc, width, partition, options).makespan());
  }
}
BENCHMARK(BM_SchedulePack)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_EnumeratePartitions(benchmark::State& state) {
  soc::SyntheticSocParams params;
  params.digital_cores = 0;
  params.analog_cores = static_cast<int>(state.range(0));
  params.seed = 9;
  const soc::Soc soc = soc::make_synthetic_soc(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mswrap::enumerate_partitions(soc.analog_cores()).size());
  }
}
BENCHMARK(BM_EnumeratePartitions)->DenseRange(4, 9, 1);

}  // namespace

BENCHMARK_MAIN();
