// Microbenchmarks (google-benchmark) for the grid-evaluation engine:
// wall-clock scaling across worker counts on a solver-heavy sweep, and
// the effect of the solve cache on sweeps whose points share a chain.
#include <benchmark/benchmark.h>

#include "perf_json.hpp"

#include "core/solve_cache.hpp"
#include "engine/engine.hpp"
#include "engine/grid.hpp"

namespace {

using namespace nsrel;

// A solver-heavy grid: ft=8 over r=12 gives a 511-state chain per cell,
// so each of the 64 points costs a real elimination solve.
engine::Grid heavy_grid() {
  core::SystemConfig base = core::SystemConfig::baseline();
  base.redundancy_set_size = 12;
  return engine::parameter_sweep(
      base, "drive-mttf", engine::spaced_points(100e3, 750e3, 64, true),
      {{core::InternalScheme::kNone, 8}});
}

// Wall-clock scaling with the worker count (the ResultSet is identical
// across the arg range by construction).
void BM_EvaluateJobs(benchmark::State& state) {
  const engine::Grid grid = heavy_grid();
  engine::EvalOptions options;
  options.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::evaluate(grid, options).at(0, 0).mttdl);
  }
}
BENCHMARK(BM_EvaluateJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The memoization path: a sweep over restripe-kb leaves the (no internal
// RAID) Markov model untouched, so every cell after the first is a cache
// hit and the evaluation is pure lookup.
void BM_EvaluateCacheHits(benchmark::State& state) {
  core::SystemConfig base = core::SystemConfig::baseline();
  base.redundancy_set_size = 12;
  const engine::Grid grid = engine::parameter_sweep(
      base, "restripe-kb", engine::spaced_points(64.0, 4096.0, 64, true),
      {{core::InternalScheme::kNone, 8}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::evaluate(grid).cache_stats().hits);
  }
}
BENCHMARK(BM_EvaluateCacheHits)->Unit(benchmark::kMillisecond);

// The same grid with the cache disabled by sweeping a parameter that
// changes the model every point — the full-solve baseline to compare
// BM_EvaluateCacheHits against.
void BM_EvaluateCacheMisses(benchmark::State& state) {
  const engine::Grid grid = heavy_grid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::evaluate(grid).cache_stats().misses);
  }
}
BENCHMARK(BM_EvaluateCacheMisses)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return nsrel::bench::perf_main(argc, argv, "perf_engine");
}
