// Microbenchmarks (google-benchmark) for the numeric machinery: chain
// construction, the no-internal-RAID solve as k grows, the
// closed forms — quantifying the cost of exact vs approximate paths — and
// the parallel Monte-Carlo engine's scaling across worker counts.
#include <benchmark/benchmark.h>

#include "perf_json.hpp"

#include "ctmc/absorbing.hpp"
#include "ctmc/chain.hpp"
#include "models/no_internal_raid.hpp"
#include "sim/storage_simulator.hpp"

namespace {

using namespace nsrel;

models::NoInternalRaidParams nir_params(int k) {
  models::NoInternalRaidParams p;
  p.node_set_size = 64;
  p.redundancy_set_size = 12;
  p.fault_tolerance = k;
  p.drives_per_node = 12;
  p.node_failure = PerHour(1.0 / 400'000.0);
  p.drive_failure = PerHour(1.0 / 300'000.0);
  p.node_rebuild = PerHour(0.19);
  p.drive_rebuild = PerHour(2.28);
  p.capacity = gigabytes(300.0);
  p.her_per_byte = 8e-14;
  return p;
}

void BM_NirChainBuild(benchmark::State& state) {
  const models::NoInternalRaidModel model(
      nir_params(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.chain());
  }
}
BENCHMARK(BM_NirChainBuild)->DenseRange(1, 7);

void BM_NirExactSolve(benchmark::State& state) {
  const models::NoInternalRaidModel model(
      nir_params(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.mttdl_exact().value());
  }
}
BENCHMARK(BM_NirExactSolve)->DenseRange(1, 7);

void BM_NirClosedForm(benchmark::State& state) {
  const models::NoInternalRaidModel model(
      nir_params(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.mttdl_closed_form().value());
  }
}
BENCHMARK(BM_NirClosedForm)->DenseRange(1, 7);

// A wider redundancy set lifts the R > k precondition out of the way so
// k can sweep to the k = 16 cap.
models::NoInternalRaidParams crossover_params(int k) {
  models::NoInternalRaidParams p = nir_params(2);
  p.redundancy_set_size = 32;
  p.fault_tolerance = k;
  return p;
}

// The no-internal-RAID solve as k grows, on the path every `nsrel
// analyze` takes: the failure-word walk straight into the GTH kernel's
// rows (no labelled Chain, no validate()), then the solve. The walk is
// linear in the chain's size, and the leaf-first elimination has no
// off-diagonal fill-in on these binary-tree chains, so the whole solve
// is O(n) up to the k = 16 cap (131071 states).
void BM_NirExactSolveCrossover(benchmark::State& state) {
  const models::NoInternalRaidModel model(
      crossover_params(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.mttdl_exact().value());
  }
  const ctmc::Chain chain = model.chain();
  state.counters["states"] = static_cast<double>(chain.state_count());
  state.counters["transitions"] =
      static_cast<double>(chain.transitions().size());
}
BENCHMARK(BM_NirExactSolveCrossover)->DenseRange(4, 16);

void BM_AbsorbingFullAnalysis(benchmark::State& state) {
  const models::NoInternalRaidModel model(
      nir_params(static_cast<int>(state.range(0))));
  const auto chain = model.chain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctmc::AbsorbingSolver::analyze(
        chain, models::NoInternalRaidModel::root_state()));
  }
}
// The full analysis is one GTH elimination plus back substitution for
// occupancy and per-state mean times, so it has no conditioning limit;
// the rows stop at k = 4 to stay comparable with earlier baselines, and
// BM_NirExactSolveCrossover covers the larger state spaces.
BENCHMARK(BM_AbsorbingFullAnalysis)->DenseRange(1, 4);

// Accelerated rates (as in tests/test_sim.cpp): trajectories absorb after
// ~1e2-1e4 events so a trial batch is a realistic validation workload.
models::NoInternalRaidParams accelerated_nir(int k) {
  models::NoInternalRaidParams p;
  p.node_set_size = 8;
  p.redundancy_set_size = 4;
  p.fault_tolerance = k;
  p.drives_per_node = 3;
  p.node_failure = PerHour(0.002);
  p.drive_failure = PerHour(0.003);
  p.node_rebuild = PerHour(1.0);
  p.drive_rebuild = PerHour(3.0);
  p.capacity = gigabytes(300.0);
  p.her_per_byte = 8e-14;
  return p;
}

// Wall-clock scaling of the parallel Monte-Carlo engine with the worker
// count (results are bit-identical across the arg range by construction).
void BM_NirSimEstimateJobs(benchmark::State& state) {
  const sim::NirStorageSimulator simulator(accelerated_nir(2), 1);
  sim::ParallelOptions options;
  options.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.estimate(4000, options).mean_hours);
  }
}
BENCHMARK(BM_NirSimEstimateJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Adaptive stopping: how much work a ±5% CI actually needs.
void BM_NirSimAdaptiveCi(benchmark::State& state) {
  const sim::NirStorageSimulator simulator(accelerated_nir(2), 1);
  sim::ParallelOptions options;
  options.jobs = static_cast<int>(state.range(0));
  options.ci_target = 0.05;
  options.max_trials = 100000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.estimate(1024, options).trials);
  }
}
BENCHMARK(BM_NirSimAdaptiveCi)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return nsrel::bench::perf_main(argc, argv, "perf_solvers");
}
