// Microbenchmarks (google-benchmark) for the observability hot paths:
// the disabled-probe cost (the one-relaxed-load contract — the journal
// gate and a disarmed obs::Probe must be statistically indistinguishable
// from the registry gate they share), armed ring appends, the drain/commit path, and the
// MetricsSnapshot delta/merge algebra `nsrel report` is built on.
// Counters are deterministic (events recorded, rows merged), so
// tools/bench_diff.py can hard-fail a run that did different work than
// the committed baseline even when wall-clock shifts.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>

#include "perf_json.hpp"

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/probe_names.hpp"
#include "obs/snapshot.hpp"

namespace {

using namespace nsrel;

// The registry gate: one relaxed load when off. This is the reference
// cost every other disabled probe is held to.
void BM_RegistryDisabled(benchmark::State& state) {
  obs::Registry::instance().set_enabled(false);
  std::uint64_t observed = 0;
  for (auto _ : state) {
    if (obs::Registry::enabled()) ++observed;
    benchmark::DoNotOptimize(observed);
  }
  state.counters["adds_observed"] = static_cast<double>(observed);
}
BENCHMARK(BM_RegistryDisabled);

// The journal gate while disarmed — the cost every instrumented line in
// src/ pays on a plain run. Must stay indistinguishable from
// BM_RegistryDisabled: both are one relaxed load and a branch.
void BM_JournalDisabled(benchmark::State& state) {
  obs::Journal::instance().disable();
  obs::Journal::instance().clear();
  std::uint64_t recorded = 0;
  for (auto _ : state) {
    if (obs::Journal::enabled()) {
      obs::Journal::instance().record(
          obs::seq_event(obs::event::kCacheHit));
      ++recorded;
    }
    benchmark::DoNotOptimize(recorded);
  }
  state.counters["events_recorded"] = static_cast<double>(recorded);
}
BENCHMARK(BM_JournalDisabled);

// A disarmed obs::Probe of the densest layer (the solve probe, with its
// span arg and journal outcome) — the cost every instrumented layer pays
// on a plain run. Held to BM_RegistryDisabled: one relaxed load of the
// shared gate, a branch and the probe's stack stores; nothing recorded.
void BM_ProbeDisabled(benchmark::State& state) {
  obs::Registry::instance().set_enabled(false);
  obs::Journal::instance().disable();
  std::uint64_t traced = 0;
  for (auto _ : state) {
    obs::Probe probe(obs::layer::kSolve);
    probe.arg("cache", "hit");
    probe.outcome("ok");
    if (probe.tracing()) ++traced;
    benchmark::DoNotOptimize(traced);
  }
  state.counters["probes_traced"] = static_cast<double>(traced);
}
BENCHMARK(BM_ProbeDisabled);

// Armed append into the thread-local ring: no locks, no allocation —
// the ring overwrites its oldest slot once full, so the loop cost is
// flat regardless of iteration count.
void BM_JournalArmed(benchmark::State& state) {
  obs::Journal::instance().begin();
  std::uint64_t recorded = 0;
  for (auto _ : state) {
    if (obs::Journal::enabled()) {
      obs::Journal::instance().record(
          obs::seq_event(obs::event::kCacheHit).arg("n", recorded));
      ++recorded;
    }
  }
  obs::Journal::instance().clear();
  // Per-iteration so the value is exact regardless of how many
  // iterations google-benchmark chose: 1 event per loop pass.
  state.counters["events_per_iter"] =
      static_cast<double>(recorded) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_JournalArmed);

// One full ring recorded and drained per iteration: the barrier-time
// cost the repair engine pays per batch.
void BM_JournalDrain(benchmark::State& state) {
  std::uint64_t drained = 0;
  for (auto _ : state) {
    state.PauseTiming();
    obs::Journal::instance().begin();
    for (std::size_t i = 0; i < obs::Journal::kRingCapacity; ++i) {
      obs::Journal::instance().record(
          obs::seq_event(obs::event::kCacheHit).arg("n", drained));
    }
    state.ResumeTiming();
    obs::Journal::instance().drain();
    drained += obs::Journal::kRingCapacity;
  }
  obs::Journal::instance().clear();
  // Exactly one full ring per iteration.
  state.counters["events_per_drain"] =
      static_cast<double>(drained) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_JournalDrain)->Unit(benchmark::kMicrosecond);

// The exact snapshot algebra behind --metrics-out and `nsrel report`:
// delta(before, after) then merge(before, delta) over a registry-sized
// row set. merge(a, delta(a, b)) == b is the correctness invariant the
// tests pin; this pins its cost.
void BM_SnapshotDelta(benchmark::State& state) {
  auto& registry = obs::Registry::instance();
  registry.reset();
  registry.set_enabled(true);
  const obs::Counter counter =
      registry.counter(obs::probe::kSolveCacheHits);
  const obs::Histogram histogram =
      registry.histogram(obs::probe::kThreadPoolTaskNs);
  registry.add(counter, 3);
  for (std::uint64_t v = 1; v < 1u << 10; v <<= 1) {
    registry.record(histogram, v);
  }
  const obs::MetricsSnapshot before = obs::MetricsSnapshot::capture();
  registry.add(counter, 40);
  for (std::uint64_t v = 1; v < 1u << 14; v <<= 1) {
    registry.record(histogram, v);
  }
  const obs::MetricsSnapshot after = obs::MetricsSnapshot::capture();
  registry.set_enabled(false);

  std::uint64_t rows = 0;
  for (auto _ : state) {
    const obs::MetricsSnapshot delta =
        obs::MetricsSnapshot::delta(before, after);
    const obs::MetricsSnapshot merged =
        obs::MetricsSnapshot::merge(before, delta);
    rows += merged.counters.size() + merged.histograms.size();
    benchmark::DoNotOptimize(merged);
  }
  // Rows in one merged snapshot — a fixed property of the registry's
  // probe set, not of the iteration count.
  state.counters["rows_per_merge"] =
      static_cast<double>(rows) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SnapshotDelta);

}  // namespace

int main(int argc, char** argv) {
  return nsrel::bench::perf_main(argc, argv, "perf_obs");
}
