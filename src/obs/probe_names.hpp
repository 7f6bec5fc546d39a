// The one registry of observability names: every counter, histogram,
// instrumented layer and flight-recorder event the library emits lives
// here and nowhere else.
//
// Why a registry instead of string literals at the call sites: these
// names are rendered into `--metrics` blocks, Perfetto traces and
// `nsrel-events-v1` journals that downstream tooling (`nsrel events`,
// `nsrel report`, perfbench) greps by exact name, so a silent rename (or
// two subsystems colliding on one name) corrupts dashboards without
// failing a single test. tools/nsrel-lint's `probe-registry` rule
// enforces it mechanically: it rejects string literals passed to
// Registry::counter()/histogram(), seq_event()/sim_event() or a Layer
// built outside this header in src/; it rejects a name registered twice
// anywhere in this header (a layer's derived histogram name included);
// and it pins the event names append-only against
// tools/lint/event_names.tsv — renaming or deleting a shipped event
// name is a lint failure, exactly like error codes. Tests are exempt
// from the literal rule (they mint throwaway "test.*" names).
#pragma once

#include <cstddef>
#include <cstdint>

namespace nsrel::obs {

// --- counters and plain histograms -----------------------------------
namespace probe {

inline constexpr const char* kThreadPoolSubmitted = "thread_pool.submitted";
inline constexpr const char* kThreadPoolCompleted = "thread_pool.completed";
inline constexpr const char* kSolveCacheHits = "solve_cache.hits";
inline constexpr const char* kSolveCacheMisses = "solve_cache.misses";
inline constexpr const char* kSolveCacheInserts = "solve_cache.inserts";
inline constexpr const char* kEngineCellsOk = "engine.cells_ok";
inline constexpr const char* kEngineCellsFailed = "engine.cells_failed";
/// Chains compared by the differential-testing harness
/// (tests/test_diffharness.cpp; registered here so dashboards that grep
/// harness runs share the one name registry).
inline constexpr const char* kDiffHarnessChains = "diffharness.chains";
/// Brick-store degraded reads: read()/read_range() calls that had to
/// fetch k survivors and decode instead of reading the shard directly.
inline constexpr const char* kBrickDegradedReads = "brick.degraded_reads";
// Concurrent repair engine (src/repair).
inline constexpr const char* kRepairShardsRepaired = "repair.shards_repaired";
inline constexpr const char* kRepairReplans = "repair.replans";
inline constexpr const char* kRepairRetries = "repair.retries";
inline constexpr const char* kRepairInjectedFaults = "repair.injected_faults";
inline constexpr const char* kRepairStripesFailed = "repair.stripes_failed";
/// Per-worker busy-time counters are the one dynamic name family:
/// "<prefix><index><suffix>", e.g. "thread_pool.worker3.busy_ns".
inline constexpr const char* kThreadPoolWorkerPrefix = "thread_pool.worker";
inline constexpr const char* kThreadPoolWorkerBusySuffix = ".busy_ns";

inline constexpr const char* kThreadPoolQueueDepth = "thread_pool.queue_depth";
inline constexpr const char* kThreadPoolQueueDelayNs =
    "thread_pool.queue_delay_ns";
inline constexpr const char* kThreadPoolTaskNs = "thread_pool.task_ns";

}  // namespace probe

// --- flight-recorder events (append-only, see event_names.tsv) -------
namespace event {

/// Cache-keyed CTMC solve began (no args).
inline constexpr const char* kSolveStart = "solve.start";
/// ...and finished (args: outcome = ok|<stable error code>).
inline constexpr const char* kSolveEnd = "solve.end";
/// Solve-cache lookup classified (no args; the enclosing scope says
/// which cell asked).
inline constexpr const char* kCacheHit = "cache.hit";
inline constexpr const char* kCacheMiss = "cache.miss";
/// Engine grid cell claimed by a worker (args: cell, point, config).
inline constexpr const char* kCellClaim = "cell.claim";
/// ...and failed with a typed error (args: cell, code).
inline constexpr const char* kCellFail = "cell.fail";
/// One Monte-Carlo chunk completed (args: stream, trials).
inline constexpr const char* kSimChunk = "sim.chunk";
/// Repair batch barrier reached (sim-time domain; args: batch,
/// committed).
inline constexpr const char* kRepairBarrier = "repair.barrier";
/// Fault-schedule entry fired (args: node, drive, applied = 0|1 —
/// no-op entries are recorded too, they still forced a barrier).
inline constexpr const char* kRepairFault = "repair.fault";
/// Re-plan after an applied fault (args: invalidated = pending stripes
/// sent back to planning; the run's replans counter sums these).
inline constexpr const char* kRepairReplan = "repair.replan";
/// A failed stripe re-queued (args: object, stripe, retries).
inline constexpr const char* kRepairRetry = "repair.retry";
/// Brick-store read served by decode instead of a direct shard read
/// (no args; during repair the enclosing barrier scope locates it).
inline constexpr const char* kBrickDegradedRead = "brick.degraded_read";
/// Foreground workload read that returned a typed error — during a
/// repair run this is a read that found too few live shards (no args;
/// scoped to the barrier that served it).
inline constexpr const char* kWorkloadReadFailed = "workload.read_failed";

}  // namespace event

// --- instrumented layers ----------------------------------------------

/// One instrumented layer: what a Probe (obs/probe.hpp) feeds. The span
/// is (name, category); the duration histogram is named
/// "<category>.<name>_ns"; a layer that names a journal pair records
/// `journal_start` when its probe opens and `journal_end` (with the
/// probe's outcome) when it closes.
struct Layer {
  std::uint32_t id;  ///< index into layer::kAll
  const char* name;
  const char* category;
  const char* journal_start = nullptr;
  const char* journal_end = nullptr;
};

namespace layer {

/// A cache-keyed solve (args: cache = hit|miss|none); perfbench counts
/// solves and hits from it.
inline constexpr Layer kSolve{0, "solve", "core", event::kSolveStart,
                              event::kSolveEnd};
/// Every GTH elimination (args: states = the kernel's dimension).
inline constexpr Layer kEliminationSolve{1, "elimination_solve", "ctmc"};
/// The no-internal-RAID failure-word walk (either sink).
inline constexpr Layer kChainBuild{2, "chain_build", "models"};
/// One engine::evaluate call (args: points, configurations, jobs); its
/// thread is the caller's.
inline constexpr Layer kEvaluate{3, "evaluate", "engine"};
/// One grid cell (args: cell, point, config, outcome).
inline constexpr Layer kCell{4, "cell", "engine"};
/// A Monte-Carlo grid cell (args: trials, seed).
inline constexpr Layer kSimCell{5, "sim_cell", "engine"};
/// One worker's claim loop (args: claimed).
inline constexpr Layer kClaim{6, "claim", "engine"};
/// Rendering a ResultSet (args: kind).
inline constexpr Layer kRender{7, "render", "engine"};
inline constexpr Layer kChunk{8, "chunk", "sim"};
/// Strict nsrel-resultset-v3 document read (report::read_resultset_json).
inline constexpr Layer kResultSetRead{9, "resultset_read", "report"};
/// ResultSet document comparison (report::diff_resultsets / nsrel diff).
inline constexpr Layer kDiff{10, "diff", "report"};
/// One per-stripe repair task executed by repair::run_repair (args:
/// stripe, outcome, retries) and the enclosing run.
inline constexpr Layer kRepairTask{11, "repair_task", "repair"};
inline constexpr Layer kRepairRun{12, "repair_run", "repair"};
inline constexpr Layer kCacheInsert{13, "insert", "solve_cache"};

inline constexpr const Layer* kAll[] = {
    &kSolve,      &kEliminationSolve, &kChainBuild,  &kEvaluate,
    &kCell,       &kSimCell,          &kClaim,       &kRender,
    &kChunk,      &kResultSetRead,    &kDiff,        &kRepairTask,
    &kRepairRun,  &kCacheInsert,
};
inline constexpr std::size_t kCount = sizeof(kAll) / sizeof(kAll[0]);

static_assert(
    [] {
      for (std::size_t i = 0; i < kCount; ++i) {
        if (kAll[i]->id != i) return false;
      }
      return true;
    }(),
    "layer ids must be their index in layer::kAll");

}  // namespace layer

}  // namespace nsrel::obs
