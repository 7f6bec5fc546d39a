// Flight recorder: a bounded, lock-free per-thread ring journal of
// typed structured events — the machine-readable record of *what
// happened* during a run, complementing the registry's aggregate
// counters and the trace recorder's wall-clock spans.
//
// Hot-path design mirrors the metrics registry: recording is compiled
// in everywhere and costs a single relaxed atomic load when the journal
// is disabled (the default) — its gate is the journal bit of the probe
// gate (obs/probe.hpp). When enabled, each thread appends to its
// own fixed-capacity ring that it alone touches — no locks, no
// allocation, no clock reads. A full ring overwrites its oldest events
// (flight-recorder semantics) and counts the overwrites.
//
// Determinism: events carry no wall-clock time. They are stamped with a
// deterministic 64-bit sequence scope — the engine derives it from the
// grid cell index, the Monte-Carlo runner from the chunk index, the
// repair engine from its serial event counter (plus sim-time for the
// sim-clock domain) — so the exported journal is byte-identical at any
// `--jobs` value. Events sharing a scope keep their single-thread
// emission order (export is one stable sort by seq; every scope is
// written by exactly one thread as one contiguous ring run).
//
// Drain contract: drain() flushes only the *calling* thread's ring;
// rings of exited threads were already folded in at thread exit (the
// same retire-on-exit pattern as the registry's shards). Callers drain
// at joins/barriers — after the engine's pool is destroyed, after the
// sim runner's waves are joined, at each repair barrier — which is
// exactly when every event is guaranteed to be in the caller's ring or
// a retired one. Live rings of other threads are never read.
//
// Event names must come from the registry in probe_names.hpp (string
// literals — events store the pointers); tools/nsrel-lint enforces it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/probe.hpp"
#include "util/sync.hpp"

namespace nsrel::obs {

/// Which deterministic clock stamps the event: a monotonic sequence
/// scope (engine cells, sim chunks, cache/solve activity) or repair
/// simulated seconds (which additionally carries a serial sequence so
/// equal-time events keep a total order).
enum class ClockDomain : unsigned char { kSequence, kSimTime };

/// One typed key/value argument. Keys are string literals; values are
/// integers, doubles, or string literals — nothing owning, so an Event
/// is trivially copyable and ring slots never allocate.
struct EventArg {
  enum class Kind : unsigned char { kNone, kUint, kDouble, kLiteral };

  const char* key = "";
  Kind kind = Kind::kNone;
  std::uint64_t uint_value = 0;
  double double_value = 0.0;
  const char* literal_value = "";
};

/// Arguments per event; enough for the widest event (cell.claim).
inline constexpr std::size_t kMaxEventArgs = 4;

/// One journal event. Build with seq_event()/sim_event() and the
/// fluent arg() overloads:
///
///   Journal::instance().record(
///       seq_event(event::kCellClaim).arg("cell", index));
///
/// Args past kMaxEventArgs are dropped silently (a probe never throws).
struct Event {
  const char* name = "";  ///< from probe_names.hpp (pointer is stored)
  ClockDomain domain = ClockDomain::kSequence;
  std::uint64_t seq = 0;
  double sim_seconds = 0.0;  ///< kSimTime domain only
  std::uint32_t arg_count = 0;
  std::array<EventArg, kMaxEventArgs> args{};

  Event& arg(const char* key, std::uint64_t value);
  Event& arg(const char* key, double value);
  Event& arg(const char* key, const char* literal);

 private:
  EventArg& next_arg();
};

/// The calling thread's current sequence scope (0 outside any scope).
/// Parallel subsystems set it before emitting events so every event a
/// worker records is stamped with a schedule-independent position.
[[nodiscard]] std::uint64_t current_scope();

/// RAII sequence scope: sets the calling thread's scope, restores the
/// previous one on destruction. Thread-local — a scope set on the
/// submitting thread is NOT visible inside pool workers; pass the value
/// explicitly into the task and re-establish it there.
class ScopeGuard {
 public:
  explicit ScopeGuard(std::uint64_t scope);
  ~ScopeGuard();

  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  std::uint64_t saved_;
};

/// Sequence-domain event stamped with the calling thread's scope.
[[nodiscard]] Event seq_event(const char* name);

/// Sim-time-domain event (repair engine): `seq` is the engine's serial
/// event counter, `sim_seconds` the simulated clock at emission.
[[nodiscard]] Event sim_event(const char* name, std::uint64_t seq,
                              double sim_seconds);

class Journal {
 public:
  /// Ring capacity per thread. Full rings overwrite their oldest
  /// events; dropped() reports how many were lost.
  static constexpr std::size_t kRingCapacity = 4096;

  /// The process-wide journal (leaked, like the metrics registry:
  /// thread-exit ring retirement must always find a live instance).
  static Journal& instance();

  /// The journal bit of the probe gate: one relaxed load. All recording
  /// no-ops when off.
  [[nodiscard]] static bool enabled() {
    return (armed_sinks() & kJournalSink) != 0;
  }

  /// Clears every ring and starts recording. Call before spawning
  /// parallel work (live rings are reset in place).
  void begin();

  /// Stops recording. Buffered and committed events survive until the
  /// next begin()/clear(), so a journal can be exported after disable.
  void disable();

  /// Drops all buffered and committed events and zeroes dropped().
  void clear();

  /// Appends to the calling thread's ring (no-op while disabled).
  void record(const Event& event);

  /// Flushes the calling thread's ring into the committed list. Call
  /// only at joins/barriers — after every other writer has exited (and
  /// thus retired its ring) or is idle between batches.
  void drain();

  /// All committed events, stable-sorted by sequence scope. Call after
  /// a final drain(); the result is deterministic at any --jobs.
  [[nodiscard]] std::vector<Event> events() const;

  /// Events lost to ring overwrites since begin().
  [[nodiscard]] std::uint64_t dropped() const;

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

 private:
  Journal() = default;
  ~Journal() = default;

  struct Ring;
  friend struct RingHolder;

  Ring& local_ring();
  void retire(Ring* ring);
  void flush_locked(Ring& ring) NSREL_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::vector<std::unique_ptr<Ring>> owned_ NSREL_GUARDED_BY(mutex_);
  std::vector<Ring*> active_ NSREL_GUARDED_BY(mutex_);
  std::vector<Ring*> free_ NSREL_GUARDED_BY(mutex_);
  std::vector<Event> committed_ NSREL_GUARDED_BY(mutex_);
  std::uint64_t dropped_ NSREL_GUARDED_BY(mutex_) = 0;
};

}  // namespace nsrel::obs
