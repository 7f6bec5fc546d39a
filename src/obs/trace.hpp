// Trace-span recorder emitting Chrome/Perfetto `trace_event` JSON.
//
// Spans come from obs::Probe (obs/probe.hpp): a probe's destruction
// records one complete ("ph":"X") event into the calling thread's private
// buffer. The recorder's gate is the trace bit of the probes' one gate.
// Buffers are merged only when the trace is written (after all parallel
// work has been joined), so recording never takes a lock on the hot path.
//
// The output loads directly into chrome://tracing and ui.perfetto.dev:
// a top-level {"traceEvents": [...]} object whose events carry name,
// category, microsecond timestamps relative to begin(), a stable
// per-thread lane id, and the span's key/value args. "otherData" embeds
// the build identity (semver, git SHA, compiler, build type) so every
// trace self-identifies the binary it came from.
//
// Span name/category come from the layer registry (events store the
// pointers); args copy their values and may be dynamic.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/probe.hpp"
#include "util/sync.hpp"

namespace nsrel::obs {

struct TraceEvent {
  const char* name = "";      ///< string literal
  const char* category = "";  ///< string literal
  std::uint64_t start_ns = 0;  ///< absolute steady-clock ns
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::vector<TraceArg> args;
};

class TraceRecorder {
 public:
  /// The process-wide recorder (leaked, like the metrics registry).
  static TraceRecorder& instance();

  /// The trace bit of the probe gate: one relaxed load.
  [[nodiscard]] static bool enabled() {
    return (armed_sinks() & kTraceSink) != 0;
  }

  /// Clears every buffer, stamps the trace epoch, and starts recording.
  void begin();

  /// Stops recording (buffered events are kept until clear()).
  void disable();

  /// Writes the trace_event JSON document. Call only after parallel work
  /// has been joined — live buffers are read under the registration lock.
  void write(std::ostream& out) const;

  /// write() to `path`, then disable. Returns false when the file cannot
  /// be created or the stream fails.
  [[nodiscard]] bool write_file(const std::string& path);

  /// Drops all buffered events.
  void clear();

  /// Appends an event to the calling thread's buffer (no-op if disabled).
  void record(TraceEvent event);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  TraceRecorder() = default;
  ~TraceRecorder() = default;

  struct Buffer;
  friend struct BufferHolder;

  Buffer& local_buffer();
  void retire(Buffer* buffer);

  // Relaxed probe (see tools/lint/atomics.tsv).
  std::atomic<std::uint64_t> epoch_ns_{0};
  mutable util::Mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> owned_ NSREL_GUARDED_BY(mutex_);
  std::vector<Buffer*> active_ NSREL_GUARDED_BY(mutex_);
  std::vector<Buffer*> free_ NSREL_GUARDED_BY(mutex_);
  std::vector<TraceEvent> retired_events_ NSREL_GUARDED_BY(mutex_);
  std::uint32_t next_tid_ NSREL_GUARDED_BY(mutex_) = 0;
};

}  // namespace nsrel::obs
