// The one instrumentation entry point: `obs::Probe probe(layer::kX);`
// around a layer's work feeds every armed sink from one declaration —
//   - the trace recorder: one complete span (name, category, args);
//   - the metrics registry: one "<category>.<name>_ns" duration sample;
//   - the journal: the layer's start/end event pair, for layers whose
//     registry entry names one (the end event carries the outcome).
//
// One gate: which sinks are armed is one relaxed atomic mask, shared by
// the Registry, TraceRecorder and Journal gates (their enabled() is a
// bit of it). A Probe samples the mask once at construction, so a
// disarmed Probe costs one relaxed load — no clock read, no allocation.
// A sink disarmed while a probe is open drops that probe's record.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/probe_names.hpp"

namespace nsrel::obs {

/// The sinks, as bits of the gate mask.
enum Sink : std::uint32_t {
  kTraceSink = 1U << 0,
  kMetricsSink = 1U << 1,
  kJournalSink = 1U << 2,
};

namespace detail {
// The armed-sinks mask (see tools/lint/atomics.tsv). Constant-initialized,
// so reading it needs no guard.
inline std::atomic<std::uint32_t> gate{0};
}  // namespace detail

/// The armed sinks: one relaxed load.
[[nodiscard]] inline std::uint32_t armed_sinks() {
  return detail::gate.load(std::memory_order_relaxed);
}

/// Arms or disarms the given sinks (a mask of Sink bits).
void set_armed(std::uint32_t sinks, bool on);

/// One key/value arg of a trace span.
struct TraceArg {
  std::string key;
  std::string value;  ///< pre-rendered; emitted quoted or raw per `quoted`
  bool quoted = true;
};

/// RAII probe of one layer. arg() attaches a span arg (stored only while
/// tracing — guard expensive value construction with tracing()).
class Probe {
 public:
  explicit Probe(const Layer& layer) : layer_(layer), sinks_(armed_sinks()) {
    if (sinks_ != 0) open();
  }
  ~Probe() {
    if (sinks_ != 0) close();
  }

  [[nodiscard]] bool tracing() const { return (sinks_ & kTraceSink) != 0; }

  void arg(const char* key, std::string value) {
    if (tracing()) push_arg(key, std::move(value), /*quoted=*/true);
  }
  void arg(const char* key, const char* value) {
    if (tracing()) push_arg(key, value, /*quoted=*/true);
  }
  void arg(const char* key, std::uint64_t value) {
    if (tracing()) push_arg(key, std::to_string(value), /*quoted=*/false);
  }

  /// Sets the `outcome` arg of the layer's journal end event ("ok" or a
  /// stable error code name; a string literal).
  void outcome(const char* code) { outcome_ = code; }

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

 private:
  void open();
  void close();
  void push_arg(const char* key, std::string value, bool quoted);

  const Layer& layer_;
  std::uint32_t sinks_;
  std::uint64_t start_ns_ = 0;
  const char* outcome_ = nullptr;
  std::vector<TraceArg> args_;
};

}  // namespace nsrel::obs
