#include "obs/probe.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nsrel::obs {

namespace {

/// The layer's "<category>.<name>_ns" histogram, registered on first use
/// and cached by layer id (0 = not yet resolved; registration is
/// idempotent, so two threads racing here agree on the slot).
Histogram layer_histogram(const Layer& layer) {
  static std::array<std::atomic<std::uint32_t>, layer::kCount> slots{};
  std::uint32_t slot = slots[layer.id].load(std::memory_order_relaxed);
  if (slot == 0) {
    const std::string name =
        std::string(layer.category) + "." + layer.name + "_ns";
    slot = Registry::instance().histogram(name).slot;
    slots[layer.id].store(slot, std::memory_order_relaxed);
  }
  return Histogram{slot};
}

}  // namespace

void set_armed(std::uint32_t sinks, bool on) {
  if (on) {
    detail::gate.fetch_or(sinks, std::memory_order_relaxed);
  } else {
    detail::gate.fetch_and(~sinks, std::memory_order_relaxed);
  }
}

void Probe::open() {
  if ((sinks_ & (kTraceSink | kMetricsSink)) != 0) start_ns_ = now_ns();
  if ((sinks_ & kJournalSink) != 0 && layer_.journal_start != nullptr) {
    Journal::instance().record(seq_event(layer_.journal_start));
  }
}

void Probe::close() {
  if (start_ns_ != 0) {
    const std::uint64_t dur_ns = now_ns() - start_ns_;
    if ((sinks_ & kMetricsSink) != 0) {
      Registry::instance().record(layer_histogram(layer_), dur_ns);
    }
    if (tracing()) {
      TraceRecorder::instance().record({layer_.name, layer_.category,
                                        start_ns_, dur_ns, 0,
                                        std::move(args_)});
    }
  }
  if ((sinks_ & kJournalSink) != 0 && layer_.journal_end != nullptr) {
    Event event = seq_event(layer_.journal_end);
    if (outcome_ != nullptr) event.arg("outcome", outcome_);
    Journal::instance().record(event);
  }
}

void Probe::push_arg(const char* key, std::string value, bool quoted) {
  args_.push_back({key, std::move(value), quoted});
}

}  // namespace nsrel::obs
