#include "obs/trace.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "util/sync.hpp"

namespace nsrel::obs {

namespace {

/// Minimal JSON string escaping (the obs layer sits below src/report, so
/// it cannot reuse report::json_escape without a dependency cycle).
std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Nanoseconds as trace_event microseconds with sub-us precision.
std::string as_us(std::uint64_t ns) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buffer;
}

}  // namespace

/// One thread's private event buffer plus its stable lane id.
struct TraceRecorder::Buffer {
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
};

/// Namespace scope (not anonymous) so the TraceRecorder friend
/// declaration names this exact type.
struct BufferHolder {
  TraceRecorder::Buffer* buffer = nullptr;
  ~BufferHolder() {
    if (buffer != nullptr) TraceRecorder::instance().retire(buffer);
  }
};

namespace {
thread_local BufferHolder tls_buffer;
}  // namespace

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder* leaked = new TraceRecorder;
  return *leaked;
}

void TraceRecorder::begin() {
  clear();
  epoch_ns_.store(now_ns(), std::memory_order_relaxed);
  set_armed(kTraceSink, true);
}

void TraceRecorder::disable() {
  set_armed(kTraceSink, false);
}

void TraceRecorder::clear() {
  const util::MutexLock lock(mutex_);
  retired_events_.clear();
  for (Buffer* buffer : active_) buffer->events.clear();
  for (Buffer* buffer : free_) buffer->events.clear();
}

TraceRecorder::Buffer& TraceRecorder::local_buffer() {
  if (tls_buffer.buffer == nullptr) {
    const util::MutexLock lock(mutex_);
    if (!free_.empty()) {
      tls_buffer.buffer = free_.back();
      free_.pop_back();
    } else {
      owned_.push_back(std::make_unique<Buffer>());
      tls_buffer.buffer = owned_.back().get();
      tls_buffer.buffer->tid = next_tid_++;
    }
    active_.push_back(tls_buffer.buffer);
  }
  return *tls_buffer.buffer;
}

void TraceRecorder::retire(Buffer* buffer) {
  const util::MutexLock lock(mutex_);
  retired_events_.insert(retired_events_.end(),
                         std::make_move_iterator(buffer->events.begin()),
                         std::make_move_iterator(buffer->events.end()));
  buffer->events.clear();
  active_.erase(std::find(active_.begin(), active_.end(), buffer));
  free_.push_back(buffer);
}

void TraceRecorder::record(TraceEvent event) {
  if (!enabled()) return;
  Buffer& buffer = local_buffer();
  event.tid = buffer.tid;
  buffer.events.push_back(std::move(event));
}

void TraceRecorder::write(std::ostream& out) const {
  const util::MutexLock lock(mutex_);
  const std::uint64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  out << "{\n  \"traceEvents\": [";
  bool first = true;
  const auto emit = [&](const TraceEvent& event) {
    out << (first ? "\n" : ",\n");
    first = false;
    const std::uint64_t rel =
        event.start_ns >= epoch ? event.start_ns - epoch : 0;
    out << "    {\"name\": \"" << escape(event.name) << "\", \"cat\": \""
        << escape(event.category) << "\", \"ph\": \"X\", \"ts\": "
        << as_us(rel) << ", \"dur\": " << as_us(event.dur_ns)
        << ", \"pid\": 1, \"tid\": " << event.tid;
    if (!event.args.empty()) {
      out << ", \"args\": {";
      for (std::size_t i = 0; i < event.args.size(); ++i) {
        if (i != 0) out << ", ";
        out << "\"" << escape(event.args[i].key) << "\": ";
        if (event.args[i].quoted) {
          out << "\"" << escape(event.args[i].value) << "\"";
        } else {
          out << event.args[i].value;
        }
      }
      out << "}";
    }
    out << "}";
  };
  for (const TraceEvent& event : retired_events_) emit(event);
  for (const Buffer* buffer : active_) {
    for (const TraceEvent& event : buffer->events) emit(event);
  }
  const BuildInfo& build = build_info();
  out << "\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {"
      << "\"semver\": \"" << escape(build.semver) << "\", \"git_sha\": \""
      << escape(build.git_sha) << "\", \"compiler\": \""
      << escape(build.compiler) << "\", \"build_type\": \""
      << escape(build.build_type) << "\"}\n}\n";
}

bool TraceRecorder::write_file(const std::string& path) {
  disable();
  std::ofstream out(path);
  if (!out) return false;
  write(out);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace nsrel::obs
