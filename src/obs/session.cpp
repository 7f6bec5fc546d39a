#include "obs/session.hpp"

#include <ostream>
#include <utility>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"

namespace nsrel::obs {

Session::Session(Options options) : options_(std::move(options)) {
  if (options_.metrics || options_.registry) {
    Registry::instance().reset();
    Registry::instance().set_enabled(true);
  }
  if (options_.journal) Journal::instance().begin();
  if (!options_.trace_path.empty()) TraceRecorder::instance().begin();
}

Session::~Session() {
  if (!finished_) set_armed(kTraceSink | kMetricsSink | kJournalSink, false);
}

bool Session::finish(std::ostream& err) {
  if (finished_) return true;
  finished_ = true;
  bool ok = true;
  if (!options_.trace_path.empty()) {
    if (!TraceRecorder::instance().write_file(options_.trace_path)) {
      err << "cannot write trace file '" << options_.trace_path << "'\n";
      ok = false;
    }
  }
  if (options_.journal) {
    // Command bodies drain at their own joins/barriers; this final
    // drain catches events recorded on this thread since the last one.
    Journal::instance().drain();
    Journal::instance().disable();
  }
  if (options_.metrics || options_.registry) {
    Registry::instance().set_enabled(false);
    if (options_.metrics) {
      print_metrics_block(Registry::instance().snapshot(), err);
    }
  }
  return ok;
}

}  // namespace nsrel::obs
