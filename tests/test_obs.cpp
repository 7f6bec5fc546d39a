// Tests for the observability layer: metrics-registry merge exactness
// (TSan-covered), trace-file validity, the version/--metrics/--progress/
// --cache-stats CLI surface, and the nsrel-bench-v1 writer — plus the
// central invariant that stdout is byte-identical with observability on
// or off, at any jobs count.
#include <cstddef>
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../bench/bench_common.hpp"
#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "obs/build_info.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "report/json_parse.hpp"
#include "scenario/scenario.hpp"
#include "util/thread_pool.hpp"

namespace nsrel {
namespace {

// --- Minimal recursive-descent JSON validator -------------------------
// Syntax-only: enough to prove the trace/bench documents are loadable by
// any real JSON parser (Perfetto included).

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool valid_json(const std::string& text) {
  return JsonValidator(text).valid();
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Enables the registry for the test body, restoring the disabled
/// default afterwards so tests do not leak state into one another.
struct RegistryScope {
  RegistryScope() {
    obs::Registry::instance().reset();
    obs::Registry::instance().set_enabled(true);
  }
  ~RegistryScope() {
    obs::Registry::instance().set_enabled(false);
    obs::Registry::instance().reset();
  }
};

// --- Metrics registry -------------------------------------------------

TEST(ObsRegistry, DisabledByDefaultAndProbesAreNoOps) {
  auto& registry = obs::Registry::instance();
  registry.reset();
  ASSERT_FALSE(obs::Registry::enabled());
  const obs::Counter counter = registry.counter("test.noop");
  registry.add(counter, 17);
  const auto snap = registry.snapshot();
  for (const auto& row : snap.counters) {
    if (row.name == "test.noop") {
      EXPECT_EQ(row.value, 0u);
    }
  }
}

TEST(ObsRegistry, ConcurrentIncrementsMergeExactly) {
  const RegistryScope scope;
  auto& registry = obs::Registry::instance();
  const obs::Counter counter = registry.counter("test.merge");
  const obs::Histogram histogram = registry.histogram("test.merge_ns");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, counter, histogram] {
      for (int i = 0; i < kIncrements; ++i) {
        registry.add(counter);
        registry.record(histogram, static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto snap = registry.snapshot();
  bool found_counter = false;
  for (const auto& row : snap.counters) {
    if (row.name != "test.merge") continue;
    found_counter = true;
    // Exact: after joining every incrementing thread the merge of live
    // shards plus retired totals loses nothing.
    EXPECT_EQ(row.value, static_cast<std::uint64_t>(kThreads) * kIncrements);
  }
  ASSERT_TRUE(found_counter);
  for (const auto& row : snap.histograms) {
    if (row.name != "test.merge_ns") continue;
    EXPECT_EQ(row.count, static_cast<std::uint64_t>(kThreads) * kIncrements);
    EXPECT_EQ(row.min, 0u);
    EXPECT_EQ(row.max, static_cast<std::uint64_t>(kIncrements - 1));
  }
}

TEST(ObsRegistry, HistogramSummaryStatistics) {
  const RegistryScope scope;
  auto& registry = obs::Registry::instance();
  const obs::Histogram histogram = registry.histogram("test.hist");
  for (const std::uint64_t v : {1u, 2u, 4u, 8u, 1000u}) {
    registry.record(histogram, v);
  }
  const auto snap = registry.snapshot();
  for (const auto& row : snap.histograms) {
    if (row.name != "test.hist") continue;
    EXPECT_EQ(row.count, 5u);
    EXPECT_EQ(row.sum, 1015u);
    EXPECT_EQ(row.min, 1u);
    EXPECT_EQ(row.max, 1000u);
    EXPECT_DOUBLE_EQ(row.mean(), 203.0);
    // Quantile bounds are log2 bucket upper bounds (nearest-rank): the
    // median of {1,2,4,8,1000} is 4 (bound 7); the top quantile lands
    // in the bucket holding 1000 (2^10 - 1 = 1023).
    EXPECT_EQ(row.quantile_bound(0.50), 7u);
    EXPECT_EQ(row.quantile_bound(1.0), 1023u);
  }
}

TEST(ObsRegistry, RegistrationIsIdempotent) {
  auto& registry = obs::Registry::instance();
  const obs::Counter a = registry.counter("test.same");
  const obs::Counter b = registry.counter("test.same");
  EXPECT_EQ(a.slot, b.slot);
}

TEST(ObsRegistry, ResetZeroesValuesButKeepsHandles) {
  const RegistryScope scope;
  auto& registry = obs::Registry::instance();
  const obs::Counter counter = registry.counter("test.reset");
  registry.add(counter, 5);
  registry.reset();
  registry.add(counter, 2);
  const auto snap = registry.snapshot();
  for (const auto& row : snap.counters) {
    if (row.name == "test.reset") {
      EXPECT_EQ(row.value, 2u);
    }
  }
}

TEST(ObsRegistry, MetricsBlockRendersCountersAndHistograms) {
  const RegistryScope scope;
  auto& registry = obs::Registry::instance();
  registry.add(registry.counter("test.block"), 3);
  registry.record(registry.histogram("test.block_ns"), 128);
  std::ostringstream out;
  obs::print_metrics_block(registry.snapshot(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("== nsrel metrics =="), std::string::npos);
  EXPECT_NE(text.find("test.block = 3"), std::string::npos);
  EXPECT_NE(text.find("test.block_ns"), std::string::npos);
  // The histogram line carries bucket-derived percentile bounds.
  EXPECT_NE(text.find("p50<"), std::string::npos);
  EXPECT_NE(text.find("p90<"), std::string::npos);
  EXPECT_NE(text.find("p99<"), std::string::npos);
  EXPECT_NE(text.find("== end metrics =="), std::string::npos);
}

TEST(ObsThreadPool, RecordsSubmitAndCompletionCounts) {
  const RegistryScope scope;
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> done;
    done.reserve(8);
    for (int i = 0; i < 8; ++i) {
      done.push_back(pool.submit([] {}));
    }
    for (auto& f : done) f.get();
  }  // pool joined: worker shards retired, totals exact
  const auto snap = obs::Registry::instance().snapshot();
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  for (const auto& row : snap.counters) {
    if (row.name == "thread_pool.submitted") submitted = row.value;
    if (row.name == "thread_pool.completed") completed = row.value;
  }
  EXPECT_EQ(submitted, 8u);
  EXPECT_EQ(completed, 8u);
}

// --- Trace recorder ---------------------------------------------------

TEST(ObsTrace, SpansProduceValidTraceEventJson) {
  obs::TraceRecorder::instance().begin();
  {
    obs::Probe probe(obs::layer::kRender);
    probe.arg("label", "value with \"quotes\"");
    probe.arg("index", std::uint64_t{7});
  }
  { const obs::Probe inner(obs::layer::kDiff); }
  obs::TraceRecorder::instance().disable();

  std::ostringstream out;
  obs::TraceRecorder::instance().write(out);
  const std::string text = out.str();
  obs::TraceRecorder::instance().clear();

  EXPECT_TRUE(valid_json(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"render\", \"cat\": \"engine\""),
            std::string::npos);
  EXPECT_NE(text.find("\"name\": \"diff\", \"cat\": \"report\""),
            std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\": "), std::string::npos);
  EXPECT_NE(text.find("\"dur\": "), std::string::npos);
  EXPECT_NE(text.find("\"pid\": "), std::string::npos);
  EXPECT_NE(text.find("\"tid\": "), std::string::npos);
  EXPECT_NE(text.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(text.find("\"index\": 7"), std::string::npos);
  // Build identity travels with every trace.
  EXPECT_NE(text.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(text.find(obs::build_info().semver), std::string::npos);
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  obs::TraceRecorder::instance().clear();
  ASSERT_FALSE(obs::TraceRecorder::enabled());
  {
    obs::Probe probe(obs::layer::kRender);
    EXPECT_FALSE(probe.tracing());
    probe.arg("should_not_appear", "value");
  }
  std::ostringstream out;
  obs::TraceRecorder::instance().write(out);
  EXPECT_EQ(out.str().find("render"), std::string::npos);
  EXPECT_EQ(out.str().find("should_not_appear"), std::string::npos);
  EXPECT_TRUE(valid_json(out.str()));
}

// --- Probe: one declaration, every armed sink -------------------------

/// What one probe left in each sink: trace spans named `span`, samples
/// of `histogram`, and the journal's events.
struct SinkRecords {
  std::size_t spans = 0;
  std::uint64_t samples = 0;
  std::vector<obs::Event> events;
};

SinkRecords run_solve_probe(bool armed) {
  obs::Registry::instance().reset();
  obs::TraceRecorder::instance().clear();
  obs::Journal::instance().clear();
  if (armed) {
    obs::Registry::instance().set_enabled(true);
    obs::TraceRecorder::instance().begin();
    obs::Journal::instance().begin();
  }
  {
    obs::Probe probe(obs::layer::kSolve);
    probe.arg("cache", "miss");
    probe.outcome("ok");
  }
  obs::Registry::set_enabled(false);
  obs::TraceRecorder::instance().disable();
  obs::Journal::instance().drain();
  obs::Journal::instance().disable();

  SinkRecords records;
  std::ostringstream trace;
  obs::TraceRecorder::instance().write(trace);
  records.spans = count_occurrences(
      trace.str(), "\"name\": \"solve\", \"cat\": \"core\"");
  for (const auto& row : obs::Registry::instance().snapshot().histograms) {
    if (row.name == "core.solve_ns") records.samples = row.count;
  }
  records.events = obs::Journal::instance().events();
  obs::Registry::instance().reset();
  obs::TraceRecorder::instance().clear();
  obs::Journal::instance().clear();
  return records;
}

TEST(ObsProbe, ArmedProbeFeedsEachSinkOnce) {
  const SinkRecords records = run_solve_probe(/*armed=*/true);
  EXPECT_EQ(records.spans, 1u);
  EXPECT_EQ(records.samples, 1u);
  ASSERT_EQ(records.events.size(), 2u);
  EXPECT_STREQ(records.events[0].name, obs::event::kSolveStart);
  EXPECT_EQ(records.events[0].arg_count, 0u);
  EXPECT_STREQ(records.events[1].name, obs::event::kSolveEnd);
  ASSERT_EQ(records.events[1].arg_count, 1u);
  EXPECT_STREQ(records.events[1].args[0].key, "outcome");
  EXPECT_STREQ(records.events[1].args[0].literal_value, "ok");
}

TEST(ObsProbe, DisarmedProbeFeedsNothing) {
  ASSERT_EQ(obs::armed_sinks(), 0u);
  const SinkRecords records = run_solve_probe(/*armed=*/false);
  EXPECT_EQ(records.spans, 0u);
  EXPECT_EQ(records.samples, 0u);
  EXPECT_TRUE(records.events.empty());
}

TEST(ObsProbe, LayersWithoutAJournalPairRecordNoEvents) {
  obs::Journal::instance().begin();
  { const obs::Probe probe(obs::layer::kRender); }
  obs::Journal::instance().drain();
  obs::Journal::instance().disable();
  EXPECT_TRUE(obs::Journal::instance().events().empty());
  obs::Journal::instance().clear();
}

// --- Build info / version ---------------------------------------------

TEST(ObsBuildInfo, VersionLineCarriesSemverAndCompiler) {
  const std::string line = obs::version_line();
  EXPECT_NE(line.find("nsrel "), std::string::npos);
  EXPECT_NE(line.find(obs::build_info().semver), std::string::npos);
  EXPECT_NE(line.find(obs::build_info().build_type), std::string::npos);
}

// --- CLI surface ------------------------------------------------------

struct CliResult {
  int exit_code = 0;
  std::string out;
  std::string err;
};

CliResult run_cli(std::initializer_list<const char*> tokens) {
  const cli::Args args(
      std::vector<std::string>(tokens.begin(), tokens.end()));
  std::ostringstream out;
  std::ostringstream err;
  const int rc = cli::dispatch(args, out, err);
  return {rc, out.str(), err.str()};
}

TEST(ObsCli, VersionCommandExitsZero) {
  const CliResult result = run_cli({"version"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("nsrel "), std::string::npos);
  EXPECT_NE(result.out.find("git SHA"), std::string::npos);
  EXPECT_NE(result.out.find("compiler"), std::string::npos);
  EXPECT_NE(result.out.find("build type"), std::string::npos);
}

TEST(ObsCli, VersionFlagWinsAnywhere) {
  const CliResult result = run_cli({"sweep", "--steps", "3", "--version"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("nsrel "), std::string::npos);
  EXPECT_EQ(result.out.find("sweeping"), std::string::npos);
}

TEST(ObsCli, SweepStdoutByteIdenticalWithObservabilityOnAtAnyJobs) {
  const CliResult plain = run_cli({"sweep", "--steps", "4"});
  ASSERT_EQ(plain.exit_code, 0);
  ASSERT_FALSE(plain.out.empty());

  const std::string trace1 = temp_path("obs_sweep_j1.json");
  const std::string trace8 = temp_path("obs_sweep_j8.json");
  const CliResult traced1 = run_cli({"sweep", "--steps", "4", "--jobs", "1",
                                     "--trace", trace1.c_str(), "--metrics"});
  const CliResult traced8 = run_cli({"sweep", "--steps", "4", "--jobs", "8",
                                     "--trace", trace8.c_str(), "--metrics"});
  EXPECT_EQ(traced1.exit_code, 0);
  EXPECT_EQ(traced8.exit_code, 0);
  // The tentpole invariant: tracing/metrics on or off, jobs 1 or 8 —
  // stdout is the same bytes.
  EXPECT_EQ(plain.out, traced1.out);
  EXPECT_EQ(plain.out, traced8.out);
  // The metrics block goes to stderr only.
  EXPECT_NE(traced1.err.find("== nsrel metrics =="), std::string::npos);
  EXPECT_NE(traced1.err.find("solve_cache.misses"), std::string::npos);
  EXPECT_EQ(plain.err.find("metrics"), std::string::npos);

  // Both trace files are valid JSON with one span per cell.
  for (const std::string& path : {trace1, trace8}) {
    const std::string text = slurp(path);
    ASSERT_FALSE(text.empty()) << path;
    EXPECT_TRUE(valid_json(text)) << path;
    EXPECT_GE(count_occurrences(text, "\"name\": \"cell\""), 4u) << path;
    EXPECT_GE(count_occurrences(text, "\"name\": \"evaluate\""), 1u) << path;
    EXPECT_GE(count_occurrences(text, "\"name\": \"solve\""), 1u) << path;
    EXPECT_NE(text.find("\"outcome\": \"ok\""), std::string::npos) << path;
  }
}

/// Total "dur" (microseconds) of the trace's spans with this name.
double span_total_us(const std::string& trace, const std::string& name) {
  const std::string key = "{\"name\": \"" + name + "\"";
  double total = 0.0;
  for (std::size_t at = trace.find(key); at != std::string::npos;
       at = trace.find(key, at + key.size())) {
    const std::size_t dur = trace.find("\"dur\": ", at);
    if (dur == std::string::npos) break;
    total += std::strtod(trace.c_str() + dur + 7, nullptr);
  }
  return total;
}

TEST(ObsCli, ChainBuildAndEliminationCoverTheSolveSpan) {
  // An ft 14 NIR analyze (32767 transient states): the failure-word walk
  // (chain_build) and the GTH kernel (elimination_solve) are nearly all
  // of the solve span, so its time is attributed to named layers.
  const std::string trace = temp_path("obs_ft14.json");
  const CliResult result =
      run_cli({"analyze", "--scheme", "none", "--ft", "14", "--r", "20",
               "--trace", trace.c_str()});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  const std::string text = slurp(trace);
  EXPECT_TRUE(valid_json(text));
  EXPECT_EQ(count_occurrences(text, "\"name\": \"chain_build\""), 1u);
  EXPECT_EQ(count_occurrences(text, "\"name\": \"elimination_solve\""), 1u);
  const double solve = span_total_us(text, "solve");
  const double named = span_total_us(text, "chain_build") +
                       span_total_us(text, "elimination_solve");
  ASSERT_GT(solve, 0.0);
  EXPECT_GE(named, 0.95 * solve) << "named " << named << " us of " << solve;
  EXPECT_LE(named, solve);
}

/// The umbrella spans: their self time is what no leaf layer names.
bool is_umbrella(const std::string& name) {
  return name == "evaluate" || name == "claim" || name == "cell" ||
         name == "solve";
}

/// Self time (us) of the umbrella spans and the duration (us) of the
/// evaluate span, from one trace document.
std::pair<double, double> umbrella_self_and_evaluate_us(
    const std::string& text) {
  const Expected<report::JsonValue> doc = report::parse_json(text);
  EXPECT_TRUE(doc.has_value());
  if (!doc.has_value()) return {0.0, 0.0};
  struct Span {
    std::string name;
    double ts = 0.0;
    double dur = 0.0;
  };
  std::map<double, std::vector<Span>> by_tid;
  for (const report::JsonValue& event : doc.value().find("traceEvents")->items) {
    by_tid[event.find("tid")->number].push_back(
        {event.find("name")->text, event.find("ts")->number,
         event.find("dur")->number});
  }
  double umbrella_self = 0.0;
  double evaluate = 0.0;
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
    });
    std::vector<const Span*> stack;
    for (const Span& span : spans) {
      while (!stack.empty() && span.ts >= stack.back()->ts + stack.back()->dur) {
        stack.pop_back();
      }
      if (!stack.empty() && is_umbrella(stack.back()->name)) {
        umbrella_self -= span.dur;
      }
      if (is_umbrella(span.name)) umbrella_self += span.dur;
      if (span.name == "evaluate") evaluate += span.dur;
      stack.push_back(&span);
    }
  }
  return {umbrella_self, evaluate};
}

TEST(ObsProbe, LeafLayersCoverTheEvaluateSpanOfAnFt8Sweep) {
  // A 16-point drive-MTTF sweep at FT8: every point a distinct chain.
  // Named leaf layers (chain build, elimination, cache insert) must
  // account for >= 95% of the evaluate span; what is left is the self
  // time of the umbrella spans (key building, cache lookup, the rebuild
  // planner, result fields: about 3% here, warm). Best of three runs, so
  // a busy host stretching one run's bookkeeping does not fail the test.
  double best = 1.0;
  for (int run = 0; run < 3 && best > 0.05; ++run) {
    const std::string trace = temp_path("obs_ft8_sweep.json");
    const CliResult result = run_cli(
        {"sweep", "--param", "drive-mttf", "--from", "1e5", "--to", "8e5",
         "--steps", "16", "--scheme", "none", "--ft", "8", "--r", "12",
         "--trace", trace.c_str()});
    ASSERT_EQ(result.exit_code, 0) << result.err;
    const auto [umbrella, evaluate] =
        umbrella_self_and_evaluate_us(slurp(trace));
    ASSERT_GT(evaluate, 0.0);
    best = std::min(best, umbrella / evaluate);
  }
  EXPECT_LE(best, 0.05) << "umbrella self time is " << best * 100.0
                        << "% of the evaluate span";
}

TEST(ObsCli, MetricsAndTraceLeaveExitCodeAlone) {
  // A failing command still writes observability output and keeps its
  // own exit code (usage error 4 for the unknown flag).
  const std::string trace = temp_path("obs_fail.json");
  const CliResult result = run_cli(
      {"sweep", "--bogus-flag", "1", "--trace", trace.c_str(), "--metrics"});
  EXPECT_EQ(result.exit_code, cli::kExitUsage);
  EXPECT_NE(result.err.find("== nsrel metrics =="), std::string::npos);
  EXPECT_TRUE(valid_json(slurp(trace)));
}

TEST(ObsCli, ProgressWritesToStderrOnly) {
  const CliResult plain = run_cli({"sweep", "--steps", "3"});
  const CliResult progress = run_cli({"sweep", "--steps", "3", "--progress"});
  EXPECT_EQ(progress.exit_code, 0);
  EXPECT_EQ(plain.out, progress.out);
  // The final line always reports completion.
  EXPECT_NE(progress.err.find("cells: 3/3"), std::string::npos);
}

TEST(ObsCli, SimulateProgressAndDeterminismAcrossJobs) {
  const auto base = {"simulate", "--trials", "128",   "--chunk", "16",
                     "--node-mttf", "500", "--drive-mttf", "400"};
  const CliResult plain = run_cli(base);
  ASSERT_EQ(plain.exit_code, 0);
  const std::string trace = temp_path("obs_sim.json");
  const CliResult observed = run_cli(
      {"simulate", "--trials", "128", "--chunk", "16", "--node-mttf", "500",
       "--drive-mttf", "400", "--progress", "--metrics", "--trace",
       trace.c_str()});
  EXPECT_EQ(observed.exit_code, 0);
  EXPECT_EQ(plain.out, observed.out);
  EXPECT_NE(observed.err.find("chunks: 8/8"), std::string::npos);
  const std::string text = slurp(trace);
  EXPECT_TRUE(valid_json(text));
  EXPECT_EQ(count_occurrences(text, "\"name\": \"chunk\""), 8u);
  EXPECT_NE(text.find("\"stream\": "), std::string::npos);
}

TEST(ObsCli, CacheStatsFooterIsOptIn) {
  const CliResult plain = run_cli({"sweep", "--steps", "3"});
  EXPECT_EQ(plain.out.find("cache:"), std::string::npos);
  const CliResult footer = run_cli({"sweep", "--steps", "3", "--cache-stats"});
  EXPECT_EQ(footer.exit_code, 0);
  EXPECT_NE(footer.out.find("cache: 0 hits, 3 misses (3 lookups)"),
            std::string::npos);
}

TEST(ObsCli, CacheStatsJsonMetaIsOptIn) {
  const CliResult plain =
      run_cli({"compare", "--format", "json"});
  EXPECT_EQ(plain.out.find("\"meta\""), std::string::npos);
  const CliResult meta =
      run_cli({"compare", "--format", "json", "--cache-stats"});
  EXPECT_EQ(meta.exit_code, 0);
  EXPECT_TRUE(valid_json(meta.out));
  EXPECT_NE(meta.out.find("\"meta\""), std::string::npos);
  EXPECT_NE(meta.out.find("\"cache\""), std::string::npos);
  EXPECT_NE(meta.out.find("\"lookups\""), std::string::npos);
  // The rest of the document is unchanged: strip the meta object and
  // the schema/method prefix stays identical.
  EXPECT_NE(plain.out.find("\"schema\": \"nsrel-resultset-v3\""),
            std::string::npos);
  EXPECT_NE(meta.out.find("\"schema\": \"nsrel-resultset-v3\""),
            std::string::npos);
}

TEST(ObsScenario, TraceKeyWritesTraceFile) {
  const std::string trace = temp_path("obs_scenario.json");
  const std::string text = "[system]\nn = 16\n\n[output]\nformat = csv\n"
                           "trace = " +
                           trace + "\n";
  std::ostringstream out;
  const scenario::RunOutcome outcome =
      scenario::run_scenario_text(text, out);
  EXPECT_TRUE(outcome.all_ok());
  const std::string trace_text = slurp(trace);
  ASSERT_FALSE(trace_text.empty());
  EXPECT_TRUE(valid_json(trace_text));
  EXPECT_GE(count_occurrences(trace_text, "\"name\": \"cell\""), 3u);
}

TEST(ObsScenario, ScenarioOutputUnchangedByTraceKey) {
  const std::string base = "[system]\nn = 16\n\n[output]\nformat = csv\n";
  const std::string trace = temp_path("obs_scenario2.json");
  std::ostringstream plain_out;
  std::ostringstream traced_out;
  (void)scenario::run_scenario_text(base, plain_out);
  (void)scenario::run_scenario_text(base + "trace = " + trace + "\n",
                                    traced_out);
  EXPECT_EQ(plain_out.str(), traced_out.str());
}

// --- Bench JSON -------------------------------------------------------

TEST(ObsBenchJson, WritesValidStableSchema) {
  std::vector<bench::BenchEntry> entries;
  bench::BenchEntry timed;
  timed.name = "sweep:x";
  timed.iterations = 3;
  timed.real_ns = 1.5e6;
  timed.cpu_ns = 1.25e6;
  timed.counters.emplace_back("cells", 27.0);
  entries.push_back(timed);
  bench::BenchEntry wall_only;
  wall_only.name = "total";
  wall_only.real_ns = 2.0e9;  // cpu_ns stays < 0 → null
  entries.push_back(wall_only);

  std::ostringstream out;
  bench::write_bench_json(out, "unit_test_bench", entries);
  const std::string text = out.str();
  EXPECT_TRUE(valid_json(text)) << text;
  EXPECT_NE(text.find("\"schema\": \"nsrel-bench-v1\""), std::string::npos);
  EXPECT_NE(text.find("\"binary\": \"unit_test_bench\""), std::string::npos);
  EXPECT_NE(text.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(text.find("\"cores\": " +
                      std::to_string(std::thread::hardware_concurrency())),
            std::string::npos);
  EXPECT_NE(text.find("\"name\": \"sweep:x\""), std::string::npos);
  EXPECT_NE(text.find("\"cells\": 27"), std::string::npos);
  EXPECT_NE(text.find("\"cpu_ns\": null"), std::string::npos);
}

}  // namespace
}  // namespace nsrel
