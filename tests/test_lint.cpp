// Tests for tools/nsrel-lint: every rule must fire on its known-bad
// fixture tree (tests/lint_fixtures/<rule>/), rule-named NOLINT must
// suppress, and the committed tree must lint clean — the same gate CI
// runs, so a finding fails here before it fails there.
//
// The linter is a Python script; each case shells out and checks exit
// status + output. If no python3 is on PATH the suite skips rather than
// fails (the container gate is CI's job, not every dev box's).
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

struct RunResult {
  int status = -1;
  std::string output;
};

/// Runs a shell command, capturing combined stdout+stderr.
RunResult run(const std::string& command) {
  RunResult result;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer{};
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int raw = ::pclose(pipe);
  result.status = (raw >= 0 && WIFEXITED(raw)) ? WEXITSTATUS(raw) : -1;
  return result;
}

bool have_python() {
  static const bool available =
      run("python3 --version").status == 0;
  return available;
}

const std::string kSource = NSREL_SOURCE_DIR;
const std::string kLint = "python3 " + kSource + "/tools/nsrel-lint";
const std::string kFixtures = kSource + "/tests/lint_fixtures";

/// Lints one fixture tree with the regex rules (no compiler needed).
RunResult lint_fixture(const std::string& name) {
  return run(kLint + " --root " + kFixtures + "/" + name + " --no-compile");
}

#define SKIP_WITHOUT_PYTHON() \
  if (!have_python()) GTEST_SKIP() << "python3 not on PATH"

TEST(NsrelLint, FiresOnNondeterministicRng) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result = lint_fixture("rng_determinism");
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find("[rng-determinism]"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("bad_rng.cpp"), std::string::npos);
}

TEST(NsrelLint, FiresOnWallClockRead) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result = lint_fixture("wall_clock");
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find("[wall-clock]"), std::string::npos)
      << result.output;
}

TEST(NsrelLint, FiresOnUnorderedContainerInOutputPathAndOnIteration) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result = lint_fixture("ordered_output");
  EXPECT_EQ(result.status, 1) << result.output;
  // Both variants: the mere presence in an output-path file, and
  // hash-order iteration anywhere in src/.
  EXPECT_NE(result.output.find("bad_render.cpp"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("bad_iter.cpp"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("[ordered-output]"), std::string::npos);
}

TEST(NsrelLint, FiresOnProbeNameLiteralAndDuplicateRegistryEntry) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result = lint_fixture("probe_registry");
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find("probe name is a string literal"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("span name is a string literal"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("duplicate probe name \"cache.hits\""),
            std::string::npos)
      << result.output;
  // A counter colliding with a layer's derived "<category>.<name>_ns"
  // histogram is a duplicate too.
  EXPECT_NE(result.output.find("duplicate probe name \"core.solve_ns\""),
            std::string::npos)
      << result.output;
}

// The event names live in the same registry and fixture: the one
// probe-registry rule also pins them against the stability table.
TEST(NsrelLint, FiresOnEventNameLiteralDuplicateAndRename) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result = lint_fixture("probe_registry");
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find("journal event name is a string literal"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("duplicate event name"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("never be reordered or renamed"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("entries may never be removed"),
            std::string::npos)
      << result.output;
}

TEST(NsrelLint, FiresOnReorderedErrorCodes) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result = lint_fixture("error_stability");
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find("[error-stability]"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("never be reordered"), std::string::npos);
}

TEST(NsrelLint, FiresOnCatchAllOutsideCliTopLevel) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result = lint_fixture("catch_all");
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find("[catch-all]"), std::string::npos)
      << result.output;
}

TEST(NsrelLint, FiresOnMissingDirectInclude) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result = lint_fixture("include_direct");
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find("[include-direct]"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("<vector>"), std::string::npos);
}

TEST(NsrelLint, FiresOnNonSelfSufficientHeader) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result =
      run(kLint + " --root " + kFixtures + "/self_sufficient" +
          " --rules include-self-sufficient -j 2");
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find("[include-self-sufficient]"),
            std::string::npos)
      << result.output;
}

TEST(NsrelLint, FiresOnUnregisteredAtomicMisorderedOpAndStaleRow) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result = lint_fixture("atomics_policy");
  EXPECT_EQ(result.status, 1) << result.output;
  // All three contract edges: an atomic with no registry row, ops whose
  // memory order conflicts with the declared role (bare default AND an
  // explicit wrong order), and a registry row whose atomic is gone —
  // the table must mirror the tree in both directions.
  EXPECT_NE(result.output.find("is not registered"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("default seq_cst"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("memory_order_acquire"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("no matching declaration"),
            std::string::npos)
      << result.output;
}

TEST(NsrelLint, FiresOnMissingNodiscardAndDiscardedTryCall) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result = lint_fixture("expected_nodiscard");
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find("must be [[nodiscard]]"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("result is discarded"), std::string::npos)
      << result.output;
  // Exactly two discard findings: the wrapped-assignment continuation
  // line in the fixture must NOT count as a discard.
  std::size_t discards = 0;
  for (std::size_t pos = result.output.find("result is discarded");
       pos != std::string::npos;
       pos = result.output.find("result is discarded", pos + 1)) {
    ++discards;
  }
  EXPECT_EQ(discards, 2u) << result.output;
}

TEST(NsrelLint, FiresOnRawSyncPrimitivesInSrc) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result = lint_fixture("sync_wrapper");
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find("[sync-wrapper]"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("std::lock_guard"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("std::condition_variable"),
            std::string::npos)
      << result.output;
}

TEST(NsrelLint, RuleNamedNolintSuppresses) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result = lint_fixture("nolint");
  EXPECT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("clean"), std::string::npos);
}

TEST(NsrelLint, RejectsUnknownRuleNames) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result =
      run(kLint + " --rules no-such-rule --no-compile");
  EXPECT_EQ(result.status, 2) << result.output;
}

// The committed tree is the most important fixture of all: the gate
// only means something while it stays green. Regex rules here; the
// header self-sufficiency compile check gets its own test below so a
// failure names the culprit rule.
TEST(NsrelLint, CommittedTreeLintsClean) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result = run(kLint + " --no-compile");
  EXPECT_EQ(result.status, 0) << result.output;
}

TEST(NsrelLint, CommittedHeadersAreSelfSufficient) {
  SKIP_WITHOUT_PYTHON();
  const RunResult result =
      run(kLint + " --rules include-self-sufficient -j 4");
  EXPECT_EQ(result.status, 0) << result.output;
}

}  // namespace
