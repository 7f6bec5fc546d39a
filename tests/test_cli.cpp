// Tests for the nsrel command-line tool: argument parsing, config
// mapping, and every command driven end-to-end against string streams.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nsrel::cli {
namespace {

Args make_args(std::initializer_list<const char*> tokens) {
  return Args(std::vector<std::string>(tokens.begin(), tokens.end()));
}

TEST(Args, ParsesCommandAndFlags) {
  const Args args = make_args({"analyze", "--n", "32", "--scheme", "none"});
  EXPECT_EQ(args.command(), "analyze");
  EXPECT_TRUE(args.has("n"));
  EXPECT_EQ(args.get_int("n", 64), 32);
  EXPECT_EQ(args.get_string("scheme", "raid5"), "none");
  EXPECT_EQ(args.get_int("ft", 2), 2);  // fallback
}

TEST(Args, EmptyCommandLine) {
  const Args args = make_args({});
  EXPECT_TRUE(args.command().empty());
}

TEST(Args, RejectsFlagWithoutValue) {
  // At the end of the line, or followed by another flag: either way the
  // parse records a typed usage error naming the flag.
  for (const Args& args : {make_args({"analyze", "--n"}),
                           make_args({"analyze", "--n", "--ft", "2"})}) {
    ASSERT_TRUE(args.error().has_value());
    EXPECT_EQ(args.error()->code, ErrorCode::kInvalidParameter);
    EXPECT_EQ(args.error()->detail, "flag --n needs a value");
  }
  EXPECT_FALSE(make_args({"analyze", "--n", "32"}).error().has_value());
}

TEST(Args, RejectsStrayPositional) {
  const Args args = make_args({"analyze", "oops"});
  ASSERT_TRUE(args.error().has_value());
  EXPECT_EQ(args.error()->code, ErrorCode::kInvalidParameter);
  EXPECT_NE(args.error()->detail.find("'oops'"), std::string::npos);
}

TEST(Args, RejectsMalformedNumbers) {
  // A malformed value is recorded as a typed error naming the flag (the
  // first one wins) and thrown as an ErrorException.
  const Args args = make_args(
      {"analyze", "--n", "abc", "--x", "3.5", "--big", "1e999", "--ok", "7"});
  EXPECT_THROW((void)args.get_double("n", 0.0), ErrorException);
  EXPECT_THROW((void)args.get_int("x", 0), ErrorException);  // non-integer
  EXPECT_THROW((void)args.get_int("big", 0), ErrorException);  // > INT_MAX
  ASSERT_TRUE(args.error().has_value());
  EXPECT_EQ(args.error()->code, ErrorCode::kInvalidParameter);
  EXPECT_EQ(args.error()->detail, "flag --n needs a number, got 'abc'");
  EXPECT_EQ(args.get_int("ok", 0), 7);

  try {
    (void)make_args({"analyze", "--ft", "2.5"}).get_int("ft", 2);
    FAIL() << "non-integer accepted";
  } catch (const ErrorException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kInvalidParameter);
    EXPECT_EQ(e.error().detail, "flag --ft needs an integer, got '2.5'");
  }
}

TEST(Args, TracksUnusedFlags) {
  const Args args = make_args({"analyze", "--n", "32", "--typo", "1"});
  (void)args.get_int("n", 64);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ConfigFromArgs, MapsFlagsOntoBaseline) {
  const Args args = make_args({"analyze", "--n", "32", "--drive-mttf", "1e5",
                               "--her-exp", "15", "--link-gbps", "5"});
  const core::SystemConfig config = config_from_args(args);
  EXPECT_EQ(config.node_set_size, 32);
  EXPECT_DOUBLE_EQ(config.drive.mttf.value(), 1e5);
  EXPECT_NEAR(config.drive.her_per_byte, 8e-15, 1e-25);
  EXPECT_DOUBLE_EQ(config.link.raw_speed.value(), 5e9);
  // Untouched fields keep the paper baseline.
  EXPECT_EQ(config.drives_per_node, 12);
  EXPECT_DOUBLE_EQ(config.capacity_utilization, 0.75);
}

TEST(ConfigFromArgs, InvalidValuesAreRejected) {
  // A typed error naming the flag, recorded on the Args for dispatch.
  const Args args = make_args({"analyze", "--util", "1.5"});
  EXPECT_THROW((void)config_from_args(args), ErrorException);
  ASSERT_TRUE(args.error().has_value());
  EXPECT_EQ(args.error()->code, ErrorCode::kInvalidParameter);
  EXPECT_EQ(args.error()->detail,
            "flag --util needs a value in (0, 1], got '1.5'");
}

TEST(ConfigurationFromArgs, SchemesAndFt) {
  EXPECT_EQ(configuration_from_args(make_args({"x", "--scheme", "none"}))
                .internal,
            core::InternalScheme::kNone);
  EXPECT_EQ(configuration_from_args(make_args({"x", "--scheme", "raid6",
                                               "--ft", "3"}))
                .node_fault_tolerance,
            3);
  EXPECT_THROW(
      (void)configuration_from_args(make_args({"x", "--scheme", "raid7"})),
      ContractViolation);
}

struct CommandResult {
  int exit_code;
  std::string out;
  std::string err;
};

CommandResult run(std::initializer_list<const char*> tokens) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = dispatch(make_args(tokens), out, err);
  return {code, out.str(), err.str()};
}

TEST(Dispatch, HelpAndUnknown) {
  const auto help = run({"help"});
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_NE(help.out.find("usage:"), std::string::npos);
  const auto empty = run({});
  EXPECT_EQ(empty.exit_code, kExitUsage);
  const auto unknown = run({"frobnicate"});
  EXPECT_EQ(unknown.exit_code, kExitUsage);
  EXPECT_NE(unknown.err.find("unknown command"), std::string::npos);
}

TEST(Dispatch, HelpFlagPrintsUsageAnywhere) {
  for (const auto& result : {run({"--help"}), run({"sweep", "--help"}),
                             run({"analyze", "--ft", "--help"})}) {
    EXPECT_EQ(result.exit_code, kExitOk);
    EXPECT_NE(result.out.find("usage:"), std::string::npos);
    EXPECT_TRUE(result.err.empty()) << result.err;
  }
}

TEST(Dispatch, FlagWithoutValueIsAUsageErrorNamingTheFlag) {
  for (const auto& result :
       {run({"analyze", "--ft"}), run({"sweep", "--steps", "--jobs", "2"})}) {
    EXPECT_EQ(result.exit_code, kExitUsage);
    EXPECT_TRUE(result.out.empty());
    EXPECT_EQ(result.err.rfind("error: cli.args: invalid_parameter: flag --",
                               0),
              0u)
        << result.err;
    EXPECT_EQ(result.err.find("precondition"), std::string::npos);
  }
  EXPECT_NE(run({"analyze", "--ft"}).err.find("--ft needs a value"),
            std::string::npos);
  EXPECT_NE(run({"sweep", "--steps", "--jobs", "2"})
                .err.find("--steps needs a value"),
            std::string::npos);
}

TEST(Dispatch, AnalyzeBaselineRaid5Ft2MeetsTarget) {
  const auto result = run({"analyze"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("FT2, Internal RAID 5"), std::string::npos);
  EXPECT_NE(result.out.find("(met)"), std::string::npos);
  EXPECT_NE(result.out.find("disk-bound"), std::string::npos);
}

TEST(Dispatch, AnalyzeNirFt1MissesTarget) {
  const auto result = run({"analyze", "--scheme", "none", "--ft", "1"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("MISSED"), std::string::npos);
}

TEST(Dispatch, AnalyzeClosedFormMethod) {
  const auto result = run({"analyze", "--method", "closed"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
}

TEST(Dispatch, AnalyzeRejectsTypos) {
  const auto result = run({"analyze", "--nodes", "32"});
  EXPECT_EQ(result.exit_code, kExitUsage);
  EXPECT_NE(result.err.find("--nodes"), std::string::npos);
}

TEST(Dispatch, CompareListsAllNine) {
  const auto result = run({"compare"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  for (const char* label :
       {"FT1, No Internal RAID", "FT2, Internal RAID 5",
        "FT3, Internal RAID 6"}) {
    EXPECT_NE(result.out.find(label), std::string::npos) << label;
  }
}

TEST(Dispatch, RebuildDecomposition) {
  const auto result = run({"rebuild"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("link crossover"), std::string::npos);
  EXPECT_NE(result.out.find("disk-bound"), std::string::npos);
}

TEST(Dispatch, SweepTableAndCsv) {
  const auto table = run({"sweep", "--param", "drive-mttf", "--from", "1e5",
                          "--to", "7.5e5", "--steps", "3"});
  EXPECT_EQ(table.exit_code, 0) << table.err;
  EXPECT_NE(table.out.find("drive-mttf"), std::string::npos);

  const auto csv = run({"sweep", "--param", "link-gbps", "--from", "1",
                        "--to", "10", "--steps", "3", "--csv", "1"});
  EXPECT_EQ(csv.exit_code, 0) << csv.err;
  EXPECT_NE(csv.out.find("link-gbps,MTTDL (h),events/PB-yr"),
            std::string::npos);
}

TEST(Dispatch, SweepRejectsUnknownParam) {
  const auto result = run({"sweep", "--param", "wombats"});
  EXPECT_EQ(result.exit_code, kExitUsage);
}

TEST(Dispatch, SweepAcceptsEveryCanonicalParameter) {
  // The old CLI hand-rolled seven parameters; the engine path accepts
  // everything core::set_parameter knows, e.g. util and bw-frac.
  const auto util = run({"sweep", "--param", "util", "--from", "0.5", "--to",
                         "0.9", "--steps", "3"});
  EXPECT_EQ(util.exit_code, 0) << util.err;
  EXPECT_NE(util.out.find("sweeping util"), std::string::npos);
  const auto bw = run({"sweep", "--param", "bw-frac", "--from", "0.05",
                       "--to", "0.2", "--steps", "3"});
  EXPECT_EQ(bw.exit_code, 0) << bw.err;
}

TEST(Dispatch, SweepFormatJsonAndJobsInvariance) {
  const auto serial =
      run({"sweep", "--param", "drive-mttf", "--from", "1e5", "--to",
           "7.5e5", "--steps", "4", "--format", "json", "--jobs", "1"});
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_NE(serial.out.find("\"schema\": \"nsrel-resultset-v3\""),
            std::string::npos);
  EXPECT_NE(serial.out.find("\"name\": \"drive-mttf\""), std::string::npos);
  const auto parallel =
      run({"sweep", "--param", "drive-mttf", "--from", "1e5", "--to",
           "7.5e5", "--steps", "4", "--format", "json", "--jobs", "8"});
  EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_EQ(serial.out, parallel.out);  // bit-identical across jobs
}

TEST(Dispatch, SweepRejectsUnknownFormat) {
  const auto result = run({"sweep", "--format", "xml"});
  EXPECT_EQ(result.exit_code, kExitUsage);
  EXPECT_NE(result.err.find("unknown output format"), std::string::npos);
}

TEST(Dispatch, AnalyzeAndCompareFormats) {
  const auto json = run({"analyze", "--format", "json"});
  EXPECT_EQ(json.exit_code, 0) << json.err;
  EXPECT_NE(json.out.find("\"mttdl_hours\""), std::string::npos);
  const auto csv = run({"analyze", "--format", "csv"});
  EXPECT_EQ(csv.exit_code, 0) << csv.err;
  EXPECT_NE(csv.out.find("configuration,MTTDL,events/PB-yr,meets"),
            std::string::npos);
  const auto compare_csv = run({"compare", "--format", "csv", "--jobs", "2"});
  EXPECT_EQ(compare_csv.exit_code, 0) << compare_csv.err;
  EXPECT_NE(compare_csv.out.find("configuration,MTTDL,events/PB-yr,meets"),
            std::string::npos);
  const auto compare_json = run({"compare", "--format", "json"});
  EXPECT_EQ(compare_json.exit_code, 0) << compare_json.err;
  EXPECT_NE(compare_json.out.find("\"axes\": []"), std::string::npos);
}

TEST(Dispatch, AvailabilityBothFamilies) {
  const auto nir = run({"availability", "--scheme", "none", "--ft", "2",
                        "--restore-hours", "24"});
  EXPECT_EQ(nir.exit_code, 0) << nir.err;
  EXPECT_NE(nir.out.find("availability:"), std::string::npos);
  const auto ir = run({"availability", "--scheme", "raid5", "--ft", "2"});
  EXPECT_EQ(ir.exit_code, 0) << ir.err;
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(NSREL_SOURCE_DIR) + "/tests/golden/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Dispatch, ChainEmitsDot) {
  // Byte for byte: state order, labels, edge order and rate rendering.
  const auto nir = run({"chain", "--scheme", "none", "--ft", "2"});
  EXPECT_EQ(nir.exit_code, 0) << nir.err;
  EXPECT_EQ(nir.out, read_golden("chain_none_ft2.dot"));
  const auto ir = run({"chain", "--scheme", "raid5", "--ft", "3"});
  EXPECT_EQ(ir.exit_code, 0) << ir.err;
  EXPECT_EQ(ir.out, read_golden("chain_raid5_ft3.dot"));
}

// Accelerated system flags: short MTTFs keep trajectories to a handful
// of events so the Monte-Carlo command finishes instantly.
TEST(Dispatch, SimulateReportsEstimateAndAnalyticComparison) {
  const auto result =
      run({"simulate", "--scheme", "none", "--ft", "2", "--node-mttf", "500",
           "--drive-mttf", "300", "--trials", "400", "--jobs", "2",
           "--chunk", "64", "--seed", "5"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("simulated MTTDL:"), std::string::npos);
  EXPECT_NE(result.out.find("analytic MTTDL:"), std::string::npos);
  EXPECT_NE(result.out.find("trials:            400"), std::string::npos);
}

TEST(Dispatch, SimulateIsJobsInvariant) {
  const auto pick_estimate_lines = [](const std::string& text) {
    // Everything from the simulated-MTTDL line onward is jobs-independent
    // (the trials line above it prints the job count itself).
    return text.substr(text.find("simulated MTTDL:"));
  };
  const auto serial =
      run({"simulate", "--scheme", "raid5", "--ft", "2", "--node-mttf",
           "500", "--drive-mttf", "300", "--trials", "400", "--jobs", "1",
           "--seed", "5"});
  const auto parallel =
      run({"simulate", "--scheme", "raid5", "--ft", "2", "--node-mttf",
           "500", "--drive-mttf", "300", "--trials", "400", "--jobs", "4",
           "--seed", "5"});
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_EQ(pick_estimate_lines(serial.out),
            pick_estimate_lines(parallel.out));
}

TEST(Dispatch, SimulateAdaptiveStopsAtCiTarget) {
  const auto result =
      run({"simulate", "--scheme", "none", "--ft", "1", "--node-mttf", "500",
           "--drive-mttf", "300", "--trials", "256", "--ci-target", "0.1",
           "--max-trials", "100000", "--jobs", "2", "--seed", "7"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("95% CI:"), std::string::npos);
}

TEST(Dispatch, SimulateRejectsTypos) {
  const auto result = run({"simulate", "--job", "2"});
  EXPECT_EQ(result.exit_code, kExitUsage);
  EXPECT_NE(result.err.find("--job"), std::string::npos);
}

TEST(Dispatch, ScenarioCommandRequiresFile) {
  const auto missing = run({"scenario"});
  EXPECT_EQ(missing.exit_code, kExitUsage);
  const auto unreadable = run({"scenario", "--file", "/no/such/file"});
  EXPECT_EQ(unreadable.exit_code, kExitUsage);
  EXPECT_NE(unreadable.err.find("cannot open"), std::string::npos);
}

TEST(Dispatch, ProvisionPlansSpares) {
  const auto result = run({"provision", "--years", "5", "--confidence",
                           "0.95"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("node-equivalents"), std::string::npos);
  EXPECT_NE(result.out.find("max initial utilization"), std::string::npos);
}

TEST(Dispatch, ErrorsAreReportedNotThrown) {
  const auto result = run({"analyze", "--scheme", "raid9"});
  EXPECT_EQ(result.exit_code, kExitUsage);
  EXPECT_NE(result.err.find("error:"), std::string::npos);
}

TEST(Dispatch, SweepWithDegenerateCellsReportsPartialResults) {
  // A sweep whose low endpoint degenerates the chain must still print
  // every healthy cell, mark the failed ones with their stable code,
  // report each failure on stderr, and exit with the partial-results
  // code — byte-identically at any --jobs.
  const auto serial = run({"sweep", "--param", "drive-mttf", "--from",
                           "1e-250", "--to", "3e5", "--steps", "4",
                           "--jobs", "1"});
  EXPECT_EQ(serial.exit_code, kExitPartialResults);
  EXPECT_NE(serial.out.find("!singular_generator"), std::string::npos);
  EXPECT_NE(serial.out.find("3.000e+05"), std::string::npos);
  EXPECT_NE(serial.err.find("cell(s) failed"), std::string::npos);
  EXPECT_NE(serial.err.find("singular_generator"), std::string::npos);
  const auto parallel = run({"sweep", "--param", "drive-mttf", "--from",
                             "1e-250", "--to", "3e5", "--steps", "4",
                             "--jobs", "8"});
  EXPECT_EQ(parallel.exit_code, kExitPartialResults);
  EXPECT_EQ(parallel.out, serial.out);
  EXPECT_EQ(parallel.err, serial.err);
}

TEST(Dispatch, SweepOverflowingToNonFinitePointsIsInvalidParameter) {
  // Geometric spacing from 1e-308 to 3e5 overflows the step ratio, so
  // the later points are infinite. Those cells must surface as
  // invalid_parameter, not crash or poison the run.
  const auto result = run({"sweep", "--param", "drive-mttf", "--from",
                           "1e-308", "--to", "3e5", "--steps", "4"});
  EXPECT_EQ(result.exit_code, kExitPartialResults);
  EXPECT_NE(result.out.find("!invalid_parameter"), std::string::npos);
  EXPECT_NE(result.err.find("invalid_parameter"), std::string::npos);
}

TEST(Dispatch, SweepOnErrorFailStopsAtTheFirstFailure) {
  const auto result = run({"sweep", "--param", "drive-mttf", "--from",
                           "1e-308", "--to", "3e5", "--steps", "4",
                           "--on-error", "fail"});
  EXPECT_EQ(result.exit_code, kExitInternal);
  EXPECT_NE(result.err.find("singular_generator"), std::string::npos);
  EXPECT_NE(result.err.find("point 0"), std::string::npos);
  const auto bad = run({"sweep", "--param", "n", "--from", "16", "--to",
                        "64", "--steps", "2", "--on-error", "explode"});
  EXPECT_EQ(bad.exit_code, kExitUsage);
}

TEST(Dispatch, RepeatedRunsAreByteIdentical) {
  // The determinism contract nsrel-lint polices statically, asserted
  // dynamically: re-running the same command in one process (warm solve
  // cache, reused thread pool, different heap layout) must reproduce
  // stdout and stderr byte-for-byte, serial and parallel alike.
  const auto first = run({"sweep", "--param", "node-mttf", "--from",
                          "1e4", "--to", "1e5", "--steps", "6",
                          "--jobs", "8"});
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto again = run({"sweep", "--param", "node-mttf", "--from",
                            "1e4", "--to", "1e5", "--steps", "6",
                            "--jobs", "8"});
    EXPECT_EQ(again.exit_code, first.exit_code);
    EXPECT_EQ(again.out, first.out);
    EXPECT_EQ(again.err, first.err);
  }
  const auto serial = run({"sweep", "--param", "node-mttf", "--from",
                           "1e4", "--to", "1e5", "--steps", "6",
                           "--jobs", "1"});
  EXPECT_EQ(serial.out, first.out);

  const auto sim_first = run({"simulate", "--node-mttf", "500",
                              "--drive-mttf", "300", "--trials", "300",
                              "--jobs", "4", "--seed", "11"});
  const auto sim_again = run({"simulate", "--node-mttf", "500",
                              "--drive-mttf", "300", "--trials", "300",
                              "--jobs", "4", "--seed", "11"});
  EXPECT_EQ(sim_again.out, sim_first.out);
}

// ---------------------------------------------------------------------
// Monte-Carlo sweeps: `simulate --param` rides the engine grid.

TEST(Dispatch, SimulateSweepTableAndJobsInvariance) {
  const auto table =
      run({"simulate", "--scheme", "none", "--ft", "2", "--node-mttf", "500",
           "--drive-mttf", "300", "--trials", "64", "--seed", "9", "--param",
           "drive-mttf", "--from", "200", "--to", "600", "--steps", "3"});
  EXPECT_EQ(table.exit_code, 0) << table.err;
  EXPECT_NE(table.out.find("sweeping drive-mttf"), std::string::npos);
  EXPECT_NE(table.out.find("sim MTTDL (h)"), std::string::npos);
  EXPECT_NE(table.out.find("95% CI (h)"), std::string::npos);

  const auto serial =
      run({"simulate", "--scheme", "none", "--ft", "2", "--node-mttf", "500",
           "--drive-mttf", "300", "--trials", "64", "--seed", "9", "--param",
           "drive-mttf", "--from", "200", "--to", "600", "--steps", "3",
           "--format", "json", "--jobs", "1"});
  const auto parallel =
      run({"simulate", "--scheme", "none", "--ft", "2", "--node-mttf", "500",
           "--drive-mttf", "300", "--trials", "64", "--seed", "9", "--param",
           "drive-mttf", "--from", "200", "--to", "600", "--steps", "3",
           "--format", "json", "--jobs", "8"});
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_EQ(serial.out, parallel.out);  // bit-identical across jobs
  EXPECT_NE(serial.out.find("\"kind\": \"sim\""), std::string::npos);
}

// ---------------------------------------------------------------------
// `nsrel diff`: compare two written result sets.

std::string write_temp(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << bytes;
  return path;
}

CommandResult run_tokens(const std::vector<std::string>& tokens) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = dispatch(Args(tokens), out, err);
  return {code, out.str(), err.str()};
}

TEST(Dispatch, AvailabilityMatchesGolden) {
  // Byte for byte over NIR ft 1..12 (r = 20) and RAID 5/6 ft 1..3, the
  // outputs concatenated in that order. Regenerate with:
  //   (for ft in $(seq 1 12); do
  //      nsrel availability --scheme none --ft $ft --r 20; done
  //    for s in raid5 raid6; do for ft in 1 2 3; do
  //      nsrel availability --scheme $s --ft $ft; done; done)
  //   > tests/golden/availability.golden
  std::string all;
  for (int ft = 1; ft <= 12; ++ft) {
    const std::string level = std::to_string(ft);
    const auto result = run_tokens({"availability", "--scheme", "none",
                                    "--ft", level, "--r", "20"});
    EXPECT_EQ(result.exit_code, 0) << result.err;
    all += result.out;
  }
  for (const char* scheme : {"raid5", "raid6"}) {
    for (const char* ft : {"1", "2", "3"}) {
      const auto result =
          run({"availability", "--scheme", scheme, "--ft", ft});
      EXPECT_EQ(result.exit_code, 0) << result.err;
      all += result.out;
    }
  }
  EXPECT_EQ(all, read_golden("availability.golden"));
}

TEST(Dispatch, AvailabilityRendersLargeRestoreTimesLikeTheMttdl) {
  // Below 1e4 h the line is unchanged (168.0 h, pinned by the golden);
  // above it, scientific hours and years instead of every digit.
  const auto result = run({"availability", "--scheme", "none", "--ft", "2",
                           "--restore-hours", "1e300"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("restore time:        1.00e+300 h (1.14e+296 yr)\n"),
            std::string::npos)
      << result.out;
}

TEST(Dispatch, SaturatedHardErrorProbabilityStillSolves) {
  // A 1e9 GB drive at one error per 1e10 bits saturates h_N to exactly
  // 1, so the failure edge into the critical NN state carries rate 0.
  // The chain drops that edge (its flow is all on the loss edge) rather
  // than tripping the rate > 0 contract in every command.
  const std::vector<std::string> system = {"--scheme",      "none", "--ft",
                                           "2",             "--capacity-gb",
                                           "1e9",           "--her-exp",
                                           "10"};
  const auto with_system = [&](std::vector<std::string> tokens) {
    tokens.insert(tokens.end(), system.begin(), system.end());
    return run_tokens(tokens);
  };
  const auto number_after = [](const std::string& out, const std::string& key) {
    const std::size_t at = out.find(key);
    return at == std::string::npos
               ? std::numeric_limits<double>::quiet_NaN()
               : std::strtod(out.c_str() + at + key.size(), nullptr);
  };
  const auto expect_finite_positive = [](double mttdl, const std::string& out) {
    EXPECT_TRUE(std::isfinite(mttdl) && mttdl > 0.0) << out;
  };

  const auto analyze = with_system({"analyze"});
  EXPECT_EQ(analyze.exit_code, 0) << analyze.err;
  expect_finite_positive(number_after(analyze.out, "MTTDL:"), analyze.out);

  const auto availability = with_system({"availability"});
  EXPECT_EQ(availability.exit_code, 0) << availability.err;
  expect_finite_positive(number_after(availability.out, "MTTDL:"),
                         availability.out);

  const auto chain = with_system({"chain"});
  EXPECT_EQ(chain.exit_code, 0) << chain.err;
  EXPECT_NE(chain.out.find("s3 [label=\"NN\"]"), std::string::npos);

  const auto simulate =
      with_system({"simulate", "--node-mttf", "500", "--drive-mttf", "300",
                   "--trials", "200"});
  EXPECT_EQ(simulate.exit_code, 0) << simulate.err;
  expect_finite_positive(number_after(simulate.out, "analytic MTTDL:"),
                         simulate.out);
}

TEST(Diff, SelfCompareOfJobsVariantsExitsClean) {
  const auto serial =
      run({"sweep", "--param", "drive-mttf", "--from", "1e5", "--to", "7.5e5",
           "--steps", "4", "--format", "json", "--jobs", "1"});
  const auto parallel =
      run({"sweep", "--param", "drive-mttf", "--from", "1e5", "--to", "7.5e5",
           "--steps", "4", "--format", "json", "--jobs", "8"});
  const std::string a = write_temp("diff_a.json", serial.out);
  const std::string b = write_temp("diff_b.json", parallel.out);
  const auto result = run_tokens({"diff", a, b});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("no drift"), std::string::npos);
}

TEST(Diff, DriftExitsPartialResultsAndListsFields) {
  const auto base =
      run({"analyze", "--format", "json", "--scheme", "raid5", "--ft", "2"});
  const auto moved =
      run({"analyze", "--format", "json", "--scheme", "raid5", "--ft", "2",
           "--drive-mttf", "2.9e5"});
  const std::string a = write_temp("diff_base.json", base.out);
  const std::string b = write_temp("diff_moved.json", moved.out);
  const auto strict = run_tokens({"diff", a, b});
  EXPECT_EQ(strict.exit_code, kExitPartialResults);
  EXPECT_NE(strict.out.find("mttdl_hours"), std::string::npos);
  EXPECT_NE(strict.out.find("drifting field(s)"), std::string::npos);
  // A huge relative tolerance declares the same pair clean.
  const auto loose = run_tokens({"diff", a, b, "--rel-tol", "1e9"});
  EXPECT_EQ(loose.exit_code, 0) << loose.err;
  // CSV and JSON renderings carry the drift rows too.
  const auto csv = run_tokens({"diff", a, b, "--format", "csv"});
  EXPECT_EQ(csv.exit_code, kExitPartialResults);
  EXPECT_NE(csv.out.find("point,configuration,field"), std::string::npos);
  const auto json = run_tokens({"diff", a, b, "--format", "json"});
  EXPECT_NE(json.out.find("\"schema\": \"nsrel-diff-v1\""),
            std::string::npos);
}

TEST(Diff, UsageErrors) {
  // Wrong operand count.
  EXPECT_EQ(run({"diff"}).exit_code, kExitUsage);
  // Unreadable file.
  const auto missing =
      run_tokens({"diff", "/nonexistent/a.json", "/nonexistent/b.json"});
  EXPECT_EQ(missing.exit_code, kExitUsage);
  EXPECT_NE(missing.err.find("cannot open"), std::string::npos);
  // Malformed document: the typed reader error reaches stderr.
  const std::string bad = write_temp("diff_bad.json", "{\"schema\": 42}");
  const auto malformed = run_tokens({"diff", bad, bad});
  EXPECT_EQ(malformed.exit_code, kExitUsage);
  EXPECT_NE(malformed.err.find("malformed_document"), std::string::npos);
  // Incomparable shapes.
  const auto one = run({"analyze", "--format", "json"});
  const auto sweep = run({"sweep", "--param", "drive-mttf", "--from", "1e5",
                          "--to", "7.5e5", "--steps", "3", "--format",
                          "json"});
  const auto mismatch =
      run_tokens({"diff", write_temp("diff_one.json", one.out),
                  write_temp("diff_sweep.json", sweep.out)});
  EXPECT_EQ(mismatch.exit_code, kExitUsage);
  EXPECT_NE(mismatch.err.find("axis count mismatch"), std::string::npos);
}

// ---------------------------------------------------------------------
// Hostile values: each one is a typed usage error naming the flag or
// key (exit 4, nothing on stdout), never a contract violation.

void expect_usage_error(const CommandResult& result, const std::string& what) {
  EXPECT_EQ(result.exit_code, kExitUsage) << result.err;
  EXPECT_TRUE(result.out.empty()) << result.out;
  EXPECT_EQ(result.err.find("precondition"), std::string::npos) << result.err;
  EXPECT_NE(result.err.find("invalid_parameter"), std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find(what), std::string::npos) << result.err;
}

TEST(Dispatch, MalformedNumericFlagsAreUsageErrors) {
  expect_usage_error(run({"analyze", "--ft", "abc"}),
                     "flag --ft needs a number, got 'abc'");
  expect_usage_error(run({"analyze", "--ft", "2.5"}),
                     "flag --ft needs an integer, got '2.5'");
  expect_usage_error(run({"analyze", "--n", "1e999"}),
                     "flag --n needs an integer, got '1e999'");
  expect_usage_error(run({"analyze", "--drive-mttf", "12x"}),
                     "flag --drive-mttf needs a number");
}

TEST(Dispatch, SweepRangeChecksAreUsageErrors) {
  expect_usage_error(run({"sweep", "--steps", "1"}),
                     "flag --steps must be >= 2, got '1'");
  expect_usage_error(run({"sweep", "--from", "0"}),
                     "flag --from must be > 0, got '0'");
  expect_usage_error(run({"sweep", "--from", "5e5", "--to", "1e5"}),
                     "flag --to must be above --from, got '1e5'");
  // The Monte-Carlo sweep shares the checks.
  expect_usage_error(run({"simulate", "--param", "drive-mttf", "--steps", "1"}),
                     "flag --steps must be >= 2, got '1'");
  expect_usage_error(run({"simulate", "--param", "drive-mttf", "--from", "0"}),
                     "flag --from must be > 0, got '0'");
}

TEST(Dispatch, SimulateRangeChecksAreUsageErrors) {
  expect_usage_error(run({"simulate", "--trials", "1"}),
                     "flag --trials must be >= 2, got '1'");
  expect_usage_error(run({"simulate", "--jobs", "-1"}),
                     "flag --jobs must be >= 0 (0 = all cores), got '-1'");
  expect_usage_error(run({"analyze", "--jobs", "-1"}),
                     "flag --jobs must be >= 0 (0 = all cores), got '-1'");
}

TEST(Dispatch, ScenarioNonNumericValueIsAUsageError) {
  const std::string path =
      write_temp("bad_from.scenario",
                 "[configurations]\nlist = raid5-ft2\n"
                 "[sweep]\nparam = drive-mttf\nfrom = abc\nto = 3e5\n");
  const auto result = run_tokens({"scenario", "--file", path});
  expect_usage_error(result, "[sweep] from needs a number, got 'abc'");
  EXPECT_NE(result.err.find("scenario.ini"), std::string::npos);
}

// Out-of-domain system values are typed usage errors naming the flag or
// key, raised before any model is built.

TEST(Dispatch, NodeSetSizeZeroIsAUsageError) {
  expect_usage_error(
      run({"analyze", "--n", "0"}),
      "flag --n needs an integer from 2 to 2147483647, got '0'");
}

TEST(Dispatch, UtilizationAboveOneIsAUsageError) {
  expect_usage_error(run({"analyze", "--util", "1.5"}),
                     "flag --util needs a value in (0, 1], got '1.5'");
}

TEST(Dispatch, SweepBeyondIntIsAUsageError) {
  // 1e12 nodes cannot be cast to int: rejected before the grid is built.
  expect_usage_error(
      run({"sweep", "--param", "n", "--from", "10", "--to", "1e12",
           "--steps", "3"}),
      "flag --to puts n out of its domain (needs an integer from 2 to "
      "2147483647), got '1e12'");
}

TEST(Dispatch, ScenarioNodeSetSizeZeroIsAUsageError) {
  const std::string path = write_temp("n_zero.scenario", "[system]\nn = 0\n");
  const auto result = run_tokens({"scenario", "--file", path});
  expect_usage_error(
      result, "[system] n needs an integer from 2 to 2147483647, got '0'");
  EXPECT_NE(result.err.find("scenario.ini"), std::string::npos);
}

TEST(Dispatch, ScenarioProductCellOutsideTheDomainIsAUsageError) {
  // n 10..16 and r 8..16 each pass alone; their product holds r > n.
  const std::string path = write_temp(
      "n_x_r.scenario",
      "[configurations]\nlist = none-ft2\n"
      "[sweep]\nparam = n\nfrom = 10\nto = 16\nsteps = 3\nscale = linear\n"
      "[sweep.2]\nparam = r\nfrom = 8\nto = 16\nsteps = 3\n"
      "scale = linear\n");
  const auto result = run_tokens({"scenario", "--file", path});
  expect_usage_error(result,
                     "[sweep] n x [sweep.2] r puts r out of its domain "
                     "(needs an integer from 2 to n) at n = 1.000e+01, "
                     "r = 1.200e+01");
  EXPECT_NE(result.err.find("scenario.ini"), std::string::npos);
}

/// --restore-hours values that are not a finite number > 0.
class RestoreHoursTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RestoreHoursTest, NonPositiveOrNonFiniteIsAUsageError) {
  expect_usage_error(run({"availability", "--scheme", "none", "--ft", "2",
                          "--restore-hours", GetParam()}),
                     std::string("flag --restore-hours must be a finite "
                                 "number > 0, got '")
                         .append(GetParam())
                         .append("'"));
}

std::string restore_hours_case(
    const ::testing::TestParamInfo<const char*>& value) {
  constexpr const char* kNames[] = {"Zero", "Negative", "NaN", "Inf",
                                    "Overflow"};
  return kNames[value.index];
}

INSTANTIATE_TEST_SUITE_P(HostileValues, RestoreHoursTest,
                         ::testing::Values("0", "-5", "nan", "inf", "1e400"),
                         restore_hours_case);

// A node fault tolerance at or above the redundancy set size (default
// --r 8) is the analyzer's typed configuration error in every command
// that builds a chain or simulates, never a model's contract check.
constexpr const char* kFtAtOrAboveR =
    "error: core.analyzer: invalid_parameter: node fault tolerance must be "
    ">= 1 and below the redundancy set size";

TEST(Dispatch, ChainWithFtAtOrAboveRIsATypedUsageError) {
  for (const char* scheme : {"none", "raid5"}) {
    expect_usage_error(run({"chain", "--scheme", scheme, "--ft", "8"}),
                       kFtAtOrAboveR);
  }
}

TEST(Dispatch, AvailabilityWithFtAtOrAboveRIsATypedUsageError) {
  for (const char* scheme : {"none", "raid5"}) {
    expect_usage_error(
        run({"availability", "--scheme", scheme, "--ft", "8"}),
        kFtAtOrAboveR);
  }
}

TEST(Dispatch, SimulateWithFtAtOrAboveRIsATypedUsageError) {
  expect_usage_error(
      run({"simulate", "--scheme", "none", "--ft", "8", "--node-mttf", "500",
           "--drive-mttf", "300", "--trials", "100"}),
      kFtAtOrAboveR);
}

TEST(Dispatch, SimulateSweepWithFtAtOrAboveRFailsCellsTyped) {
  // A sweep keeps its partial-results contract: every cell carries the
  // same typed error instead of a contract violation.
  const auto result =
      run({"simulate", "--scheme", "none", "--ft", "8", "--node-mttf", "500",
           "--drive-mttf", "300", "--trials", "100", "--param", "drive-mttf",
           "--from", "100", "--to", "300", "--steps", "2"});
  EXPECT_EQ(result.exit_code, kExitPartialResults) << result.err;
  EXPECT_EQ(result.err.find("precondition"), std::string::npos) << result.err;
  EXPECT_NE(result.err.find("2 of 2 cell(s) failed"), std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find("core.analyzer: invalid_parameter: node fault "
                            "tolerance must be >= 1"),
            std::string::npos)
      << result.err;
}

TEST(Dispatch, ScenarioJobsBeyondIntIsAUsageError) {
  const std::string path =
      write_temp("jobs_huge.scenario", "[output]\njobs = 1e999\n");
  expect_usage_error(run_tokens({"scenario", "--file", path}),
                     "[output] jobs needs an integer, got '1e999'");
}

TEST(Dispatch, ScenarioStepsBeyondIntIsAUsageError) {
  const std::string path = write_temp(
      "steps_huge.scenario",
      "[sweep]\nparam = drive-mttf\nfrom = 1e5\nto = 3e5\nsteps = 1e999\n");
  expect_usage_error(run_tokens({"scenario", "--file", path}),
                     "[sweep] steps needs an integer, got '1e999'");
}

}  // namespace
}  // namespace nsrel::cli
