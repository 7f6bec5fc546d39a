// perfbench_driver: runs one benchmark workload in-process and prints
// one line per timed operation for perfbench/run.py to aggregate.
//
//   perfbench_driver cli    SECONDS PLAN OUTDIR [--setup-only] [--trace]
//   perfbench_driver repair SECONDS SEED [--setup-only]
//
// cli: PLAN holds one nsrel command line per line, arguments separated
// by tabs. Set-up runs every line once through nsrel::cli::dispatch (the
// same entry point as the nsrel executable) and writes its stdout to
// OUTDIR/out_<line>.txt. The timed loop then cycles over the lines until
// SECONDS have passed; an operation counts as failed when its exit code
// is not 0 or its stdout differs from the set-up run (nsrel's outputs
// are deterministic for a fixed command line). --trace first runs
// kTracePasses extra passes with `--trace FILE`, writing
// OUTDIR/trace_<line>_<pass>.json for the per-layer breakdown.
//
// repair: set-up fills a brick store with objects drawn from SEED and
// fails node 0. The timed run then checks a single-lane reference repair
// (every object reads back byte-identical, full redundancy restored) and
// that two decode lanes give the same store and report. Each timed
// operation repairs a fresh copy of the degraded store, with a drive
// lost mid-rebuild and foreground reads served at every barrier
// (degraded mode), and must reproduce the reference store fingerprint
// and report.
//
// Output lines:
//   op <line> <ns> <ok>                            (cli timed loop)
//   traced <line> <pass> <ns> <ok>                 (cli --trace passes)
//   op 0 <ns> <ok> <plan_ns> <barrier_ns> <replans> <degraded_reads>
//                                                  (repair timed loop)
// Exit codes: 0 ok, 2 set-up or check failed, 4 usage.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "brick/object_store.hpp"
#include "cli/commands.hpp"
#include "repair/fault_schedule.hpp"
#include "repair/repair.hpp"
#include "workload/workload.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Traced passes over the plan for the per-layer numbers.
constexpr int kTracePasses = 3;

std::int64_t elapsed_ns(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
      .count();
}

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// --- cli workloads -----------------------------------------------------

struct Outcome {
  int rc = 0;
  std::string out;
  std::string err;
};

Outcome run_nsrel(const std::vector<std::string>& args,
                  std::int64_t* ns = nullptr) {
  std::vector<const char*> argv{"nsrel"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  std::ostringstream out;
  std::ostringstream err;
  const Clock::time_point start = Clock::now();
  const int rc = nsrel::cli::dispatch(static_cast<int>(argv.size()),
                                      argv.data(), out, err);
  const Clock::time_point end = Clock::now();
  if (ns != nullptr) *ns = elapsed_ns(start, end);
  return {rc, std::move(out).str(), std::move(err).str()};
}

int run_cli(double seconds, const std::string& plan_path,
            const std::string& outdir, bool setup_only, bool trace) {
  std::ifstream plan(plan_path);
  if (!plan) throw std::runtime_error("cannot read plan '" + plan_path + "'");
  std::vector<std::vector<std::string>> commands;  // without program name
  for (std::string line; std::getline(plan, line);) {
    if (line.empty()) continue;
    std::vector<std::string> args;
    std::istringstream fields(line);
    for (std::string arg; std::getline(fields, arg, '\t');) {
      args.push_back(arg);
    }
    commands.push_back(std::move(args));
  }
  if (commands.empty()) {
    std::cerr << "plan has no command lines\n";
    return 4;
  }

  std::vector<std::string> reference(commands.size());
  for (std::size_t i = 0; i < commands.size(); ++i) {
    Outcome outcome = run_nsrel(commands[i]);
    if (outcome.rc != 0) {
      std::cerr << "set-up: plan line " << i << " exited " << outcome.rc
                << ": " << outcome.err;
      return 2;
    }
    std::ofstream(outdir + "/out_" + std::to_string(i) + ".txt")
        << outcome.out;
    reference[i] = std::move(outcome.out);
  }
  if (setup_only) return 0;

  for (int pass = 0; trace && pass < kTracePasses; ++pass) {
    for (std::size_t i = 0; i < commands.size(); ++i) {
      std::vector<std::string> args = commands[i];
      args.push_back("--trace");
      args.push_back(outdir + "/trace_" + std::to_string(i) + "_" +
                     std::to_string(pass) + ".json");
      std::int64_t ns = 0;
      const Outcome outcome = run_nsrel(args, &ns);
      const bool ok = outcome.rc == 0 && outcome.out == reference[i];
      std::cout << "traced " << i << " " << pass << " " << ns << " " << ok
                << "\n";
    }
  }

  struct Sample {
    std::size_t line;
    std::int64_t ns;
    bool ok;
  };
  std::vector<Sample> samples;
  const Clock::time_point deadline = deadline_after(seconds);
  for (std::size_t k = 0; Clock::now() < deadline; ++k) {
    const std::size_t i = k % commands.size();
    std::int64_t ns = 0;
    const Outcome outcome = run_nsrel(commands[i], &ns);
    samples.push_back({i, ns, outcome.rc == 0 && outcome.out == reference[i]});
  }
  for (const Sample& s : samples) {
    std::cout << "op " << s.line << " " << s.ns << " " << s.ok << "\n";
  }
  return 0;
}

// --- repair workload ---------------------------------------------------

// The repair scenario. Which node fails changes how many stripes the
// mid-rebuild drive fault hits, so the failures are fixed and the seed
// picks only the stored data. Out-of-range node ids are no-ops: the
// time events only pace barriers, so foreground reads run throughout
// the rebuild.
constexpr int kObjects = 100;
constexpr std::size_t kObjectBytes = 9000;
constexpr int kFailedNode = 0;
constexpr const char* kSchedule =
    "after:50 drive:2.1; time:0.1 node:99; time:0.2 node:99; "
    "time:0.3 node:99; time:0.4 node:99; time:0.5 node:99; "
    "time:0.6 node:99";
constexpr int kReadsPerBarrier = 32;
constexpr std::size_t kReadBytes = 1024;
/// Decode lanes of the check run that must match the single-lane one.
constexpr int kCheckJobs = 2;

nsrel::brick::StoreParams store_params() {
  nsrel::brick::StoreParams params;
  params.node_count = 12;
  params.drives_per_node = 3;
  params.drive_capacity = nsrel::kilobytes(1024);
  params.redundancy_set_size = 6;
  params.fault_tolerance = 2;
  params.chunk_size = nsrel::kilobytes(1);
  return params;
}

/// splitmix64: object contents come from the seed alone.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct RepairRun {
  nsrel::repair::RepairReport report;
  std::string rendered;
  std::uint64_t fingerprint = 0;
  std::int64_t ns = 0;
  std::int64_t barrier_ns = 0;
  std::uint64_t barriers = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t failed_reads = 0;
};

/// Repairs `store` in place. At every barrier the store serves a
/// foreground read workload whose seed depends only on the barrier
/// number, so the run stays deterministic at any jobs count.
RepairRun repair_once(nsrel::brick::ObjectStore& store, std::uint64_t seed,
                      const nsrel::repair::FaultSchedule& schedule, int jobs,
                      const std::vector<nsrel::brick::ObjectId>& ids,
                      const std::vector<std::size_t>& sizes) {
  RepairRun run;
  nsrel::repair::RepairOptions options;
  options.jobs = jobs;
  options.on_barrier = [&](nsrel::brick::ObjectStore& s, double) {
    const Clock::time_point start = Clock::now();
    nsrel::workload::WorkloadParams params;
    params.operations = kReadsPerBarrier;
    params.read_bytes = kReadBytes;
    params.seed = seed + run.barriers;
    const nsrel::workload::WorkloadResult result =
        nsrel::workload::run_read_workload(s, ids, sizes, params);
    run.degraded_reads += result.degraded_reads;
    run.failed_reads += result.failed_reads;
    ++run.barriers;
    run.barrier_ns += elapsed_ns(start, Clock::now());
  };
  const Clock::time_point start = Clock::now();
  run.report = nsrel::repair::run_repair(store, schedule, options);
  run.ns = elapsed_ns(start, Clock::now());
  run.rendered = nsrel::repair::render_repair_report(run.report);
  run.fingerprint = store.content_fingerprint();
  return run;
}

int run_repair_workload(double seconds, std::uint64_t seed,
                        bool setup_only) {
  const auto schedule = nsrel::repair::parse_fault_schedule(kSchedule);
  if (!schedule.has_value()) {
    std::cerr << "bad schedule: " << schedule.error().message() << "\n";
    return 2;
  }

  nsrel::brick::ObjectStore degraded(store_params());
  std::vector<nsrel::brick::ObjectId> ids;
  std::vector<std::size_t> sizes;
  std::vector<std::vector<std::uint8_t>> contents;
  std::uint64_t state = seed;
  for (int i = 0; i < kObjects; ++i) {
    std::vector<std::uint8_t> bytes(kObjectBytes);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(splitmix64(state));
    ids.push_back(degraded.write(bytes));
    sizes.push_back(bytes.size());
    contents.push_back(std::move(bytes));
  }
  if (!degraded.fail_node(kFailedNode)) {
    std::cerr << "node " << kFailedNode << " is not live\n";
    return 2;
  }
  if (setup_only) return 0;

  // Reference: a single-lane repair whose result is checked against the
  // data written, not just against another run.
  nsrel::brick::ObjectStore reference_store = degraded;
  const RepairRun reference = repair_once(reference_store, seed,
                                          schedule.value(), 1, ids, sizes);
  if (!reference.report.fully_successful() || reference.failed_reads != 0 ||
      !reference_store.fully_redundant() ||
      !nsrel::repair::plan_repair(reference_store).tasks.empty()) {
    std::cerr << "check: reference repair did not restore redundancy\n"
              << reference.rendered;
    return 2;
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto bytes = reference_store.try_read(ids[i]);
    if (!bytes.has_value() || bytes.value() != contents[i]) {
      std::cerr << "check: object " << ids[i] << " differs after repair\n";
      return 2;
    }
  }
  nsrel::brick::ObjectStore parallel_store = degraded;
  const RepairRun parallel = repair_once(parallel_store, seed,
                                         schedule.value(), kCheckJobs, ids,
                                         sizes);
  if (parallel.rendered != reference.rendered ||
      parallel.fingerprint != reference.fingerprint) {
    std::cerr << "check: jobs=" << kCheckJobs
              << " repair differs from jobs=1\n";
    return 2;
  }

  std::vector<std::string> lines;
  const Clock::time_point deadline = deadline_after(seconds);
  while (Clock::now() < deadline) {
    nsrel::brick::ObjectStore store = degraded;
    const Clock::time_point plan_start = Clock::now();
    const nsrel::repair::RepairPlan plan = nsrel::repair::plan_repair(store);
    const std::int64_t plan_ns = elapsed_ns(plan_start, Clock::now());
    const RepairRun run =
        repair_once(store, seed, schedule.value(), 1, ids, sizes);
    const bool ok = !plan.tasks.empty() && run.report.fully_successful() &&
                    run.failed_reads == 0 &&
                    run.rendered == reference.rendered &&
                    run.fingerprint == reference.fingerprint;
    std::ostringstream line;
    line << "op 0 " << run.ns << " " << ok << " " << plan_ns << " "
         << run.barrier_ns << " " << run.report.replans << " "
         << run.degraded_reads;
    lines.push_back(std::move(line).str());
  }
  for (const std::string& line : lines) std::cout << line << "\n";
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench_driver cli SECONDS PLAN OUTDIR "
               "[--setup-only] [--trace]\n"
               "       perfbench_driver repair SECONDS SEED [--setup-only]\n";
  return 4;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const bool cli = !args.empty() && args[0] == "cli";
  const std::size_t positional = cli ? 4 : 3;
  if (args.empty() || (!cli && args[0] != "repair") ||
      args.size() < positional) {
    return usage();
  }
  bool setup_only = false;
  bool trace = false;
  for (std::size_t i = positional; i < args.size(); ++i) {
    if (args[i] == "--setup-only") {
      setup_only = true;
    } else if (args[i] == "--trace" && cli) {
      trace = true;
    } else {
      std::cerr << "unknown argument " << args[i] << "\n";
      return usage();
    }
  }
  try {
    const double seconds = std::stod(args[1]);
    if (cli) return run_cli(seconds, args[2], args[3], setup_only, trace);
    return run_repair_workload(seconds, std::stoull(args[2]), setup_only);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
