#!/usr/bin/env python3
"""End-to-end benchmark of nsrel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_driver (perfbench/CMakeLists.txt: the nsrel sources plus
driver.cpp) under .bench_build/, generates the workload's inputs from
--seed, and runs them in-process through the driver, a closed loop of
one caller, for --seconds (split over several driver processes). The
last line of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

--trace 0 reports the end-to-end metrics (call latency, set-up time),
--trace 1 the per-layer ones. stderr also gets the median latency and
the number of calls.

Workloads (the seed picks system parameters, RNG seeds or stored data,
never the shape of the work, so every seed does the same amount of work):

  analyze     `nsrel analyze` of a FT10 no-internal-RAID system: one
              2047-state chain built and solved per call, cache unused.
  sweep_miss  16-point drive-MTTF `nsrel sweep` at FT8: every point is a
              distinct chain, so every lookup misses the solve cache.
  sweep_hit   256-point restripe-kb `nsrel sweep` at FT6: the parameter
              does not enter the no-internal-RAID chain, so 1 solve and
              255 cache hits; the time goes to cells, cache and render.
  sweep_raid  256-point drive-MTTF `nsrel sweep` of internal-RAID systems
              (RAID 5 at FT2 and RAID 6 at FT3, alternating): the array
              model and the node-level chain, every lookup a miss.
  simulate    `nsrel simulate` Monte-Carlo MTTDL estimate (30000 trials)
              at accelerated failure rates.
  repair      the brick-store repair engine (no CLI of its own): rebuild
              after a node failure, a drive dies mid-rebuild, foreground
              reads are served at every barrier.

Timed calls run on one thread (--jobs 1).

Correctness: the plan's check lines (closed-form MTTDL, --jobs 2 reruns,
single-point analyzes) run once, with the timed lines, in a driver
process of their own that nothing times. Their outputs are checked:
exact vs closed-form MTTDL, monotone and jobs-invariant sweeps,
cache-hit counts, the analytic MTTDL inside the simulated confidence
interval. Every timed call must exit 0 and print what the checked run
printed. For repair the driver checks the repaired data against the
data written and one decode lane against two.

setup_s is what the program pays before its first result: a fresh
driver process that runs each timed line once, untraced (for repair:
fills the brick store and fails the node). It is the median over
SETUP_REPEATS such processes.

Per-layer metrics come from the program's own trace spans (`--trace
FILE`, self time per span name, per call) for the CLI workloads and from
the driver's timers around the repair engine's calls for `repair`.
A metric of a layer a workload does not reach reads 0.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"

# Call latency on a shared host can be bimodal per process (the same
# binary and inputs ran ~1.6x faster in some processes than in others on
# a 4-vCPU Xeon VM, and the share of slow processes changes over the
# day), so the timed loop is split over several driver processes, the
# reported latency is the median of the fastest one, and the set-up time
# is the median over several fresh ones.
PROCESSES = 10  # driver processes sharing the timed --seconds
SETUP_REPEATS = 9  # fresh driver processes timed for setup_s
DRIVER_TIMEOUT_S = 150
SYSTEMS_PER_RUN = 6  # seeded system configurations cycled in one run
SWEEP_STEPS = {"sweep_miss": 16, "sweep_raid": 256}

# Pooled percentiles (logged to stderr) jump between the two process
# speeds from run to run; the fastest process's median does not, and a
# change to the code moves every process alike.
END_TO_END = {
    "latency_ms": "ms",
    "setup_s": "s",
}

# name -> unit; span-derived times are self time per call.
PER_LAYER = {
    "cli_other_ms": "ms",  # outside every span: parse, print
    "engine_ms": "ms",  # evaluate/claim self time: grid fan-out
    "cell_ms": "ms",  # cell self time: rebuild planner, result fields
    "solve_ms": "ms",  # solve self time: chain build, assembly, cache
    "ctmc_ms": "ms",  # elimination/absorbing/stationary kernels
    "render_ms": "ms",  # table/CSV/JSON rendering
    "sim_chunk_ms": "ms",  # Monte-Carlo trial chunks
    "solves": "count",  # solve calls that ran a solver (cache miss/none)
    "cache_hits": "count",
    "cache_hit_ratio": "ratio",
    "repair_plan_ms": "ms",  # repair::plan_repair on the degraded store
    "repair_rebuild_ms": "ms",  # run_repair minus barriers: decode+commit
    "repair_barrier_ms": "ms",  # foreground reads served at barriers
    "repair_replans": "count",
    "degraded_reads": "count",
}

SPAN_LAYER = {
    "evaluate": "engine_ms",
    "claim": "engine_ms",
    "cell": "cell_ms",
    "sim_cell": "cell_ms",
    "solve": "solve_ms",
    "elimination_solve": "ctmc_ms",
    "absorbing_solve": "ctmc_ms",
    "stationary_solve": "ctmc_ms",
    "render": "render_ms",
    "chunk": "sim_chunk_ms",
}


class CheckFailed(Exception):
    """The program printed a wrong result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- build --------------------------------------------------------------


def build():
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"no nsrel sources under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


# --- inputs ---------------------------------------------------------------


def system_flags(rng, skip=()):
    """Seeded system parameters; every draw stays in the range where the
    paper's models are well conditioned, so no evaluation fails."""
    values = {
        "n": rng.randint(48, 96),
        "d": rng.randint(8, 16),
        "node-mttf": round(rng.uniform(2e5, 8e5), -3),
        "drive-mttf": round(rng.uniform(1.5e5, 1e6), -3),
        "capacity-gb": rng.choice([250, 300, 500, 750, 1000]),
        "link-gbps": rng.choice([2.5, 10, 25]),
        "her-exp": rng.choice([14, 15]),
        "util": round(rng.uniform(0.5, 0.8), 2),
    }
    flags = []
    for key, value in values.items():
        if key not in skip:
            flags += [f"--{key}", f"{value:g}"]
    return flags


def cli_plan(workload, rng):
    """Returns [(kind, args)] with kind "op" (timed) or "check"."""
    lines = []
    for system in range(SYSTEMS_PER_RUN):
        if workload == "analyze":
            args = ["analyze", "--scheme", "none", "--ft", "10", "--r", "12",
                    *system_flags(rng), "--format", "json"]
            lines.append(("op", args))
            lines.append(("check", args[:-2] + ["--method", "closed",
                                                "--format", "json"]))
        elif workload in SWEEP_STEPS:
            if workload == "sweep_miss":
                scheme, ft = "none", "8"
            else:
                scheme, ft = (("raid5", "2"), ("raid6", "3"))[system % 2]
            low = round(rng.uniform(1e5, 3e5), -3)
            args = ["sweep", "--param", "drive-mttf", "--from", f"{low:g}",
                    "--to", f"{low * 8:g}", "--steps",
                    str(SWEEP_STEPS[workload]), "--scheme", scheme, "--ft",
                    ft, "--r", "12",
                    *system_flags(rng, skip=("drive-mttf",)),
                    "--format", "json"]
            lines.append(("op", args))
            lines.append(("check", args + ["--jobs", "2"]))
            point = ["analyze", *args[args.index("--scheme"):],
                     "--drive-mttf", f"{low:g}"]
            lines.append(("check", point))
            lines.append(("check", point + ["--method", "closed"]))
        elif workload == "sweep_hit":
            args = ["sweep", "--param", "restripe-kb", "--from", "128",
                    "--to", "8192", "--steps", "256", "--scheme", "none",
                    "--ft", "6", "--r", "12", *system_flags(rng),
                    "--format", "json", "--cache-stats"]
            lines.append(("op", args))
            lines.append(("check", ["analyze", *args[args.index("--scheme"):
                                                     -1]]))
        elif workload == "simulate":
            # Fixed rates: the trajectory length, and so the work, depends
            # on them; the seed varies only the Monte-Carlo streams.
            args = ["simulate", "--scheme", "none", "--ft", "2",
                    "--node-mttf", "500", "--drive-mttf", "300",
                    "--trials", "30000", "--seed",
                    str(rng.randrange(1, 2**31)), "--jobs", "1"]
            lines.append(("op", args))
            lines.append(("check", args[:-1] + ["2"]))
        else:
            raise ValueError(workload)
    return lines


def write_plan(path, lines):
    path.write_text("".join("\t".join(argv) + "\n" for argv in lines))
    return path


# --- correctness checks ---------------------------------------------------


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def ok_cells(text, count):
    doc = json.loads(text)
    cells = doc["cells"]
    expect(len(cells) == count, f"expected {count} cells, got {len(cells)}")
    for cell in cells:
        expect(cell["error"] is None, f"cell failed: {cell['error']}")
        expect(math.isfinite(cell["mttdl_hours"]) and cell["mttdl_hours"] > 0,
               "MTTDL not finite and positive")
    return doc


def expect_close_to_closed_form(exact, closed):
    # The paper's closed forms approximate the exact chains.
    expect(abs(exact / closed - 1) < 0.05,
           f"exact {exact} vs closed form {closed}")


def simulate_fields(text):
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    low, high = fields["95% CI"].split("]")[0].strip("[").split(",")
    analytic = float(fields["analytic MTTDL"].split()[0])
    return float(low), float(high), analytic


def check_outputs(workload, plan, outputs):
    """Checks the checked run's stdout of every plan line (the timed calls
    must reproduce it byte for byte)."""
    i = 0
    while i < len(plan):
        if workload == "analyze":
            exact = ok_cells(outputs[i], 1)["cells"][0]["mttdl_hours"]
            closed = ok_cells(outputs[i + 1], 1)["cells"][0]["mttdl_hours"]
            expect_close_to_closed_form(exact, closed)
            i += 2
        elif workload in SWEEP_STEPS:
            doc = ok_cells(outputs[i], SWEEP_STEPS[workload])
            mttdl = [c["mttdl_hours"] for c in doc["cells"]]
            expect(all(a < b for a, b in zip(mttdl, mttdl[1:])),
                   "MTTDL not increasing with drive MTTF")
            expect(outputs[i + 1] == outputs[i], "sweep differs at --jobs 2")
            single = ok_cells(outputs[i + 2], 1)["cells"][0]["mttdl_hours"]
            expect(single == mttdl[0], "sweep point 0 differs from analyze")
            closed = ok_cells(outputs[i + 3], 1)["cells"][0]["mttdl_hours"]
            expect_close_to_closed_form(single, closed)
            i += 4
        elif workload == "sweep_hit":
            doc = ok_cells(outputs[i], 256)
            single = ok_cells(outputs[i + 1], 1)["cells"][0]["mttdl_hours"]
            expect(all(c["mttdl_hours"] == single for c in doc["cells"]),
                   "restripe-kb changed the no-internal-RAID MTTDL")
            cache = doc["meta"]["cache"]
            expect(cache["misses"] == 1 and cache["hits"] == 255,
                   f"cache counters {cache}")
            i += 2
        elif workload == "simulate":
            low, high, analytic = simulate_fields(outputs[i])
            width = high - low
            # Twice the 95% interval: a false alarm is a ~4-sigma event.
            expect(low - width / 2 <= analytic <= high + width / 2,
                   f"analytic {analytic} outside simulated [{low}, {high}]")
            strip = [l for l in outputs[i].splitlines()
                     if not l.startswith("trials:")]
            expect(strip == [l for l in outputs[i + 1].splitlines()
                             if not l.startswith("trials:")],
                   "simulate differs at --jobs 2")
            i += 2


# --- running the driver ---------------------------------------------------


def run_driver(mode, seconds, operands, extra=()):
    cmd = [str(DRIVER), mode, str(seconds), *map(str, operands), *extra]
    start = time.perf_counter()
    result = subprocess.run(cmd, capture_output=True, text=True,
                            timeout=DRIVER_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if result.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {result.returncode}: "
                           f"{result.stderr.strip()}")
    return result.stdout, elapsed


def span_self_times(path):
    """Self time (ms) and count per span name, plus the summed duration
    of the root spans on the calling thread, from one trace file."""
    events = [e for e in json.loads(Path(path).read_text())["traceEvents"]
              if e.get("ph") == "X"]
    self_ms = defaultdict(float)
    counts = defaultdict(int)
    hits = 0
    root_ms = 0.0
    caller = next((e["tid"] for e in events if e["name"] == "evaluate"),
                  None)
    by_tid = defaultdict(list)
    for e in events:
        by_tid[e["tid"]].append(e)
    for tid, spans in by_tid.items():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in spans:
            while stack and e["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if stack:
                self_ms[stack[-1]["name"]] -= e["dur"] / 1000.0
            elif tid == caller:
                root_ms += e["dur"] / 1000.0
            self_ms[e["name"]] += e["dur"] / 1000.0
            counts[e["name"]] += 1
            if e["name"] == "solve" and e.get("args", {}).get("cache") == "hit":
                hits += 1
            stack.append(e)
    return self_ms, counts, hits, root_ms


def cli_layers(stdout, trace_dir):
    """Per-layer metrics of the traced driver process's stdout."""
    rows = [line.split() for line in stdout.splitlines()]
    untraced = defaultdict(list)
    for row in rows:
        if row[0] == "op":
            untraced[row[1]].append(int(row[2]) / 1e6)
    traced = [row for row in rows if row[0] == "traced"]
    totals = defaultdict(float)
    roots = defaultdict(list)
    all_ok = True
    for _, line, pass_no, _, ok in traced:
        all_ok &= ok == "1"
        self_ms, counts, hits, root_ms = span_self_times(
            trace_dir / f"trace_{line}_{pass_no}.json")
        for name, ms in self_ms.items():
            if name in SPAN_LAYER:
                totals[SPAN_LAYER[name]] += max(ms, 0.0)
        totals["solves"] += counts["solve"] - hits
        totals["cache_hits"] += hits
        roots[line].append(root_ms)
    metrics = {name: totals[name] / len(traced) for name in PER_LAYER}
    lookups = metrics["solves"] + metrics["cache_hits"]
    metrics["cache_hit_ratio"] = (metrics["cache_hits"] / lookups
                                  if lookups else 0.0)
    # Time outside every span (argument parsing, printing): the untraced
    # latency of a line minus its traced span time, so that writing the
    # trace file is left out.
    other = [statistics.median(untraced[line]) - statistics.median(ms)
             for line, ms in roots.items() if untraced[line]]
    metrics["cli_other_ms"] = (max(statistics.mean(other), 0.0)
                               if other else 0.0)
    return metrics, all_ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["analyze", "sweep_miss", "sweep_hit",
                                 "sweep_raid", "simulate", "repair"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    work = BUILD_DIR / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = random.Random(f"{args.workload}:{args.seed}")

    correct = True
    if args.workload == "repair":
        mode, operands = "repair", [rng.randrange(1, 2**62)]
    else:
        mode = "cli"
        plan = cli_plan(args.workload, rng)
        check_dir, op_dir = work / "check", work / "op"
        check_dir.mkdir()
        op_dir.mkdir()
        run_driver(mode, 0, [write_plan(work / "check_plan.txt",
                                        [argv for _, argv in plan]),
                             check_dir], ["--setup-only"])
        outputs = [(check_dir / f"out_{i}.txt").read_text()
                   for i in range(len(plan))]
        op_lines = [i for i, (kind, _) in enumerate(plan) if kind == "op"]
        operands = [write_plan(work / "op_plan.txt",
                               [plan[i][1] for i in op_lines]), op_dir]
        try:
            check_outputs(args.workload, plan, outputs)
        except (CheckFailed, KeyError, ValueError) as failure:
            log(f"check failed: {failure!r}")
            correct = False

    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup_times.append(run_driver(mode, 0, operands, ["--setup-only"])[1])

    stdouts = []
    for process in range(PROCESSES):
        trace = args.trace and mode == "cli" and process == 0
        stdouts.append(run_driver(mode, args.seconds / PROCESSES, operands,
                                  ["--trace"] if trace else [])[0])
    if mode == "cli":
        for j, i in enumerate(op_lines):
            if (op_dir / f"out_{j}.txt").read_text() != outputs[i]:
                log(f"check failed: timed line {j} differs from the check run")
                correct = False
    per_process = [[line.split() for line in out.splitlines()
                    if line.startswith("op ")] for out in stdouts]
    if any(not process_ops for process_ops in per_process):
        raise RuntimeError("a driver process timed no operation")
    ops = [op for process_ops in per_process for op in process_ops]
    failed = sum(1 for op in ops if op[3] != "1")
    correct &= failed == 0
    medians = [statistics.median(int(op[2]) / 1e6 for op in process_ops)
               for process_ops in per_process]
    latency_ms = [int(op[2]) / 1e6 for op in ops]
    p50 = statistics.median(latency_ms)
    p90 = statistics.quantiles(latency_ms, n=10)[8]
    setup_s = statistics.median(setup_times)
    log(f"{len(ops)} calls in {PROCESSES} processes: pooled p50 {p50:.3f} "
        f"ms, p90 {p90:.3f} ms; per-process medians "
        f"{' '.join(f'{m:.2f}' for m in medians)} ms; set-up {setup_s:.4f} s")

    if not args.trace:
        values = {"latency_ms": min(medians), "setup_s": setup_s}
        units = END_TO_END
    else:
        units = PER_LAYER
        if mode == "cli":
            values, traced_ok = cli_layers(stdouts[0], op_dir)
            correct &= traced_ok
        else:
            values = {name: 0.0 for name in PER_LAYER}
            def median(column):
                return float(statistics.median(column(op) for op in ops))
            values["repair_plan_ms"] = median(lambda op: int(op[4]) / 1e6)
            values["repair_barrier_ms"] = median(lambda op: int(op[5]) / 1e6)
            values["repair_rebuild_ms"] = median(
                lambda op: (int(op[2]) - int(op[5])) / 1e6)
            values["repair_replans"] = median(lambda op: int(op[6]))
            values["degraded_reads"] = median(lambda op: int(op[7]))

    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        log(f"perfbench: {error}")
        sys.exit(1)
