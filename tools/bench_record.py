#!/usr/bin/env python3
"""Run the wall-clock benchmark and write a perf ledger, BENCH_pr<N>.json.

    python3 tools/bench_record.py --pr N
    python3 tools/bench_record.py --pr N --parent ../parent --parent-pr M

Every run is `perfbench/run.py` at BENCHMARK.json's run length. Alone, it
runs each workload at seed 1 once untraced (--trace 0, the end-to-end
metrics) and TRACED_RUNS times traced (--trace 1, the per-layer metrics)
and writes BENCH_pr<N>.json at the root of this checkout.

With --parent, the checkout at that path (the parent commit) is measured
beside this one. Each workload runs PAIRS untraced pairs at seed 1, the
two checkouts alternating which goes first, and `commit` runs PAIRS more at
seed 2; then each side runs every workload TRACED_RUNS times traced, again
alternating. The parent's runs go to BENCH_pr<parent-pr>.json, written next
to this checkout's ledger.

A ledger holds every run made: the lines it printed (its JSON result last),
its calibration-loop median and, for a pair, the pair's index; and the host
lines (nproc, CPU, ISA flags, compiler, build type, commit, `src/` line
count). tools/bench_diff.py compares two ledgers.
"""
import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900  # includes the first run's build
PAIRS = 10  # the fewest alternating pairs a gain or a no-change may rest on
# Traced runs per workload and side: one run's obs.trace_overhead_share is
# rep-to-rep noise, so tools/bench_diff.py reads it from their quartiles.
TRACED_RUNS = 5
# `commit`, the paper's validation pipeline, also runs at seed 2, so a
# result on it is checked on a chain no change was tuned on.
PAIR_SEEDS = {"commit": (1, 2)}


def run_perfbench(root, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    print("bench_record: %s %s seed %d trace %d" % (root, workload, seed,
                                                    trace), file=sys.stderr)
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    # Paths inside the checkout are kept relative to it.
    lines = proc.stdout.replace(root + os.sep, "").strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("bench_record: %s --workload %s --trace %d printed no "
                 "result (exit %d)\n%s" % (root, workload, trace,
                                           proc.returncode,
                                           proc.stderr[-2000:]))
    calibration = None
    for line in lines:
        match = re.match(r"host speed: calibration loop median ([0-9.]+) ms",
                         line)
        if match:
            calibration = float(match.group(1))
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "exit": proc.returncode,
            "calibration_median_ms": calibration, "lines": lines,
            "result": result}


def host_of(lines):
    """The provenance fields of perfbench's `host:` and `build:` lines."""
    host = {}
    for line in lines:
        if line.startswith("host: ") or line.startswith("build: "):
            host[line.split(":", 1)[0] + "_line"] = line
    fields = dict(part.strip().split(" ", 1)
                  for part in host.get("host_line", "host: ")[6:].split("|")
                  if " " in part.strip())
    build = host.get("build_line", "build: ")[7:].split("|")
    host["nproc"] = int(fields.get("nproc", "0"))
    host["cpu"] = fields.get("cpu", "")
    host["isa"] = fields.get("isa", "").split(",")
    host["compiler"] = build[0].strip()
    for part in build[1:]:
        key, _, value = part.strip().partition(" ")
        if key == "commit":
            host["commit"] = value
        elif key == "src":  # "src lines N"
            host["src_lines"] = int(value.split()[-1])
    return host


def alternating(roots, i):
    """The order of the sides in the i-th pair."""
    return range(len(roots)) if i % 2 == 0 else reversed(range(len(roots)))


def measure_pairs(roots, workloads, seconds):
    """Alternating untraced pairs, then TRACED_RUNS alternating traced runs
    per workload and root; one list of runs per root."""
    runs = [[] for _ in roots]
    for workload in workloads:
        for seed in PAIR_SEEDS.get(workload, (1,)):
            for i in range(PAIRS):
                for side in alternating(roots, i):
                    run = run_perfbench(roots[side], workload, seed, seconds, 0)
                    run["pair"] = i
                    runs[side].append(run)
    for workload in workloads:
        for i in range(TRACED_RUNS):
            for side in alternating(roots, i):
                runs[side].append(
                    run_perfbench(roots[side], workload, 1, seconds, 1))
    return runs


def write(root, pr, runs):
    doc = {"pr": pr, "host": host_of(runs[0]["lines"]), "runs": runs}
    path = os.path.join(root, "BENCH_pr%d.json" % pr)
    with open(path, "w") as out:
        json.dump(doc, out, indent=1)
        out.write("\n")
    print("bench_record: wrote %s" % path, file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--parent-pr", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    if args.parent is None:
        write(ROOT, args.pr, [run_perfbench(ROOT, workload, 1, seconds, trace)
                              for workload in workloads
                              for trace in [0] + [1] * TRACED_RUNS])
        return 0
    if args.parent_pr is None:
        parser.error("--parent needs --parent-pr")
    parent_runs, runs = measure_pairs([os.path.abspath(args.parent), ROOT],
                                      workloads, seconds)
    write(ROOT, args.parent_pr, parent_runs)
    write(ROOT, args.pr, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
