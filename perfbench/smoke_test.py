#!/usr/bin/env python3
"""Smoke test of the benchmark.

    python3 perfbench/smoke_test.py

Runs a tiny instance (`--scale smoke`) of every workload in BENCHMARK.json,
untraced and traced, and checks that
  - every oracle passes (exit status 0, "correct": true, no failed checks);
  - the JSON line carries exactly the end-to-end metrics (untraced) or the
    per-layer metrics (traced) that BENCHMARK.json names, with their units;
  - the human-readable lines print every metric the workload reports by
    name;
  - the traced and untraced runs print the same determinism digest.
Exit status 0 when all of that holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics each workload prints by name on its human-readable lines.
COMMON_LINES = ["setup_s", "peak_rss_mb", "error_rate", "tx_per_s"]
WORKLOAD_LINES = {
    "commit": ["commit_tps", "block_ms_p50", "block_ms_p90", "bmac_tps"],
    "replay": ["append_tps", "replay_tps", "recover_ms"],
    "serve": ["serve_sim_speed"],
    "failover": ["failover_sim_speed"],
}


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", trace, "--scale", "smoke"]
    return subprocess.run(command, capture_output=True, text=True, timeout=900)


def check_run(workload, trace, spec, problems):
    proc = run(workload, trace)
    where = "%s --trace %s" % (workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append("%s: exit %d\n%s" % (where, proc.returncode,
                                              proc.stderr[-2000:]))
        return None
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("%s: oracle failures\n%s" % (where, proc.stdout))
    section = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append("%s: metrics %s, expected %s" % (where, got, expected))
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append("%s: %s is not a number" % (where, name))
    if trace == "0":
        printed = {line.split()[0] for line in lines if line.split()}
        for name in COMMON_LINES + WORKLOAD_LINES[workload]:
            if name not in printed:
                problems.append("%s: no line for %s" % (where, name))
    digests = [line.split()[-1] for line in lines if line.startswith("digest ")]
    return digests[0] if digests else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {check_run(workload, trace, spec, problems)
                   for trace in ("0", "1")}
        if len(digests) != 1 or None in digests:
            problems.append("%s: digests differ between traced and untraced "
                            "runs: %s" % (workload, digests))
        print("%-9s %s" % (workload, "ok" if not problems else "FAILED"))
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
