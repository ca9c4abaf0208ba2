#!/usr/bin/env python3
"""Compare two perf ledgers against BENCHMARK.json's bounds.

    python3 tools/bench_diff.py BENCH_prM.json BENCH_prN.json
    python3 tools/bench_diff.py --warn-only          # the two newest ledgers

For each workload and seed, the untraced runs of each ledger give every
end-to-end metric's median and quartiles, and, where tools/bench_record.py
ran alternating pairs, how many pairs the new side won (ties count for
neither). Each metric gets one verdict:

  gain        the new side won at least 9 of 10 pairs and the medians
              differ by more than the old runs' interquartile range;
  worse       the new median is worse than the old by more than the bound;
  unresolved  either side's interquartile range, over its median, is wider
              than the bound, and not every new run beats every old run;
  no worse    otherwise.

A `worse` or `unresolved` metric is flagged, as are a larger share of
failed oracle checks and a determinism digest that differs between runs.
The per-layer metrics are printed for information: each one's median and
quartiles over a workload's traced runs. obs.trace_overhead_share is
labelled `unresolved` when its quartiles straddle zero (tracing's cost is
inside rep-to-rep noise) and `one sample` when a ledger holds a single
traced run of the workload. Exit status 1 when anything is flagged, unless
--warn-only. Ledgers whose runs
differ in length are refused. --markdown prints instead the table that
docs/PERFORMANCE.md quotes.
"""
import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def newest_two():
    def pr(path):
        return int(re.search(r"BENCH_pr(\d+)\.json$", path).group(1))
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_pr*.json")), key=pr)
    if len(paths) < 2:
        sys.exit("bench_diff: fewer than two BENCH_pr*.json at %s" % ROOT)
    return paths[-2:]


def untraced(doc):
    """{(workload, seed): [run, ...]} of a ledger's untraced runs."""
    groups = {}
    for run in doc["runs"]:
        if run["trace"] == 0:
            groups.setdefault((run["workload"], run["seed"]), []).append(run)
    return groups


def traced(doc):
    """{workload: [run, ...]} of a ledger's traced runs."""
    groups = {}
    for run in doc["runs"]:
        if run["trace"] == 1:
            groups.setdefault(run["workload"], []).append(run)
    return groups


def overhead_label(values, q):
    """Whether a set of trace-overhead shares says what tracing costs."""
    if len(values) == 1:
        return "one sample"
    return "unresolved" if q[0] <= 0 <= q[2] else ""


def digest(run):
    return next((l.split()[-1] for l in run["lines"]
                 if l.startswith("digest ")), None)


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(old_runs, new_runs, metric):
    """One row: each side's quartiles, pairs won by the new side, verdict."""
    name, lower = metric["name"], metric["better"] == "lower"
    a = [r["result"]["metrics"][name]["value"] for r in old_runs]
    b = [r["result"]["metrics"][name]["value"] for r in new_runs]
    qa, qb = quartiles(a), quartiles(b)

    def better(x, y):
        return x < y if lower else x > y

    old_pair = {r["pair"]: v for r, v in zip(old_runs, a) if "pair" in r}
    pairs = [(old_pair[r["pair"]], v) for r, v in zip(new_runs, b)
             if r.get("pair") in old_pair]
    wins = sum(better(y, x) for x, y in pairs)
    ratio = qb[1] / qa[1] if qa[1] else float("inf")
    worse = ratio - 1 if lower else 1 - ratio
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0 for q in (qa, qb))
    if (pairs and wins >= 0.9 * len(pairs) and better(qb[1], qa[1])
            and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
        verdict = "gain"
    elif worse > metric["bound"]:
        verdict = "worse"
    elif spread > metric["bound"] and not all(better(y, x)
                                               for x in a for y in b):
        verdict = "unresolved"
    else:
        verdict = "no worse"
    return {"old": qa, "new": qb, "ratio": ratio, "wins": wins,
            "pairs": len(pairs), "verdict": verdict}


def fmt(q):
    return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ledgers", nargs="*", help="old and new ledger")
    parser.add_argument("--warn-only", action="store_true")
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args()
    if len(args.ledgers) not in (0, 2):
        parser.error("give two ledgers, or none for the two newest")
    old_path, new_path = args.ledgers or newest_two()
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    lengths = {run["seconds"] for run in old["runs"] + new["runs"]}
    if len(lengths) != 1:
        sys.exit("bench_diff: the ledgers' runs differ in length (%s s); "
                 "compare ledgers taken at one run length"
                 % ", ".join(str(s) for s in sorted(lengths)))

    flags = []
    rows = []
    old_groups, new_groups = untraced(old), untraced(new)
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(s for w, s in new_groups if w == workload)
        if not seeds or any((workload, s) not in old_groups for s in seeds):
            flags.append("%s: missing from a ledger" % workload)
            continue
        for seed in seeds:
            a, b = old_groups[(workload, seed)], new_groups[(workload, seed)]
            for metric in spec["end_to_end"]:
                row = compare(a, b, metric)
                row.update(workload=workload, seed=seed, metric=metric["name"])
                rows.append(row)
                if row["verdict"] in ("worse", "unresolved"):
                    flags.append("%s seed %d %s: %s, %s -> %s" % (
                        workload, seed, metric["name"], row["verdict"],
                        fmt(row["old"]), fmt(row["new"])))
            share = [sum(r["result"]["failed"] for r in runs) /
                     max(1, sum(r["result"]["attempted"] for r in runs))
                     for runs in (a, b)]
            if share[1] > share[0]:
                flags.append("%s seed %d: failed share %.3g -> %.3g"
                             % (workload, seed, share[0], share[1]))
            if len({digest(r) for r in a + b}) != 1:
                flags.append("%s seed %d: digest differs between runs"
                             % (workload, seed))

    if args.markdown:
        print("| workload | seed | metric | before: median [Q1, Q3] | "
              "after: median [Q1, Q3] | ratio | pairs won | verdict |")
        print("|---|---:|---|---:|---:|---:|---:|---|")
        for row in rows:
            print("| %s | %d | `%s` | %s | %s | ×%.2f | %s | %s |" % (
                row["workload"], row["seed"], row["metric"], fmt(row["old"]),
                fmt(row["new"]), row["ratio"],
                "%d of %d" % (row["wins"], row["pairs"]) if row["pairs"]
                else "—", row["verdict"]))
        return 0

    print("%s -> %s" % (os.path.basename(old_path), os.path.basename(new_path)))
    print("host: %s | %s" % (old["host"].get("cpu"), new["host"].get("cpu")))
    print("end-to-end (untraced runs): median [Q1, Q3] before and after")
    for row in rows:
        print("  %-9s seed %d %-12s %-30s %-30s x%.3f  %d/%d  %s" % (
            row["workload"], row["seed"], row["metric"], fmt(row["old"]),
            fmt(row["new"]), row["ratio"], row["wins"], row["pairs"],
            row["verdict"]))

    old_layer, new_layer = traced(old), traced(new)
    print("per-layer (traced runs): median [Q1, Q3] before and after")
    for workload in sorted(set(old_layer) & set(new_layer)):
        a, b = old_layer[workload], new_layer[workload]
        names = set.intersection(*(set(r["result"]["metrics"])
                                   for r in a + b))
        for name in sorted(names):
            va = [r["result"]["metrics"][name]["value"] for r in a]
            vb = [r["result"]["metrics"][name]["value"] for r in b]
            qa, qb = quartiles(va), quartiles(vb)
            ratio = "x%.3f" % (qb[1] / qa[1]) if qa[1] > 0 <= qb[1] else "-"
            cells = [fmt(qa), fmt(qb)]
            if name == "obs.trace_overhead_share":
                cells = ["%s %s" % (cell, overhead_label(v, q)) for cell, v, q
                         in ((cells[0], va, qa), (cells[1], vb, qb))]
            print("  %-9s %-32s %-30s %-30s %s" % (workload, name, cells[0],
                                                   cells[1], ratio))

    for flag in flags:
        print(("::warning::bench_diff: " if args.warn_only else
               "bench_diff: ") + flag)
    return 0 if args.warn_only or not flags else 1


if __name__ == "__main__":
    sys.exit(main())
