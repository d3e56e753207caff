#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results.

Usage:
    compare.py SET_A [SET_B]

A set is a directory of result files. A result file is the saved standard
output of one `ukraft_e2e` run: its first line names the workload
("workload: <name> seed ...") and its last line is the JSON result.

For every workload and metric the script prints each set's median and
quartiles (statistics.quantiles, n=4) and the spread, the distance between
the quartiles as a share of the median. Metrics with a regression bound in
the repository's BENCHMARK.json get a verdict: the two sets agree when their
medians differ by no more than the bound, in either direction, and neither
spread exceeds it (setup_s is exempt from the spread check). Metrics without
a bound are reported as identical when every value of both sets is the same.

A run that reports correct=false or any failed op is a failed run. Any failed
run disagrees, and so does a set B with more failed ops than set A. With one
set, only its statistics and its failed runs print.

The exit code is 1 on any disagreement or failed run.
"""

import argparse
import json
import os
import statistics
import sys


def load_set(path):
    """Returns {workload: {"metrics": {metric: [values]}, "runs": n,
    "failed_runs": n, "failed_ops": n}} for every result file in path."""
    results = {}
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if not os.path.isfile(full):
            continue
        with open(full, encoding="utf-8") as f:
            lines = [line.strip() for line in f if line.strip()]
        if not lines or not lines[0].startswith("workload:"):
            continue
        workload = lines[0].split()[1]
        entry = results.setdefault(
            workload, {"metrics": {}, "runs": 0, "failed_runs": 0, "failed_ops": 0})
        entry["runs"] += 1
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{full}: last line is not a JSON result", file=sys.stderr)
            entry["failed_runs"] += 1
            continue
        if not result["correct"] or result["failed"] > 0:
            entry["failed_runs"] += 1
        entry["failed_ops"] += result["failed"]
        for metric, value in result["metrics"].items():
            entry["metrics"].setdefault(metric, []).append(float(value["value"]))
    return results


def stats(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def load_bounds(path):
    with open(path, encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def fmt(median, q1, q3, spread):
    return f"{median:14.6g} [{q1:.6g}, {q3:.6g}] {100 * spread:6.2f}%"


def compare_runs(a, b):
    """Prints the run counts; returns the number of disagreements."""
    bad = a["failed_runs"]
    line = f"   runs: A {a['runs']} ({a['failed_runs']} failed, {a['failed_ops']} failed ops)"
    if b is not None:
        line += f", B {b['runs']} ({b['failed_runs']} failed, {b['failed_ops']} failed ops)"
        bad += b["failed_runs"] + (1 if b["failed_ops"] > a["failed_ops"] else 0)
    print(line + ("  FAILED RUNS" if bad else ""))
    return bad


def compare_metric(metric, va, vb, bound):
    """Prints one metric; returns 1 when the sets disagree, else 0."""
    sa = stats(va)
    line = f"   {metric:40s} A {fmt(*sa)}"
    if vb is None:
        print(line)
        return 0
    sb = stats(vb)
    line += f" | B {fmt(*sb)}"
    if bound is None:
        same = len(set(va + vb)) == 1
        print(line + ("  identical" if same else ""))
        return 0
    shift = (sb[0] - sa[0]) / sa[0] if sa[0] else 0.0
    limit = bound["bound"]
    spread_ok = metric == "setup_s" or (sa[3] <= limit and sb[3] <= limit)
    agree = abs(shift) <= limit and spread_ok
    verdict = "agree" if agree else "DISAGREE"
    print(f"{line}  B - A {100 * shift:+.2f}% (bound {100 * limit:g}%) {verdict}")
    return 0 if agree else 1


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b", nargs="?")
    args = parser.parse_args()

    bounds = load_bounds(os.path.join(here, "..", "..", "BENCHMARK.json"))
    a = load_set(args.set_a)
    b = load_set(args.set_b) if args.set_b else None
    disagree = 0
    for workload in sorted(a):
        print(f"== {workload}")
        wb = b.get(workload) if b is not None else None
        if b is not None and wb is None:
            print("   missing from B  DISAGREE")
            disagree += 1
        disagree += compare_runs(a[workload], wb)
        for metric in sorted(a[workload]["metrics"]):
            va = a[workload]["metrics"][metric]
            vb = wb["metrics"].get(metric) if wb is not None else None
            disagree += compare_metric(metric, va, vb, bounds.get(metric))
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
