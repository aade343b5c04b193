#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--trace 0|1] [--out results.json]

For every seed (first-seed, first-seed+1, ...) it runs perfbench/run.py once
on each workload in turn and, for each workload and metric, prints the
median, the first and third quartiles (statistics.quantiles(values, n=4))
and the spread: the distance between the quartiles as a share of the median. An end-to-end
metric is steady when its spread is below a third of its bound in
BENCHMARK.json; setup_s is reported but not held to that. Exits 1 if a run
fails or reports correct=false, or if a gated spread is not steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of `values`."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main(argv):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write every value and summary as JSON here")
    args = parser.parse_args(argv)

    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in defs}
    ok = True
    report = {}
    workloads = args.workloads.split(",")
    values = {w: {m["name"]: [] for m in defs} for w in workloads}
    # Seeds outermost: the workloads take turns, so a slow spell of the
    # machine falls on all of them rather than on one workload's runs.
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            if not result["correct"] or result["failed"]:
                print("%s seed %d: correct=%s failed=%d" % (
                    workload, seed, result["correct"], result["failed"]))
                ok = False
            for name, vals in values[workload].items():
                vals.append(result["metrics"][name]["value"])
    for workload in workloads:
        report[workload] = {}
        print("== %s (%d seeds from %d)" % (workload, args.runs, args.first_seed))
        for name, vals in values[workload].items():
            med, q1, q3, rel = spread(vals)
            bound = bounds[name]
            steady = bound is None or name == "setup_s" or rel < bound / 3
            ok &= steady
            report[workload][name] = {"values": vals, "median": med, "q1": q1,
                                      "q3": q3, "spread": rel, "bound": bound}
            print("  %-34s median %-14.6g q1 %-14.6g q3 %-14.6g spread %7.4f%s" % (
                name, med, q1, q3, rel,
                "" if bound is None else "  bound %.2f %s" % (
                    bound, "ok" if steady else "NOT STEADY")))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
