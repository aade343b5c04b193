#!/usr/bin/env python3
"""Tests the benchmark's own code, then smoke-runs every workload.

    python3 perfbench/selftest.py

1. Builds and runs perfbench_selftest: span self-time arithmetic, the
   median/quantile helpers, the allocation counter, the output tally and
   digest, and the metric name lists.
2. Runs perfbench/run.py --tiny on every workload of BENCHMARK.json, untraced
   and traced, and checks that the last line is a result with correct=true,
   failed=0 and exactly the metrics BENCHMARK.json declares for that mode,
   each with its declared unit and a name matching [A-Za-z0-9_.-]+.

Tiny runs take a few seconds each; their numbers are not comparable with
full-size runs. Exits 1 on the first failure.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def check_result(workload, trace, lines, declared):
    if not run.is_result(lines[-1]):
        fail("%s trace=%d: last line is not a result" % (workload, trace))
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s trace=%d: correct=%s failed=%s" % (
            workload, trace, result["correct"], result["failed"]))
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail("%s trace=%d: metrics %s, declared %s" % (
            workload, trace, sorted(metrics), sorted(declared)))
    for name, metric in metrics.items():
        if not NAME.fullmatch(name):
            fail("%s: bad metric name %r" % (workload, name))
        if metric.get("unit") != declared[name]:
            fail("%s: %s has unit %r, declared %r" % (
                workload, name, metric.get("unit"), declared[name]))
        if not isinstance(metric.get("value"), (int, float)):
            fail("%s: %s has no numeric value" % (workload, name))


def main():
    selftest = run.build("perfbench_selftest")
    if selftest is None or subprocess.run([str(selftest)]).returncode != 0:
        fail("perfbench_selftest")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in modes.items():
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                fail("%s trace=%d exited %d" % (workload, trace, proc.returncode))
            check_result(workload, trace, proc.stdout.rstrip("\n").split("\n"), declared)
            print("ok  %s trace=%d" % (workload, trace))
    print("perfbench selftest: all checks passed")


if __name__ == "__main__":
    main()
