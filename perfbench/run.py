#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
driver (and the libraries under src/) into .bench_build/perfbench; later runs
only check that the build is current. The driver's standard output is passed
through; its last line is the JSON result. A traced run (--trace 1) also
writes its span log to .bench_build/perfbench/spans/<workload>-seed<n>.json.

Exits non-zero without printing a result when the build fails, the driver
fails or its last line is not a well-formed result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("emulab_grid", "fluid_population", "fuzz_campaign")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER_TIMEOUT_S = 170


def run_logged(cmd, log):
    """Runs `cmd` with its output appended to `log`; returns the exit code."""
    with open(log, "a") as out:
        return subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT).returncode


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    log.write_text("")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", target])
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            sys.stderr.write(log.read_text()[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return BUILD / target


def is_result(line):
    """True when `line` is the driver's JSON result with exactly its keys."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (numbers are not comparable)")
    args = parser.parse_args(argv)

    driver = build("perfbench_driver")
    if driver is None:
        return 1
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / ("%s-seed%d.json" % (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver timed out after %d s\n" % DRIVER_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not is_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: driver failed (exit %d)\n" % proc.returncode)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
