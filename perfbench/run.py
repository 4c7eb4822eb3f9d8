#!/usr/bin/env python3
"""Builds and runs the end-to-end P-SMR benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is built from source in Release into .bench_build/perfbench
(CMake, then the arithmetic tests run once per build); build output goes to
standard error. The benchmark's standard output is passed through, so its
last line is the result object. With --trace 1 the span file is written to
.bench_build/perfbench/traces/. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "smr", "deployment.h")):
        fail("program sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = os.path.join(BUILD, "psmr_perfbench")
    test = os.path.join(BUILD, "perfbench_arith_test")
    stamp = os.path.join(BUILD, "arith_test.passed")
    if not os.path.isfile(stamp) or os.path.getmtime(stamp) < os.path.getmtime(test):
        result = subprocess.run([test, "--gtest_brief=1"], stdout=sys.stderr,
                                stderr=sys.stderr, timeout=120)
        if result.returncode != 0:
            fail("arithmetic tests failed")
        with open(stamp, "w") as f:
            f.write("ok\n")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    child = subprocess.Popen(command)
    # Stopping this script stops the benchmark too.
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: child.terminate())
    try:
        returncode = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(returncode)


if __name__ == "__main__":
    main()
