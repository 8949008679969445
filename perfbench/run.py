#!/usr/bin/env python3
"""Builds and runs one workload of the SbQA mediation-engine benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload serve_local --seed 1 --seconds 15 --trace 0

Builds the library and the benchmark from source with CMake into
.bench_build/perfbench (a no-op when up to date), runs the output checks'
self-test, then runs the workload. The report goes to standard output; its
last line is one JSON object with the keys correct, attempted, failed and
metrics. Build output goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("serve_local", "serve_crossshard", "sim_boinc", "sim_boinc_sharded")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; exits on failure."""
    for needed in ("CMakeLists.txt", os.path.join("src", "engine", "engine.h"),
                   os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from the root of the sbqa sources")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                   "perfbench_selftest", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()

    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    print(selftest.stdout, end="")
    selftest_ok = selftest.returncode == 0

    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(run.stdout, end="")
        fail(f"{args.workload} exited with code {run.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    result["correct"] = bool(result["correct"]) and selftest_ok
    print(json.dumps(result))


if __name__ == "__main__":
    main()
