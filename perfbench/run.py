#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

Builds perfbench_driver from the checkout's own sources into .bench_build/
(the first run configures and compiles; later runs are an incremental
no-op build) and runs one workload:

    python3 perfbench/run.py --workload replay_cold --seed 7 --seconds 10 --trace 0

Build output goes to standard error. The last line of standard output is
the driver's JSON result. The exit status is the driver's: nonzero when a
correctness check failed or the run was invalid, and 2 when the sources or
the build are missing.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("replay_cold", "replay_open")
# Wall-clock cap of one driver run; the build before it is not capped.
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", "3", "--target", "perfbench_driver"],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=424242)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)

    command = [DRIVER, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", ROOT,
               "--out-dir", os.path.join(BUILD, "perfbench")]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
