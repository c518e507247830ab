#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage, from the root of the repository:

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds simbench/ (which compiles the
simulator from src/) into .bench_build/; later runs rebuild only what
changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. With --trace 1 the
traced pass's spans are written to .bench_build/spans/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_JOBS = "4"


def fail(message):
    print(f"simbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to simbench/")
    for tool in ("cmake", "ninja"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "simbench", "-j",
         BUILD_JOBS],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "simbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        fail(f"build failed ({err})")

    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
