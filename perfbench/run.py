#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload review_mix --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (Release, failpoints off, no -Werror) under .bench_build/;
later runs only re-check the build. Build output goes to stderr, the
benchmark's own lines to stdout; the last stdout line is the result
JSON. Exits non-zero, without a result, when the build or a run fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "4"


def build():
    if not os.path.isfile(os.path.join(HERE, "..", "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(HERE, "..", "src")):
        sys.exit("perfbench: the damocles sources are missing next to perfbench/")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    for command in (configure, ["cmake", "--build", BUILD, "-j", JOBS]):
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(command))
    return os.path.join(BUILD, "perfbench")


def main():
    binary = build()
    sys.stdout.flush()
    try:
        done = subprocess.run([binary] + sys.argv[1:], timeout=175)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded 175 s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
