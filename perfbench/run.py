#!/usr/bin/env python3
"""Builds the lightwave benchmark in Release and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet_serve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Every argument is passed to the benchmark binary. The build (CMake, into
perfbench/.build) writes its output to stderr, so stdout carries only the
binary's provenance line and, as its last line, the JSON result. A failed
build exits nonzero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, ".build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        # Build output goes to stderr: stdout is reserved for the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.isfile(BINARY)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    code = subprocess.run([BINARY] + sys.argv[1:]).returncode
    # A signal (negative code) is a failure too.
    return code if code > 0 else (0 if code == 0 else 1)


if __name__ == "__main__":
    sys.exit(main())
