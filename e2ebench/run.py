#!/usr/bin/env python3
"""Builds the end-to-end benchmark harness from source, then runs it once.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload divergent3 --seed 1 --seconds 30 --trace 0

The harness (e2ebench/harness.cc) and the merge service library (src/) are
configured and built with CMake into $CARGO_TARGET_DIR/e2ebench, or
.bench_build/e2ebench when that variable is unset; an up-to-date build is
reused.  Build output goes to stderr, so the last line of stdout is the
harness's JSON result.  Exits non-zero, printing no result, when the build
or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "e2ebench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    harness = os.path.join(out, "e2ebench")
    return subprocess.run([harness] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
