#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench/src) from the repo root.

    python3 perfbench/run.py --workload admit_wire|session_wire|library \
        --seed N --seconds S --trace 0|1

The benchmark is compiled from this checkout's sources into the build
directory named by $CARGO_TARGET_DIR (default .bench_build), then run with
the same arguments.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Exits non-zero, without a result,
when the sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures on first use, then builds incrementally."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "rmts_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            fail("build failed: " + " ".join(step))


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no rmts sources under " + os.path.join(ROOT, "src"))
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    build(build_dir)
    binary = os.path.join(build_dir, "rmts_perfbench")
    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
