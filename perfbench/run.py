#!/usr/bin/env python3
"""Builds the perfbench program from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library under src/ and the benchmark
under perfbench/src/ are compiled with CMake into $CARGO_TARGET_DIR
(default .bench_build); later runs reuse that build. Every argument is
passed on to the program, which prints a readable report and, as its last
line, one JSON result. The program runs in the build directory, where the
JIT and the host C compiler keep their temporary files.

Exit status is the program's, or 2 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    os.makedirs(build_dir, exist_ok=True)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(build_dir, "perfbench")] + sys.argv[1:],
                          cwd=build_dir).returncode


if __name__ == "__main__":
    sys.exit(main())
