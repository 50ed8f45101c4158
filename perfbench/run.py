#!/usr/bin/env python3
"""Builds and runs the end-to-end cluster benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload probe_heavy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The program's libraries and the benchmark are built from source with CMake
into $CARGO_TARGET_DIR (default .bench_build). The benchmark binary prints
its metrics by name and, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is the binary's: non-zero when a run's output differs from the reference
join, or when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    return os.path.join(build_dir, "perfbench")


def main(argv):
    if "--selftest" in argv:
        import selftest

        return selftest.main(build())
    binary = build()
    sys.stdout.flush()
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main(sys.argv[1:]))
