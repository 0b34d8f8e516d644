#!/usr/bin/env python3
"""Repository benchmark entry point: builds `kvbench` and runs one workload.

    python3 perfbench/run.py --workload read-sparse --seed 1 --seconds 10 --trace 0

Run it from the repository root. It configures and builds
`perfbench/CMakeLists.txt` (the lfsmr library plus `kvbench.cpp`) under
`$CARGO_TARGET_DIR/perfbench`, default `.bench_build/perfbench`, then runs
the benchmark binary with the same arguments. Build output goes to stderr,
so the last line of stdout is the binary's JSON result. Any build or run
failure exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir],
        ["cmake", "--build", build_dir, "--target", "kvbench", "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "kvbench")
    try:
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: kvbench exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
