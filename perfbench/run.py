#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rss16 --seed 10 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (which compiles the
simulator library from src/) into the build directory, then runs the
altoc-perfbench binary with the given arguments. Its standard output
is the binary's: a report, then one JSON line with the metrics. Build
output goes to standard error.

--self-test builds the benchmark's own tests (perfbench/tests) in a
separate build tree and runs them with ctest.

The build directory is $CARGO_TARGET_DIR/perfbench when that variable
is set, else .bench_build/perfbench.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, target, extra_args=()):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release", *extra_args]
        if subprocess.run(cmd, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")


def main(argv):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from the root of a full "
             "checkout of the repository")
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"

    if argv == ["--self-test"]:
        build_dir = os.path.join(root, "perfbench-tests")
        build(build_dir, "perfbench_tests", ["-DPERFBENCH_TESTS=ON"])
        return subprocess.run(["ctest", "--output-on-failure"],
                              cwd=build_dir).returncode

    build_dir = os.path.join(root, "perfbench")
    build(build_dir, "altoc-perfbench")
    binary = os.path.join(build_dir, "altoc-perfbench")
    sys.stdout.flush()
    return subprocess.run([binary, *argv]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
