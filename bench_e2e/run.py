#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md beside this file).

    python3 bench_e2e/run.py --workload daemon_mixed --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py --selftest

The first call configures and builds this directory's CMake project (the
repository's libraries from src/ plus the harness) into
.bench_build/bench_e2e at the repository root; later calls rebuild
incrementally. Build output goes to stderr, so the last line on stdout
stays the benchmark's JSON result. The exit status is the benchmark's;
it is non-zero, with no result printed, when the build fails (for
example when src/ is missing).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
TEST_TIMEOUT_S = 600


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("bench_e2e: no repository sources at %s/src" % ROOT,
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("bench_e2e: %s" % e, file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def run(cmd, timeout):
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("bench_e2e: timed out after %d s" % timeout, file=sys.stderr)
        return 1


def main(argv):
    if argv == ["--selftest"]:
        if not build("bench_e2e_tests"):
            return 1
        return run([os.path.join(BUILD, "bench_e2e_tests")], TEST_TIMEOUT_S)
    if not build("bench_e2e"):
        return 1
    sys.stdout.flush()
    return run([os.path.join(BUILD, "bench_e2e")] + argv, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
