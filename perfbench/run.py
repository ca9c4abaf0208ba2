#!/usr/bin/env python3
"""Build the library and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload commit --seed 1 --seconds 10 --trace 0

Run it from anywhere; it works on the checkout that contains it. Every flag
goes to the benchmark binary (see perfbench/README.md); `--scale smoke`
selects the tiny instances the smoke test uses. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. The build tree, per-run temp directories and wall-clock traces live
under .bench_build/ in the checkout.
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "perfbench-build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at %s" % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except subprocess.CalledProcessError as error:
        sys.exit("perfbench: build failed (%s)" % error)
    command = [BINARY, "--root", ROOT, "--out-dir", OUT_DIR] + sys.argv[1:]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
