#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload chat-decode --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
figlut library and the perfbench binary into .bench_build/ (Release);
later calls rebuild incrementally. Build output goes to stderr, so the
last line of stdout is the binary's JSON result. The exit code is the
binary's: non-zero when the build or a check failed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", JOBS],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
