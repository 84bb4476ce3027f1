#!/usr/bin/env python3
"""Builds the SafeTSA end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

Workloads: cold, warm-long, warm-short (see perfbench/README.md). The build
goes to .bench_build/perfbench and is incremental; build output goes to
stderr. The last stdout line is the benchmark's JSON result. Traced runs
(--trace 1) also write their spans to .bench_build/perfbench/traces/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no SafeTSA sources next to perfbench/; "
                 "run from the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    exe = build()
    args = sys.argv[1:]
    if "--list-inputs" not in args:
        args += ["--trace-dir", os.path.join(BUILD, "traces")]
    sys.stdout.flush()
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
