#!/usr/bin/env python3
"""Determinism test for the end-to-end benchmark.

Run from the root of a checkout (takes about two minutes):

    python3 perfbench/test_determinism.py

For every workload it runs one seed twice, untraced and traced, and asserts:
  - every count metric repeats exactly (wire_bytes, the warm-long dispatches
    per program, the opt counts, inlined sites, skip counts, ...);
  - the metric names are exactly the ones BENCHMARK.json declares;
  - every run is correct with no failed operation.
It also asserts that the same seed lists the same modules, that a second
seed lists a different cold module stream, and that warm-short's resident
pool is the same for every seed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SEED, OTHER_SEED, SECONDS = 1, 2, "1"

# Count metrics that depend on how many operations fit in the window, or
# on timing, and so legitimately differ between two runs of one seed.
TIMING_DEPENDENT = {"op.samples"}


def run(workload, seed, trace):
    p = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                              "--seconds", SECONDS, "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"FAIL: {workload} seed {seed} trace {trace} exited "
                 f"{p.returncode}\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def list_inputs(workload, seed):
    p = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                              "--seconds", SECONDS, "--list-inputs"],
                       cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"FAIL: --list-inputs {workload} exited {p.returncode}")
    return p.stdout.splitlines()


def is_count(name, unit):
    return (unit.startswith("count") or unit == "bytes") and \
        name not in TIMING_DEPENDENT and not name.endswith(".resolved")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    failures = []
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            a, b = run(w, SEED, trace), run(w, SEED, trace)
            for r in (a, b):
                if not r["correct"] or r["failed"] != 0:
                    failures.append(f"{w} trace {trace}: not correct: {r}")
                if list(r["metrics"]) != declared[trace]:
                    failures.append(f"{w} trace {trace}: metric names differ "
                                    "from BENCHMARK.json")
            counts = 0
            for name, m in a["metrics"].items():
                if not is_count(name, m["unit"]):
                    continue
                counts += 1
                if m["value"] != b["metrics"][name]["value"]:
                    failures.append(
                        f"{w} trace {trace}: {name} changed between runs of "
                        f"seed {SEED}: {m['value']} vs "
                        f"{b['metrics'][name]['value']}")
            print(f"{w} trace {trace}: {counts} count metrics repeat")
    # cold's module stream follows the seed; warm-short's resident pool is
    # fixed by design (the seed drives its request sequence).
    for w, seeded in (("cold", True), ("warm-short", False)):
        first, again = list_inputs(w, SEED), list_inputs(w, SEED)
        other = list_inputs(w, OTHER_SEED)
        shared = len(set(first[:-1]) & set(other[:-1]))
        if first != again:
            failures.append(f"{w}: seed {SEED} listed different modules")
        if seeded and shared == len(first) - 1:
            failures.append(f"{w}: seed {OTHER_SEED} did not change the "
                            "generated module set")
        if not seeded and first != other:
            failures.append(f"{w}: the resident pool changed with the seed")
        print(f"{w}: {len(first) - 1} modules; seed {OTHER_SEED} shares "
              f"{shared} of them")
    for f in failures:
        print("FAIL:", f)
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
