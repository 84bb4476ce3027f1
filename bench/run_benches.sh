#!/usr/bin/env sh
# Runs the tracked benchmark suites and drops their machine-readable
# results (BENCH_exec.json, BENCH_gc.json, BENCH_serve.json,
# BENCH_scaling.json, BENCH_pipeline.json) at the
# repository root so the perf trajectory is comparable across checkouts.
# Every emitted BENCH_*.json is validated with bench_json_check; a bench
# that emits invalid (or no) JSON fails the run loudly.
#
# Usage: bench/run_benches.sh [--smoke] [build-dir]
#   build-dir defaults to ./build (must already be configured and built;
#   `cmake --build <build-dir>` first).
#   --smoke: tiny iteration counts, results written under
#   <build-dir>/bench-smoke instead of the repo root (so a smoke run
#   never clobbers the tracked numbers), acceptance gates reported but
#   not enforced. This is what the bench_smoke ctest entry runs, so the
#   bench binaries are exercised in tier-1 verification.
set -eu

SMOKE=0
if [ "${1:-}" = "--smoke" ]; then
  SMOKE=1
  shift
fi

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$REPO_ROOT/build"}
BENCH_DIR="$BUILD_DIR/bench"

for BIN in bench_exec bench_gc bench_serve bench_scaling bench_pipeline \
           bench_json_check; do
  if [ ! -x "$BENCH_DIR/$BIN" ]; then
    echo "error: $BENCH_DIR/$BIN not found or not executable." >&2
    echo "Build it with: cmake --build \"$BUILD_DIR\" --target $BIN" >&2
    exit 1
  fi
done

if [ "$SMOKE" = 1 ]; then
  export SAFETSA_BENCH_SMOKE=1
  export SAFETSA_BENCH_DIR="$BUILD_DIR/bench-smoke"
  mkdir -p "$SAFETSA_BENCH_DIR"
  GBENCH_ARGS="--benchmark_min_time=0.01"
else
  export SAFETSA_BENCH_DIR="$REPO_ROOT"
  GBENCH_ARGS=""
fi

# Fails loudly (exit 1) when the just-emitted BENCH_<suite>.json is
# missing, not valid JSON, or (second arg) missing a required metric.
check_json() {
  JSON="$SAFETSA_BENCH_DIR/BENCH_$1.json"
  if [ ! -f "$JSON" ]; then
    echo "error: $1 bench did not emit $JSON" >&2
    exit 1
  fi
  if [ -n "${2:-}" ]; then
    "$BENCH_DIR/bench_json_check" --require "$2" "$JSON"
  else
    "$BENCH_DIR/bench_json_check" "$JSON"
  fi
}

echo "== bench_exec (tree-walk vs tier 0 vs tier 1 vs inlined tier 1) =="
"$BENCH_DIR/bench_exec"
check_json exec \
  inline_geomean,inline_geomean_callheavy,inline_callheavy_programs,inline_min_speedup,inline_sites_total,inline_guard_misses

echo
echo "== bench_gc (safepoint overhead + reclaim throughput) =="
"$BENCH_DIR/bench_gc"
check_json gc

echo
echo "== bench_scaling (warm-path thread scaling) =="
"$BENCH_DIR/bench_scaling"
check_json scaling

echo
echo "== bench_serve (distribution layer) =="
# shellcheck disable=SC2086
"$BENCH_DIR/bench_serve" $GBENCH_ARGS
check_json serve

echo
echo "== bench_pipeline (per-stage toolchain timings, BM_Optimize included) =="
# shellcheck disable=SC2086
"$BENCH_DIR/bench_pipeline" $GBENCH_ARGS
check_json pipeline BM_Optimize

echo
echo "== safetsa-gen (fixed-seed differential smoke sweep) =="
# Grammar-aware generator soak: a fixed seed range through the full
# tier/codec/GC configuration matrix (DESIGN.md §15). Seed count follows
# SAFETSA_GEN_SEEDS (default 200, the same knob the gen ctest label
# uses); reproducers for any divergence land under the build tree, never
# the repo root. Deliberately emits no BENCH_*.json — it is a
# correctness sweep, not a tracked perf suite, so bench_json_check
# --require stays scoped to the real benchmark artifacts above.
GEN_BIN="$BUILD_DIR/src/driver/safetsa-gen"
if [ -x "$GEN_BIN" ]; then
  "$GEN_BIN" --seeds "${SAFETSA_GEN_SEEDS:-200}" \
             --dump "$BUILD_DIR/gen-dumps"
else
  echo "error: $GEN_BIN not found or not executable." >&2
  echo "Build it with: cmake --build \"$BUILD_DIR\" --target safetsa-gen" >&2
  exit 1
fi

echo
echo "Results: $SAFETSA_BENCH_DIR/BENCH_exec.json" \
     "$SAFETSA_BENCH_DIR/BENCH_gc.json" \
     "$SAFETSA_BENCH_DIR/BENCH_scaling.json" \
     "$SAFETSA_BENCH_DIR/BENCH_serve.json" \
     "$SAFETSA_BENCH_DIR/BENCH_pipeline.json"
