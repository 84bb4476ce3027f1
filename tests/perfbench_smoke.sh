#!/bin/sh
# Runs the end-to-end benchmark for one short warm-long sweep and fails
# unless it exits cleanly and its JSON result (the last stdout line)
# reports "correct": true.
#
#   sh tests/perfbench_smoke.sh <path to the perfbench binary>
out=$("$1" --workload warm-long --seed 1 --seconds 1 --trace 1) || exit 1
last=$(printf '%s\n' "$out" | tail -n 1)
printf '%s\n' "$last"
case "$last" in
  *'"correct": true'*) exit 0 ;;
  *) exit 1 ;;
esac
