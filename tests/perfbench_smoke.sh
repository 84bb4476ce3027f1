#!/bin/sh
# Runs the end-to-end benchmark for one short traced run of a workload
# and fails unless it exits cleanly and its JSON result (the last stdout
# line) reports "correct": true, no failed operation, no verify failure,
# no duplicate publish, and trace coverage of at least 0.95.
#
#   sh tests/perfbench_smoke.sh <path to the perfbench binary> <workload>
out=$("$1" --workload "$2" --seed 1 --seconds 1 --trace 1) || exit 1
last=$(printf '%s\n' "$out" | tail -n 1)
printf '%s\n' "$last"
case "$last" in
  *'"correct": true'*) ;;
  *) echo "perfbench_smoke: result is not correct" >&2; exit 1 ;;
esac
# Prints the number after "<key>": or "<key>": {"value":, or "missing".
field() {
  printf '%s\n' "$last" | awk -v key="\"$1\": " '{
    i = index($0, key)
    if (i == 0) { print "missing"; exit }
    s = substr($0, i + length(key))
    sub(/^\{"value": /, "", s)
    match(s, /^[-+0-9.eE]+/)
    print (RLENGTH > 0 ? substr(s, 1, RLENGTH) : "missing")
  }'
}
check() { # <key> <awk condition on v>
  v=$(field "$1")
  if [ "$v" = missing ] ||
     ! awk -v v="$v" "BEGIN { exit !($2) }"; then
    echo "perfbench_smoke: $1 = $v fails $2" >&2
    exit 1
  fi
}
check failed 'v == 0'
check serve.verify_failures 'v == 0'
check serve.duplicate_publishes 'v == 0'
check trace.coverage 'v >= 0.95'
