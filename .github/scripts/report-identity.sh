#!/usr/bin/env bash
# Fail when two superalg checkouts print different reports.
#
#   .github/scripts/report-identity.sh BASE_DIR HEAD_DIR
#
# Runs every perfbench workload at seed 1 for one second in each checkout;
# a digest is the sha256 of a suite's JSON report without timing_ms.  Then
# runs the larger CLI rungs below in each checkout and diffs their reports,
# also without timing_ms.
set -euo pipefail
shopt -s inherit_errexit

RUNGS=(
  "radial --algebra gl:2,2 --points 5 --weights 15 --seed 1"
  "gamma-check --algebra gl:3,2 --points 20 --seed 1"
)

digests() {
  local w
  for w in pbw-center hopf-axioms gamma-points radial-field; do
    (cd "$1" && python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0) \
      | grep '^digest '
  done
}

# The report of one CLI run, pretty-printed without its timing_ms keys; a
# nonzero exit status is kept as the last line.
report() {
  local status=0 out
  out=$(cd "$1" && PYTHONPATH=src python3 -m superalg.cli $2) || status=$?
  printf '%s\n' "$out" | python3 -c '
import json, sys

def strip(x):
    if isinstance(x, dict):
        return {k: strip(v) for k, v in x.items() if k != "timing_ms"}
    if isinstance(x, list):
        return [strip(v) for v in x]
    return x

print(json.dumps(strip(json.load(sys.stdin)), indent=1, sort_keys=True))'
  echo "exit $status"
}

base=$(digests "$1")
head=$(digests "$2")
printf '%s\n' "$head"
if [ -z "$head" ] || [ "$base" != "$head" ]; then
  echo "report digests differ from the base:" >&2
  diff <(printf '%s\n' "$base") <(printf '%s\n' "$head") >&2 || true
  exit 1
fi
echo "all $(printf '%s\n' "$head" | wc -l) report digests match the base"

for rung in "${RUNGS[@]}"; do
  if ! diff <(report "$1" "$rung") <(report "$2" "$rung") >&2; then
    echo "report of '$rung' differs from the base" >&2
    exit 1
  fi
  echo "report of '$rung' matches the base"
done
