#!/usr/bin/env bash
# Fail when two superalg checkouts print different report digests.
#
#   .github/scripts/report-identity.sh BASE_DIR HEAD_DIR
#
# Runs every perfbench workload at seed 1 for one second in each checkout;
# a digest is the sha256 of a suite's JSON report without timing_ms.
set -euo pipefail
shopt -s inherit_errexit

digests() {
  local w
  for w in pbw-center hopf-axioms gamma-points radial-field; do
    (cd "$1" && python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0) \
      | grep '^digest '
  done
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
