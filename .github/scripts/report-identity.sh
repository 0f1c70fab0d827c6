#!/usr/bin/env bash
# Fail when two superalg checkouts print different reports.
#
#   .github/scripts/report-identity.sh BASE_DIR HEAD_DIR
#
# Runs every perfbench workload at seed 1 for one second in each checkout;
# a digest is the sha256 of a suite's JSON report without timing_ms.  Then
# runs the larger CLI rungs below in each checkout and diffs their reports,
# also without timing_ms; the last sixteen read a definition file.
set -euo pipefail
shopt -s inherit_errexit

RUNGS=(
  "radial --algebra gl:2,2 --points 5 --weights 15 --seed 1"
  "radial --algebra gl:3,2 --points 3 --weights 21 --seed 1"
  "radial --algebra gl:3,3 --points 2 --weights 28 --seed 1"
  "gamma-check --algebra gl:3,2 --points 20 --seed 1"
  "gamma-check --algebra gl:3,3 --points 20 --seed 1"
  "gamma-check --algebra gl:1,3 --points 20 --seed 2"
  "gamma-check --algebra gl:4,1 --points 20 --seed 1"
  "gamma-check --algebra gl:4,2 --points 20 --seed 1"
  "casimir --algebra gl:3,3 --kind casimir2 --check-central"
  "casimir --algebra gl:3,3 --kind gelfand --order 4 --check-central"
  "casimir --algebra gl:3,3 --kind gelfand --order 5 --check-central"
  "casimir --algebra gl:2,3 --kind gelfand --order 3 --check-central"
  "casimir --algebra gl:4,1 --kind gelfand --order 4 --check-central"
  "casimir --algebra gl:3,2 --kind gelfand --order 4 --check-central"
  "hopf-check --algebra gl:2,2 --samples 20 --degree-cap 4 --seed 1"
  "hopf-check --algebra gl:3,1 --samples 30 --degree-cap 5 --seed 1"
  "hopf-check --algebra gl:1,3 --samples 40 --degree-cap 4 --seed 1"
  "hopf-check --algebra gl:2,1 --samples 150 --degree-cap 3 --seed 7"
  "hopf-check --algebra gl:3,3 --samples 60 --degree-cap 3 --seed 1"
  "build --algebra gl:3,3"
  "build --algebra gl:1,3"
  "build --algebra gl:4,3"
  "check-jacobi --algebra gl:3,3"
  "check-jacobi --algebra gl:4,4"
  "jstruct-check --algebra gl:2,2"
  "jstruct-check --algebra gl:3,3"
  "complexify --algebra gl:2,2 --ideal 0"
)

# The --file rungs read one definition, the base checkout's gl(2|1) build,
# through the same absolute path on both sides, and two edits of it whose
# tables fail super Jacobi: "doubled" doubles [E11, E21] in its one dumped
# entry, a super-antisymmetric table whose sorted triples check_jacobi
# scans; "unsigned" gives [E11, E21] explicitly with the sign of
# [E21, E11], a table that is not super-antisymmetric, so every ordered
# triple is scanned.  build reports both, its structure row and
# check_jacobi reading one structure report.  "permuted" is the base
# checkout's gl(2|2) build with its root list reversed and its positives
# remapped and listed in descending order, a root order the builder never
# writes.
definition=$(mktemp --suffix=.json)
doubled=$(mktemp --suffix=.json)
unsigned=$(mktemp --suffix=.json)
permuted=$(mktemp --suffix=.json)
trap 'rm -f "$definition" "$doubled" "$unsigned" "$permuted"' EXIT
dump_definition() {
  (cd "$1" && PYTHONPATH=src python3 -m superalg.cli build --algebra "$2") \
    | python3 -c 'import json, sys; json.dump(json.load(sys.stdin)["values"]["definition"], sys.stdout)'
}
dump_definition "$1" gl:2,1 > "$definition"
dump_definition "$1" gl:2,2 > "$permuted"
python3 - "$definition" "$doubled" "$unsigned" "$permuted" <<'EOF'
import copy, json, sys

definition = json.load(open(sys.argv[1]))
names = [g["name"] for g in definition["generators"]]
e11, e21 = names.index("E11"), names.index("E21")
doubled = copy.deepcopy(definition)
for entry in doubled["brackets"]:
    if {entry["i"], entry["j"]} == {e11, e21}:
        for (re_part, _, _) in entry["result"]:
            re_part[0] *= 2
json.dump(doubled, open(sys.argv[2], "w"))
unsigned = copy.deepcopy(definition)
entry = next(e for e in unsigned["brackets"] if (e["i"], e["j"]) == (e21, e11))
unsigned["brackets"].append({"i": e11, "j": e21, "result": entry["result"]})
json.dump(unsigned, open(sys.argv[3], "w"))
permuted = json.load(open(sys.argv[4]))
roots = permuted["root_system"]
last = len(roots["roots"]) - 1
roots["roots"].reverse()
roots["positives"] = sorted((last - p for p in roots["positives"]), reverse=True)
json.dump(permuted, open(sys.argv[4], "w"))
EOF
RUNGS+=(
  "check-jacobi --file $definition"
  "casimir --file $definition --kind casimir2 --check-central"
  "hopf-check --file $definition --samples 30 --degree-cap 3 --seed 1"
  "gamma-check --file $definition --points 10 --seed 1"
  "radial --file $definition --points 3 --weights 12 --seed 1"
  "build --file $definition"
  "jstruct-check --file $definition"
  "complexify --file $definition"
  "check-jacobi --file $doubled"
  "check-jacobi --file $unsigned"
  "build --file $doubled"
  "build --file $unsigned"
  "gamma-check --file $permuted --points 6 --seed 1"
  "hopf-check --file $permuted --samples 20 --degree-cap 2 --seed 1"
  "radial --file $permuted --points 2 --weights 15 --seed 1"
  "casimir --file $permuted --kind casimir2 --check-central"
)

digests() {
  local w
  for w in pbw-center hopf-axioms gamma-points radial-field; do
    (cd "$1" && python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0) \
      | grep '^digest '
  done
}

# The report of one CLI run, pretty-printed without its timing_ms keys; a
# nonzero exit status is kept as the last line.  Fails when the CLI prints
# no JSON report: a rung refused as malformed input checks nothing.
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

try:
    report = json.load(sys.stdin)
except ValueError:
    sys.exit(f"{sys.argv[1]}: no JSON report")
print(json.dumps(strip(report), indent=1, sort_keys=True))' "$1" || return 1
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
  if ! base_report=$(report "$1" "$rung") || ! head_report=$(report "$2" "$rung"); then
    echo "'$rung' printed no report" >&2
    exit 1
  fi
  if ! diff <(printf '%s\n' "$base_report") <(printf '%s\n' "$head_report") >&2; then
    echo "report of '$rung' differs from the base" >&2
    exit 1
  fi
  echo "report of '$rung' matches the base"
done
