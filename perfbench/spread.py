"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 10 [--first-seed 1] [--workload NAME ...]

Runs perfbench/run.py once per seed and workload, one run at a time, and
prints every end-to-end metric and fail_ratio per run; then, for each
metric, the median, the quartile spread as a share of the
median (`statistics.quantiles(values, n=4)`), and that spread over the
metric's bound from BENCHMARK.json.  Raw results go to
.bench_out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(".bench_out", exist_ok=True)
    worst = 0.0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        path = os.path.join(".bench_out", f"spread-{workload}.jsonl")
        with open(path, "a", encoding="utf-8") as log:
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
                last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
                result = json.loads(last) if proc.returncode == 0 else {}
                log.write(json.dumps({"seed": seed, "exit": proc.returncode, **result}) + "\n")
                if not result.get("correct"):
                    print(f"{workload} seed={seed}: exit {proc.returncode}, not correct\n"
                          f"{proc.stderr}", file=sys.stderr)
                    return 1
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} seed={seed} " + " ".join(
                    f"{n}={v[-1]:.4f}" for n, v in values.items())
                    + f" fail_ratio={result['failed'] / result['attempted']:g}", flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, share / bounds[name])
            print(f"{workload} {name}: median {med:.4f}  spread {share:.4f}  "
                  f"= {share / bounds[name]:.2f} of bound {bounds[name]}", flush=True)
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
