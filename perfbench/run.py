"""Benchmark of the superalg CLI suites; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs every suite of the
workload through `superalg.cli.run` in a fresh interpreter
(perfbench/passrun.py); passes run one after another, a closed loop with
one client.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: with --trace 0 the end-to-end metrics
(suite_s, setup_s, peak_rss_mb; times in reference seconds, see
CALIB_REF_S), with --trace 1 the per-layer metrics of a traced pass.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170  # the whole run must end within 180 s
MIN_PASSES = 3
SETUP_PROBES = 3  # import-only interpreters per run, besides the passes
# Seconds the calibration kernel (passrun.calibrate) takes on the reference
# machine.  Times are reported in reference seconds: wall time multiplied by
# CALIB_REF_S over the calibration time measured around it in the same
# interpreter, which cancels most of the host's drifting speed.
CALIB_REF_S = 0.07
OUT_DIR = ".bench_out"

# Suites per workload, as RunConfig fields.  README.md says why each exists.
WORKLOADS = {
    "pbw-center": [
        {"command": "casimir", "algebra": "gl:2,2", "kind": "gelfand", "order": 4,
         "check_central": True},
        {"command": "casimir", "algebra": "gl:2,2", "kind": "casimir2",
         "check_central": True},
        {"command": "build", "algebra": "gl:2,2"},
        {"command": "jstruct-check", "algebra": "gl:1,1"},
        {"command": "complexify", "algebra": "gl:1,1"},
    ],
    "hopf-axioms": [  # four suites, so that calibration brackets every ~1.5 s
        {"command": "hopf-check", "algebra": "gl:2,2", "samples": 75, "degree_cap": 2},
    ] * 4,
    "gamma-points": [
        {"command": "gamma-check", "algebra": "gl:2,2", "points": 8},
    ],
    "radial-field": [
        {"command": "radial", "algebra": "gl:2,1", "points": 3, "weights": 12},
        {"command": "radial", "algebra": "gl:1,2", "points": 3, "weights": 12},
    ],
}

COMMANDS = ["casimir", "build", "jstruct-check", "complexify", "hopf-check",
            "gamma-check", "radial"]

SPAN_METRICS = [  # (span, fields); ".s" is self time, ".calls" the span count
    ("liealg.build_gl", ["s"]),
    ("liealg.check_jacobi", ["s"]),
    ("pbw.normalize_terms", ["calls", "s"]),
    ("pbw.is_central", ["s"]),
    ("pbw.gelfand_invariant", ["s"]),
    ("pbw.casimir2", ["s"]),
    ("smash.coproduct", ["calls", "s"]),
    ("smash.tensor_mul", ["calls", "s"]),
    ("smash.smash_multiply", ["calls", "s"]),
    ("smash.antipode", ["calls", "s"]),
    ("smash.gamma_via_sdet", ["calls", "s"]),
    ("linalg.mat_mul", ["calls", "s"]),
    ("linalg.inv", ["calls", "s"]),
    ("supermatrix.berezinian", ["calls", "s"]),
    ("torus.eval", ["calls", "s"]),
    ("torus.arith", ["calls", "s"]),
    ("torus.sqrt_scalar_free", ["s"]),
    ("polytools.gcd", ["calls", "s"]),
    ("polytools.div", ["calls", "s"]),
    ("polytools.factor", ["calls", "s"]),
    ("radial.gamma_closed_form", ["s"]),
    ("radial.check_gamma_oracle", ["s"]),
    ("radial.certify", ["s"]),
    ("radial.extract_P", ["s"]),
    ("radial.leading_term_match", ["s"]),
    ("jstruct.validate_J", ["s"]),
    ("jstruct.nijenhuis_report", ["s"]),
    ("jstruct.complexify", ["s"]),
]

COUNT_METRICS = [  # counters kept by the tracer, with their units
    ("liealg.bracket.calls", "count"),
    ("pbw.normalize_terms.terms_in", "count"),
    ("pbw.normalize_terms.terms_out", "count"),
    ("torus.max_terms", "count"),
    ("polytools.gcd.qq.calls", "count"),
    ("polytools.gcd.qq_i.calls", "count"),
    ("scalars.mul.calls", "count"),
    ("scalars.add.calls", "count"),
    ("scalars.div.calls", "count"),
    ("scalars.max_bits", "bits"),
]


def per_layer_names():
    """(metric, unit) for every per-layer metric, in report order."""
    out = [(f"cli.{c}.s", "s") for c in COMMANDS]
    for span, fields in SPAN_METRICS:
        out += [(f"{span}.{f}", "s" if f == "s" else "count") for f in fields]
    out += COUNT_METRICS
    out += [("polytools.gcd.unit_ratio", "ratio"), ("scalars.muladd_ns", "ns"),
            ("trace.coverage", "ratio"), ("trace.overhead", "ratio")]
    return out


def suites_for(workload: str, seed: int):
    """The workload's suites with --seed values drawn from the workload seed."""
    r = random.Random(f"{workload}:{seed}")
    return [{**suite, "seed": r.randrange(1 << 30)} for suite in WORKLOADS[workload]]


def suite_label(suite: dict) -> str:
    extras = ",".join(f"{k}={v}" for k, v in suite.items() if k not in ("command", "algebra"))
    return f"{suite['command']}[{suite['algebra']};{extras}]"


class Runner:
    """Starts pass interpreters one at a time and keeps what they return."""

    def __init__(self, root: str, started: float):
        self.src = os.path.join(root, "src")
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=self.src, PERFBENCH_SRC=self.src)

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def run(self, job: dict):
        """Result dict of one pass, or None if it failed to complete."""
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "passrun.py")],
                input=json.dumps(job), capture_output=True, text=True,
                env=self.env, timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            print("pass: timed out", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"pass: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return None
        return json.loads(lines[-1])


def grade(passes, nsuites: int):
    """(attempted, failed) checks.  A pass fails as a whole when it raised,
    exited non-zero, reported a failing check, or produced reports that
    differ from the most common set among passes of the same seed."""
    done = [p for p in passes if p is not None]
    digests = Counter(tuple(s["digest"] for s in p["suites"]) for p in done)
    reference = digests.most_common(1)[0][0] if digests else None
    per_pass = max((sum(s["checks"] for s in p["suites"]) for p in done), default=nsuites)
    attempted = failed = 0
    for p in passes:
        attempted += per_pass
        ok = (
            p is not None
            and len(p["suites"]) == nsuites
            and all(s["status"] == 0 and s["pass"] for s in p["suites"])
            and tuple(s["digest"] for s in p["suites"]) == reference
        )
        if not ok:
            failed += per_pass
    return attempted, failed


def print_digests(workload, seed, suites, passes):
    done = [p for p in passes if p is not None]
    if not done:
        return
    for suite, row in zip(suites, done[0]["suites"]):
        print(f"digest {workload} seed={seed} {suite_label(suite)} {row['digest']}")


def percentile_note(values) -> str:
    """The highest of p75..p99.9 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            cut = statistics.quantiles(values, n=1000)[round(p * 10) - 1]
            return f"p{p:g} {cut:.4f} s"
    return "no percentile (fewer than 40 samples)"


def machine_line() -> str:
    import sympy

    def have(mod):
        return "yes" if importlib.util.find_spec(mod) else "no"

    return (f"machine nproc={os.cpu_count()} python={platform.python_version()} "
            f"sympy={sympy.__version__} gmpy2={have('gmpy2')} flint={have('flint')}")


def reference_suite_s(p: dict) -> float:
    """A pass's suite time in reference seconds: each suite's wall time times
    CALIB_REF_S over the mean calibration time just before and after it."""
    calib = p["calib_s"]
    return sum(row["wall_s"] * CALIB_REF_S * 2 / (calib[i] + calib[i + 1])
               for i, row in enumerate(p["suites"]))


def run_untraced(runner: Runner, workload: str, seed: int, seconds: float):
    suites = suites_for(workload, seed)
    loop_start = time.perf_counter()
    runner.run({"suites": []})  # warm-up: bytecode caches, page cache
    probes = [runner.run({"suites": []}) for _ in range(SETUP_PROBES)]
    passes, took = [], 0.0
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - loop_start + took <= seconds
            and runner.remaining() > 2 * took):
        t = time.perf_counter()
        result = runner.run({"suites": suites})
        passes.append(result)
        took = max(took, time.perf_counter() - t)
        if result is None:
            break
    attempted, failed = grade(passes, len(suites))
    done = [p for p in passes if p is not None]
    imports = [p for p in probes + done if p is not None]
    print_digests(workload, seed, suites, passes)
    print(machine_line())
    if not done:
        return attempted, failed, None

    suite_times = [reference_suite_s(p) for p in done]
    metrics = {
        "suite_s": {"value": statistics.median(suite_times), "unit": "s"},
        "setup_s": {"value": statistics.median(
            p["setup_s"] * CALIB_REF_S / p["calib_s"][0] for p in imports),
                    "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in done),
                        "unit": "MB"},
    }
    calib = statistics.median(c for p in imports for c in p["calib_s"])
    print(f"workload {workload} seed={seed}: closed loop, 1 client, "
          f"{len(passes)} passes of {len(suites)} suites")
    print(f"calibration median {calib:.4f} s (reference {CALIB_REF_S} s); "
          f"times below are reference seconds")
    print(f"suite_s {metrics['suite_s']['value']:.4f} s  (median of {len(suite_times)}; "
          f"{percentile_note(suite_times)}; wall-clock median "
          f"{statistics.median(p['suite_s'] for p in done):.4f} s)")
    print(f"setup_s {metrics['setup_s']['value']:.4f} s  (median of {len(imports)} imports; "
          f"wall-clock median {statistics.median(p['setup_s'] for p in imports):.4f} s)")
    print(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")
    return attempted, failed, metrics


def run_traced(runner: Runner, workload: str, seed: int):
    suites = suites_for(workload, seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_out = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    runner.run({"suites": []})  # warm-up
    plain = runner.run({"suites": suites})
    traced = runner.run({"suites": suites, "trace": True, "pass_id": 1,
                         "spans_out": spans_out})
    passes = [plain, traced]
    attempted, failed = grade(passes, len(suites))
    print_digests(workload, seed, suites, passes)
    print(machine_line())
    if plain is None or traced is None:
        return attempted, failed, None
    trace = traced["trace"]
    spans, counts = trace["spans"], trace["counts"]
    cli_self = sum(spans.get(f"cli.{c}", [0, 0.0, 0.0])[1] for c in COMMANDS)
    cli_total = sum(spans.get(f"cli.{c}", [0, 0.0, 0.0])[2] for c in COMMANDS)
    gcd_calls = spans.get("polytools.gcd", [0])[0]
    derived = {
        "polytools.gcd.unit_ratio": counts.get("polytools.gcd.unit", 0) / gcd_calls
        if gcd_calls else 0.0,
        "scalars.muladd_ns": trace["muladd_ns"],
        "trace.coverage": 1 - cli_self / cli_total,
        "trace.overhead": reference_suite_s(traced) / reference_suite_s(plain),
    }
    metrics = {}
    for name, unit in per_layer_names():
        base, _, field = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif field == "s":
            value = spans.get(base, [0, 0.0])[1]
        elif field == "calls" and base in spans:
            value = spans[base][0]
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value:g} {unit}")
    print(f"spans written to {spans_out}; {trace['pairs']} operand pairs timed for muladd_ns")
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "superalg", "cli.py")):
        print("error: run from a superalg checkout (src/superalg/cli.py not found)",
              file=sys.stderr)
        return 2
    runner = Runner(root, started)
    if args.trace:
        attempted, failed, metrics = run_traced(runner, args.workload, args.seed)
    else:
        attempted, failed, metrics = run_untraced(runner, args.workload, args.seed,
                                                  args.seconds)
    print(f"fail_ratio {failed / attempted:g} ratio  ({failed}/{attempted} checks)")
    if metrics is None:
        print("error: no pass completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
