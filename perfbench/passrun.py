"""One benchmark pass in a fresh interpreter, as a CLI user would run it.

Reads a JSON job on stdin:

    {"suites": [RunConfig fields, ...], "trace": false,
     "pass_id": 0, "spans_out": null}

times `import superalg.cli` (which loads sympy), runs every suite through
`superalg.cli.run`, and prints one JSON line with the setup time, the
wall time of the suites, the peak resident memory, the calibration times
(`calib_s`: one after the import and one after each suite) and, per suite,
the exit status, the check count, the wall time and a digest of the report
with `timing_ms` removed.  With "trace": true the suites run under
`tracer.Tracer` and the line also carries the per-layer aggregates.

The interpreter must import superalg from the checkout's `src` directory;
run.py sets PYTHONPATH for that.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time


def report_digest(report: dict) -> str:
    """sha256 of the CLI's JSON output for `report`, without timing_ms."""
    body = {k: v for k, v in report.items() if k != "timing_ms"}
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def muladd_ns(pairs, repeats=5) -> float:
    """Median ns per GaussianRational `a * b + a` over the captured pairs."""
    if not pairs:
        return 0.0
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for a, b in pairs:
            a * b + a
        times.append(time.perf_counter() - start)
    return statistics.median(times) / len(pairs) * 1e9


def calibrate(rounds=10000) -> float:
    """Seconds for a fixed mix of Fraction arithmetic and dict updates, the
    operations superalg spends its time on, without calling superalg.  The
    host's speed drifts by tens of percent within seconds, so run.py divides
    each suite's time by the calibration times measured just before and after
    it."""
    from fractions import Fraction

    start = time.perf_counter()
    acc = {}
    for i in range(rounds):
        k = (i * 7919) % 257
        acc[k] = acc.get(k, 0) + Fraction(i % 13 + 1, i % 11 + 2) * Fraction(k % 5 + 1, 3)
    return time.perf_counter() - start


def run_pass(job: dict) -> dict:
    start = time.perf_counter()
    import superalg.cli as cli

    setup_s = time.perf_counter() - start
    expected = os.environ.get("PERFBENCH_SRC")
    if expected and not os.path.abspath(cli.__file__).startswith(expected + os.sep):
        raise RuntimeError(f"superalg imported from {cli.__file__}, not {expected}")

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer(job.get("pass_id", 0))
        tracer.install()
    suites = []
    calib = [calibrate()]
    try:
        for suite in job["suites"]:
            config = cli.RunConfig(**suite)
            token = tracer.open(f"cli.{config.command}") if tracer else None
            start = time.perf_counter()
            try:
                status, report = cli.run(config)
            finally:
                wall_s = time.perf_counter() - start
                if tracer:
                    tracer.close(token)
            suites.append(
                {
                    "status": status,
                    "pass": report["pass"],
                    "checks": len(report["results"]),
                    "digest": report_digest(report),
                    "wall_s": wall_s,
                }
            )
            calib.append(calibrate())
    finally:
        if tracer:
            tracer.uninstall()
    out = {
        "calib_s": calib,
        "setup_s": setup_s,
        "suite_s": sum(row["wall_s"] for row in suites),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "suites": suites,
    }
    if tracer:
        if job.get("spans_out"):
            tracer.write_spans(job["spans_out"])
        out["trace"] = {
            "spans": tracer.aggregate(),
            "counts": {**tracer.counts, **tracer.maxima},
            "muladd_ns": muladd_ns(tracer.pairs),
            "pairs": len(tracer.pairs),
        }
    return out


def main() -> int:
    job = json.loads(sys.stdin.read())
    print(json.dumps(run_pass(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
