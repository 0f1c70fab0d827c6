"""Tests of the benchmark's tracer; run from the checkout root with

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracer.py

The workloads run here at small sizes (same commands, smaller algebras),
so the spans show which layers each workload's code path reaches.
"""

import json
import os
import sys

import pytest
from sympy import Poly

import passrun
import run as bench
from tracer import Tracer, package_namespaces

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALLER = {"gl:2,2": "gl:1,1"}
FEWER = {"samples": 8, "points": 2, "weights": 10}

# Spans each workload must record, after the layer table in README.md.
EXPECTED = {
    "pbw-center": [
        "cli.casimir", "cli.build", "cli.jstruct-check", "cli.complexify",
        "liealg.build_gl", "liealg.check_jacobi", "pbw.normalize_terms",
        "pbw.is_central", "pbw.gelfand_invariant", "pbw.casimir2",
        "jstruct.validate_J", "jstruct.nijenhuis_report", "jstruct.complexify",
    ],
    "hopf-axioms": [
        "cli.hopf-check", "pbw.normalize_terms", "smash.coproduct",
        "smash.tensor_mul", "smash.smash_multiply", "smash.antipode",
    ],
    "gamma-points": [
        "cli.gamma-check", "smash.gamma_via_sdet", "linalg.mat_mul", "linalg.inv",
        "supermatrix.berezinian", "torus.eval", "torus.arith",
        "radial.gamma_closed_form", "radial.check_gamma_oracle",
    ],
    "radial-field": [
        "cli.radial", "pbw.casimir2", "linalg.mat_mul", "torus.arith",
        "torus.sqrt_scalar_free", "polytools.gcd", "polytools.div",
        "radial.gamma_closed_form", "radial.check_gamma_oracle",
        "radial.certify", "radial.extract_P", "radial.leading_term_match",
    ],
}
EXPECTED_COUNTS = {
    "pbw-center": ["liealg.bracket.calls", "scalars.mul.calls", "scalars.add.calls"],
    "hopf-axioms": ["scalars.mul.calls", "scalars.add.calls"],
    "gamma-points": ["scalars.mul.calls", "scalars.add.calls", "scalars.div.calls"],
    "radial-field": ["scalars.mul.calls", "polytools.gcd.qq.calls"],
}

# Bindings outside the defining module that the tracer must replace.
COPIES = [
    ("superalg.torus", "poly_gcd"), ("superalg.torus", "poly_div_exact"),
    ("superalg.smash", "normalize_terms"), ("superalg.smash", "inv"),
    ("superalg.smash", "mat_mul"), ("superalg.supermatrix", "mat_mul"),
    ("superalg.radial", "gamma_via_sdet"), ("superalg.radial", "sqrt_scalar_free"),
    ("superalg.cli", "casimir2"), ("superalg.cli", "is_central"),
    ("superalg.cli", "check_gamma_oracle"), ("superalg.cli", "extract_P"),
]


def small_suites(workload):
    out = []
    for suite in bench.suites_for(workload, seed=1):
        suite = {**suite, "algebra": SMALLER.get(suite["algebra"], suite["algebra"])}
        out.append({k: FEWER.get(k, v) for k, v in suite.items()})
    return out


def traced_pass(workload):
    return passrun.run_pass({"suites": small_suites(workload), "trace": True})


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_expected_layer_records_a_span(workload):
    result = traced_pass(workload)
    assert all(s["status"] == 0 for s in result["suites"])
    spans, counts = result["trace"]["spans"], result["trace"]["counts"]
    assert [n for n in EXPECTED[workload] if spans.get(n, [0])[0] < 1] == []
    assert [n for n in EXPECTED_COUNTS[workload] if counts.get(n, 0) < 1] == []


def _bindings():
    import superalg.cli  # noqa: F401

    spaces = package_namespaces() + [Poly]
    return {(id(s), name): value for s in spaces for name, value in vars(s).items()}


def test_uninstall_restores_every_original_object():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = [
            (mod, name) for mod, name in COPIES
            if not getattr(getattr(sys.modules[mod], name), "perfbench_wrapper", False)
        ]
        assert wrapped == []
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    # an untraced pass after uninstall records nothing
    passrun.run_pass({"suites": small_suites("hopf-axioms")})
    assert tracer.spans == [] and not tracer.counts


def test_counts_repeat_exactly():
    first, second = traced_pass("radial-field"), traced_pass("radial-field")
    assert first["trace"]["counts"] == second["trace"]["counts"]
    calls = {n: row[0] for n, row in first["trace"]["spans"].items()}
    assert calls == {n: row[0] for n, row in second["trace"]["spans"].items()}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.per_layer_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)
