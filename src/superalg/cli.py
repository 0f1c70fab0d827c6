"""Command-line front end: builds algebras, runs the verification suites,
emits machine-readable JSON reports.

Reports contain no floating point: every scalar appears as integer
numerator/denominator quads [re_num, re_den, im_num, im_den].  All sampling
is driven by random.Random(seed) (Mersenne Twister), so a fixed seed
reproduces a report byte for byte apart from the timing_ms field.  Exit
status is 0 exactly when every check passed, 1 when some check failed,
2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from .errors import (
    CheckFailed,
    NotAnIdeal,
    ParseError,
    SingularPoint,
    SuperalgError,
    UnsupportedAlgebra,
)
from .jstruct import (
    JStructure,
    check_eigenspace_brackets,
    complexify,
    nijenhuis_report,
    realify,
    validate_J,
)
from .liealg import (
    LieSuperalgebra,
    build_gl,
    check_jacobi,
    check_structure,
    dump_definition,
    load_definition,
)
from .pbw import casimir2, gelfand_invariant, is_central, project_to_cartan
from .radial import (
    build_radial,
    check_gamma_oracle,
    default_weights,
    extract_P,
    leading_term_match,
    weights_needed,
)
from .sampling import rand_torus_coords, rng
from .smash import SmashAlgebra, TorusElement, check_hopf_axioms
from .scalars import ONE

DEGREE_CAP_ENV = "SUPERALG_DEGREE_CAP"

COMMANDS = (
    "build",
    "check-jacobi",
    "casimir",
    "hopf-check",
    "jstruct-check",
    "gamma-check",
    "radial",
    "complexify",
)


@dataclass
class RunConfig:
    command: str
    algebra: str | None = None
    file: str | None = None
    samples: int = 100
    seed: int = 0
    degree_cap: int | None = None
    points: int = 20
    weights: int = 12
    order: int = 2
    kind: str | None = None
    check_central: bool = False
    ideal: list = field(default_factory=list)
    output: str | None = None

    def effective_degree_cap(self) -> int:
        if self.degree_cap is not None:
            return self.degree_cap
        raw = os.environ.get(DEGREE_CAP_ENV, "2")
        try:
            return _at_least(0)(raw)
        except argparse.ArgumentTypeError as exc:
            raise ParseError(f"{DEGREE_CAP_ENV}: {exc}") from exc


def _load_algebra(config: RunConfig, need_roots=False, need_form=False):
    """Resolve --algebra gl:m,n or --file path into algebra objects."""
    if config.file:
        loaded = load_definition(_read_text(config.file))
        g = loaded["algebra"]
        form = loaded.get("form")
        rs = loaded.get("root_system")
        jm = loaded.get("J")
        if need_form and form is None:
            raise ParseError("algebra file carries no quadratic form")
        if need_roots and rs is None:
            raise ParseError("algebra file carries no root system")
        return g, form, rs, jm
    spec = config.algebra or "gl:1,1"
    if not spec.startswith("gl:"):
        raise UnsupportedAlgebra(f"unknown builder spec {spec!r} (expected gl:m,n)")
    try:
        m, n = (int(x) for x in spec[3:].split(","))
    except ValueError as exc:
        raise UnsupportedAlgebra(f"bad builder spec {spec!r}") from exc
    if m < 1 or n < 1:
        raise UnsupportedAlgebra("builder needs m >= 1 and n >= 1")
    g, form, rs = build_gl(m, n)
    return g, form, rs, None


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _algebra_label(config: RunConfig) -> str:
    return config.file if config.file else (config.algebra or "gl:1,1")


def _sample_points(rs, count: int, seed: int):
    """Random torus points with every odd root eigenvalue different from 1."""
    from .liealg import ad_eigenvalue

    r = rng(seed)
    points = []
    guard = 0
    while len(points) < count:
        guard += 1
        if guard > 200 * count:
            raise SingularPoint(
                f"no regular torus point in {200 * count} draws: each had "
                "an odd root with Ad eigenvalue 1"
            )
        coords = rand_torus_coords(r, rs.rank)
        ok = True
        for root in rs.odd_roots:
            if ad_eigenvalue(rs, coords, root.index) == ONE:
                ok = False
                break
        if ok:
            points.append(TorusElement(coords))
    return points


# ---------------------------------------------------------------------------
# command implementations, each returning a list of result rows
# ---------------------------------------------------------------------------


def _cmd_build(config: RunConfig):
    g, form, rs, _ = _load_algebra(config)
    results = [
        {"check": "structure", **_strip(check_structure(g))},
        {"check": "jacobi", **_strip(check_jacobi(g))},
    ]
    if form is not None:
        results.append({"check": "quadratic-form", **_strip(form.validate(g))})
    if rs is not None:
        results.append({"check": "root-eigenequations", **_strip(rs.validate(g))})
    values = {"definition": dump_definition(g, form, rs)}
    return results, values


def _cmd_check_jacobi(config: RunConfig):
    if config.file:
        try:
            data = json.loads(_read_text(config.file))
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        g = LieSuperalgebra.from_json(data, validate=False)
    else:
        g, _, _, _ = _load_algebra(config)
    results = [
        {"check": "structure", **_strip(check_structure(g))},
        {"check": "jacobi", **_strip(check_jacobi(g))},
    ]
    return results, {}


def _cmd_casimir(config: RunConfig):
    g, form, rs, _ = _load_algebra(config, need_form=True)
    kind = config.kind or ("casimir2" if config.order == 2 else "gelfand")
    if kind == "casimir2" and config.order != 2:
        raise ParseError(f"casimir2 has order 2, not --order {config.order}")
    if kind == "casimir2":
        elem = casimir2(g, form)
    elif kind == "gelfand":
        try:
            elem = gelfand_invariant(g, config.order)
        except ValueError as exc:  # a definition file carries no builder metadata
            raise UnsupportedAlgebra(f"{exc} (use --algebra gl:m,n)") from exc
    else:
        raise UnsupportedAlgebra(f"unknown casimir kind {kind!r}")
    results = []
    if config.check_central:
        results.append({"check": "central", **_strip(is_central(elem, g))})
    values = {"element": elem.to_json(), "kind": kind, "order": config.order}
    if rs is not None:
        proj = project_to_cartan(elem, rs)
        values["cartan_projection"] = {
            str(list(e)): c.to_json() for e, c in sorted(proj.items())
        }
    if not results:
        results.append({"check": "computed", "pass": True, "witness": None})
    return results, values


def _cmd_hopf(config: RunConfig):
    g, _, rs, _ = _load_algebra(config, need_roots=True)
    alg = SmashAlgebra(g, rs)
    rep = check_hopf_axioms(
        alg, config.samples, config.seed, config.effective_degree_cap()
    )
    results = [
        {
            "check": name,
            "pass": rep["checks"][name] == rep["samples"],
            "witness": next((f for f in rep["failures"] if f["check"] == name), None),
        }
        for name in sorted(rep["checks"])
    ]
    return results, {"samples": rep["samples"], "seed": rep["seed"]}


def _cmd_jstruct(config: RunConfig):
    g, form, rs, jm = _load_algebra(config)
    if jm is not None:
        j = JStructure(jm)  # load_definition checked the shape
        target = g
    else:
        # canonical demonstration pair: restriction of scalars with J = mult by i
        target, j = realify(g)
    results = [
        {"check": "validate-J", **_strip(validate_J(target, j))},
        {"check": "nijenhuis", **_strip(nijenhuis_report(target, j))},
        {"check": "eigenspace-brackets", **_strip(check_eigenspace_brackets(target, j))},
    ]
    return results, {"dim": target.dim}


def _cmd_gamma(config: RunConfig):
    g, form, rs, _ = _load_algebra(config, need_form=True, need_roots=True)
    points = _sample_points(rs, config.points, config.seed)
    rep = check_gamma_oracle(rs, form, points)
    results = [
        {
            "check": "gamma-oracle",
            "pass": rep["pass"],
            "witness": None if rep["pass"] else [e for e in rep["points"] if not e.get("agree", True)][:3],
        }
    ]
    values = {
        "sign": rep["sign"],
        "points_tested": len(rep["points"]),
        "skipped": rep["skipped"],
        "points": rep["points"],
    }
    return results, values


def _cmd_radial(config: RunConfig):
    g, form, rs, _ = _load_algebra(config, need_form=True, need_roots=True)
    need = weights_needed(rs.rank)
    if config.weights < need:
        raise ParseError(f"--weights must be at least {need} for torus rank {rs.rank}")
    points = _sample_points(rs, config.points, config.seed)
    gamma_rep = check_gamma_oracle(rs, form, points)
    op = build_radial(rs, form)
    weights = default_weights(rs.rank, config.weights)
    poly, fit_rep = extract_P(op, weights)
    ltm = leading_term_match(poly, g, form, rs)
    results = [
        {"check": "gamma-oracle", "pass": gamma_rep["pass"], "witness": None},
        {"check": "eigenfunction", "pass": True, "witness": None},
        {"check": "P-fit", "pass": fit_rep["pass"], "witness": None if fit_rep["pass"] else fit_rep},
        {"check": "leading-term", "pass": ltm["pass"], "witness": None if ltm["pass"] else ltm},
    ]
    values = {
        "gamma_check": {
            "points": gamma_rep["points"],
            "sign": gamma_rep["sign"],
            "pass": gamma_rep["pass"],
        },
        "eigenvalue_c": op.eigenvalue_c.to_json(),
        "P_fit": fit_rep,
        "leading_term_match": ltm["pass"],
    }
    return results, values


def _cmd_complexify(config: RunConfig):
    g, _, _, _ = _load_algebra(config)
    if any(i >= g.dim for i in config.ideal):
        raise ParseError(f"--ideal indices must be below the dimension {g.dim}")
    try:
        pair = complexify(g, list(config.ideal))
    except NotAnIdeal as exc:
        return (
            [{"check": "ideal", "pass": False, "witness": str(exc)}],
            {},
        )
    results = [
        {"check": "ideal", "pass": True, "witness": None},
        {"check": "quotient-jacobi", **_strip(pair.jacobi_report)},
    ]
    values = {
        "quotient_dim": pair.algebra.dim,
        "kept": [g.names[i] for i in pair.kept_indices],
        "definition": dump_definition(pair.algebra),
    }
    return results, values


def _strip(report: dict) -> dict:
    out = {"pass": report["pass"], "witness": report.get("witness")}
    if "check" in report and report.get("check") is not None:
        out["detail"] = report["check"]
    return out


_DISPATCH = {
    "build": _cmd_build,
    "check-jacobi": _cmd_check_jacobi,
    "casimir": _cmd_casimir,
    "hopf-check": _cmd_hopf,
    "jstruct-check": _cmd_jstruct,
    "gamma-check": _cmd_gamma,
    "radial": _cmd_radial,
    "complexify": _cmd_complexify,
}


def run(config: RunConfig):
    """Execute a suite; returns (exit_status, report dict)."""
    t0 = time.perf_counter()
    results, values = _DISPATCH[config.command](config)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    all_pass = all(r["pass"] for r in results)
    report = {
        "command": config.command,
        "algebra": _algebra_label(config),
        "inputs": {
            "seed": config.seed,
            "samples": config.samples,
            "points": config.points,
            "weights": config.weights,
            "order": config.order,
            "degree_cap": config.effective_degree_cap(),
        },
        "results": results,
        "pass": all_pass,
        "timing_ms": elapsed_ms,
    }
    if values:
        report["values"] = values
    return (0 if all_pass else 1), report


def raise_for_status(report: dict):
    """Raise CheckFailed when a report carries a failing check; for callers
    using run() as a library entry point."""
    if not report.get("pass", False):
        failing = [r["check"] for r in report.get("results", []) if not r["pass"]]
        raise CheckFailed(f"failing checks: {', '.join(failing) or 'unknown'}")


def _at_least(low: int):
    """argparse type: an int no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _index_list(text: str) -> list:
    """argparse type: comma-separated non-negative generator indices."""
    return [_at_least(0)(x.strip()) for x in text.split(",") if x.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superalg",
        description="Exact verification suites for Lie superalgebra structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--algebra", help="builder spec, e.g. gl:2,1")
        p.add_argument("--file", help="algebra definition JSON file")
        p.add_argument("--samples", type=_at_least(1), default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--degree-cap", type=_at_least(0), default=None, dest="degree_cap")
        p.add_argument("--points", type=_at_least(1), default=20)
        p.add_argument("--weights", type=_at_least(1), default=12)
        p.add_argument("--order", type=_at_least(1), default=2)
        p.add_argument("--kind", choices=["casimir2", "gelfand"], default=None)
        p.add_argument("--check-central", action="store_true", dest="check_central")
        p.add_argument(
            "--ideal",
            type=_index_list,
            default=[],
            help="comma-separated generator indices spanning the ideal",
        )
        p.add_argument("--output", help="report file (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        command=args.command,
        algebra=args.algebra,
        file=args.file,
        samples=args.samples,
        seed=args.seed,
        degree_cap=args.degree_cap,
        points=args.points,
        weights=args.weights,
        order=args.order,
        kind=args.kind,
        check_central=args.check_central,
        ideal=args.ideal,
        output=args.output,
    )
    try:
        status, report = run(config)
    except (ParseError, UnsupportedAlgebra) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SuperalgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
