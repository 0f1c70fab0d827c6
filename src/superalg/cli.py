"""Command-line front end: builds algebras, runs the verification suites,
emits machine-readable JSON reports.

Reports contain no floating point: every scalar is a pair of integer
fractions, its real and imaginary parts.  Both encodings are written by
scalars.GaussianRational.  Most scalars (torus points, gamma values, form
entries, fitted coefficients) appear as quads [re_num, re_den, im_num,
im_den], from to_json; PBW coefficients appear as [[re_num, re_den],
[im_num, im_den]], from to_json_pairs, and a bracket entry as that pair
followed by its index.  A polynomial in the Cartan variables (the Cartan
projection, the fitted P) is torus.LaurentPoly.to_json: a map from
"[e_1, ..., e_t]" to the quad of that exponent's coefficient.  All sampling
is driven by random.Random(seed) (Mersenne Twister), so a fixed seed
reproduces a report byte for byte apart from the timing_ms field.  Exit
status is 0 exactly when every check passed, 1 when some check failed,
2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from .errors import (
    DegenerateForm,
    NotAnIdeal,
    NotEigenfunction,
    ParseError,
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
from .sampling import regular_points
from .smash import SmashAlgebra, check_hopf_axioms


@dataclass
class RunConfig:
    """One suite run; the fields' defaults are the CLI's defaults."""

    command: str
    algebra: str | None = None
    file: str | None = None
    samples: int = 100
    seed: int = 0
    degree_cap: int = 2
    points: int = 20
    weights: int = 12
    order: int = 2
    kind: str | None = None
    check_central: bool = False  # read by no command; see _COMMAND_TABLE
    ideal: list = field(default_factory=list)
    output: str | None = None


def _load_algebra(
    config: RunConfig, need_roots=False, need_form=False, need_lie=False, validate=True
):
    """Resolve --algebra gl:m,n or --file path into algebra objects.

    validate=False loads a file without the structure and eigen-equation
    checks: build reports both as rows, and check-jacobi the first.

    need_lie is for the suites that take a file's bracket table as a Lie
    superalgebra without checking it: the table must satisfy super Jacobi
    (ParseError otherwise) and, with need_form, its form must pass
    QuadraticForm.validate (DegenerateForm otherwise); both exit 2.  build,
    check-jacobi and complexify report these as failing checks instead."""
    if config.file:
        loaded = load_definition(_read_text(config.file), validate)
        g = loaded["algebra"]
        form = loaded.get("form")
        rs = loaded.get("root_system")
        jm = loaded.get("J")
        if need_form and form is None:
            raise ParseError("algebra file carries no quadratic form")
        if need_roots and rs is None:
            raise ParseError("algebra file carries no root system")
        if need_lie:
            _require_lie(g, form if need_form else None)
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


def _require_lie(g: LieSuperalgebra, form=None) -> None:
    """ParseError naming the first failing triple of super Jacobi, or
    DegenerateForm naming the first failing sub-check of the form."""
    rep = check_jacobi(g)
    if not rep["pass"]:
        triple = ", ".join(rep["witness"]["triple"])
        raise ParseError(f"bracket table fails super Jacobi at ({triple})")
    if form is not None:
        rep = form.validate(g)  # load_definition has matched the dimensions
        if not rep["pass"]:
            at = f" at ({', '.join(rep['witness'])})" if rep["witness"] else ""
            raise DegenerateForm(f"quadratic form is not {rep['check']}{at}")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _algebra_label(config: RunConfig) -> str:
    return config.file if config.file else (config.algebra or "gl:1,1")


# ---------------------------------------------------------------------------
# command implementations, each returning a list of result rows
# ---------------------------------------------------------------------------


def _cmd_build(config: RunConfig):
    g, form, rs, _ = _load_algebra(config, validate=False)
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
    g, _, _, _ = _load_algebra(config, validate=False)
    results = [
        {"check": "structure", **_strip(check_structure(g))},
        {"check": "jacobi", **_strip(check_jacobi(g))},
    ]
    return results, {}


def _cmd_casimir(config: RunConfig):
    g, form, rs, _ = _load_algebra(config, need_form=True, need_lie=True)
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
    results = [{"check": "central", **_strip(is_central(elem, g, rs))}]
    values = {"element": elem.to_json(), "kind": kind, "order": config.order}
    if rs is not None:
        values["cartan_projection"] = project_to_cartan(elem, rs).to_json()
    return results, values


def _cmd_hopf(config: RunConfig):
    g, _, rs, _ = _load_algebra(config, need_roots=True, need_lie=True)
    alg = SmashAlgebra(g, rs)
    rep = check_hopf_axioms(alg, config.samples, config.seed, config.degree_cap)
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
    g, form, rs, jm = _load_algebra(config, need_lie=True)
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


def _gamma_row(rep: dict) -> dict:
    """Result row of a check_gamma_oracle report; a failing row names the
    first three disagreeing points."""
    witness = None if rep["pass"] else [e for e in rep["points"] if not e["agree"]][:3]
    return {"check": "gamma-oracle", "pass": rep["pass"], "witness": witness}


def _cmd_gamma(config: RunConfig):
    g, form, rs, _ = _load_algebra(config, need_form=True, need_roots=True, need_lie=True)
    points = regular_points(rs, config.points, config.seed)
    rep = check_gamma_oracle(SmashAlgebra(g, rs), form, points)
    results = [_gamma_row(rep)]
    values = {
        "sign": rep["sign"],
        "points_tested": len(rep["points"]),
        "skipped": rep["skipped"],
        "points": rep["points"],
    }
    return results, values


def _cmd_radial(config: RunConfig):
    g, form, rs, _ = _load_algebra(config, need_form=True, need_roots=True, need_lie=True)
    need = weights_needed(rs.rank)
    if config.weights < need:
        raise ParseError(f"--weights must be at least {need} for torus rank {rs.rank}")
    points = regular_points(rs, config.points, config.seed)
    gamma_rep = check_gamma_oracle(SmashAlgebra(g, rs), form, points)
    results = [_gamma_row(gamma_rep)]
    values = {
        "gamma_check": {
            "points": gamma_rep["points"],
            "sign": gamma_rep["sign"],
            "pass": gamma_rep["pass"],
        },
    }
    try:
        op = build_radial(rs, form)
    except NotEigenfunction as exc:
        # no eigenvalue c: the P-fit and leading-term rows need it
        results.append({"check": "eigenfunction", "pass": False, "witness": str(exc)})
        return results, values
    weights = default_weights(rs.rank, config.weights)
    poly, fit_rep = extract_P(op, weights)
    ltm = leading_term_match(poly, g, form, rs)
    results += [
        {"check": "eigenfunction", "pass": True, "witness": None},
        {"check": "P-fit", "pass": fit_rep["pass"], "witness": None if fit_rep["pass"] else fit_rep},
        {"check": "leading-term", "pass": ltm["pass"], "witness": None if ltm["pass"] else ltm},
    ]
    values["eigenvalue_c"] = op.eigenvalue_c.to_json()
    values["P_fit"] = fit_rep
    values["leading_term_match"] = ltm["pass"]
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


# command -> (its function, the RunConfig fields it reads besides algebra, file, output).
# casimir always certifies centrality; check_central is declared only because the
# pbw-center suites and casimir rungs pass it, and ROADMAP item 7 deletes it.
_COMMAND_TABLE = {
    "build": (_cmd_build, ()),
    "check-jacobi": (_cmd_check_jacobi, ()),
    "casimir": (_cmd_casimir, ("order", "kind", "check_central")),
    "hopf-check": (_cmd_hopf, ("samples", "seed", "degree_cap")),
    "jstruct-check": (_cmd_jstruct, ()),
    "gamma-check": (_cmd_gamma, ("points", "seed")),
    "radial": (_cmd_radial, ("points", "weights", "seed")),
    "complexify": (_cmd_complexify, ("ideal",)),
}

COMMANDS = tuple(_COMMAND_TABLE)


def run(config: RunConfig):
    """Execute a suite; returns (exit_status, report dict)."""
    t0 = time.perf_counter()
    results, values = _COMMAND_TABLE[config.command][0](config)
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
            "degree_cap": config.degree_cap,
        },
        "results": results,
        "pass": all_pass,
        "timing_ms": elapsed_ms,
    }
    if values:
        report["values"] = values
    return (0 if all_pass else 1), report


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


# the argparse settings of each RunConfig field that is a CLI option
_OPTIONS = {
    "algebra": {"help": "builder spec, e.g. gl:2,1"},
    "file": {"help": "algebra definition JSON file"},
    "output": {"help": "report file (default: stdout)"},
    **{name: {"type": _at_least(1)} for name in ("samples", "points", "weights", "order")},
    "seed": {"type": int},
    "degree_cap": {"type": _at_least(0)},
    "kind": {"choices": ["casimir2", "gelfand"]},
    "check_central": {"action": "store_true"},
    "ideal": {"type": _index_list, "help": "comma-separated generator indices spanning the ideal"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superalg",
        description="Exact verification suites for Lie superalgebra structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads) in _COMMAND_TABLE.items():
        # an option left out keeps RunConfig's default; an undeclared one exits 2
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for dest in ("algebra", "file", *reads, "output"):
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, **_OPTIONS[dest])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    config = RunConfig(**vars(parser.parse_args(argv)))
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
