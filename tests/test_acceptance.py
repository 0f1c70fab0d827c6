"""Acceptance suite: one test per criterion, each printing a pass/fail line
and asserting its stated wall-clock budget.  Everything is exact; there are
no tolerances anywhere.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

import json
import time
from fractions import Fraction

import pytest

from superalg.cli import main as cli_main
from superalg.errors import NotAnIdeal, SingularOddBlock
from superalg.jstruct import (
    JStructure,
    check_eigenspace_brackets,
    complexify,
    nijenhuis_report,
    realify,
    validate_J,
)
from superalg.liealg import ad_eigenvalue, build_gl, check_jacobi
from superalg.pbw import (
    casimir2,
    gelfand_invariant,
    is_central,
    multiply,
    normalize_terms,
    pbw_normalize,
)
from superalg.radial import (
    build_radial,
    check_gamma_oracle,
    default_weights,
    extract_P,
    gamma_closed_form,
    leading_term_match,
)
from superalg.sampling import rand_torus_coords, rand_word, rng
from superalg.scalars import gr, ONE, ZERO
from superalg.smash import SmashAlgebra, TorusElement, check_hopf_axioms, gamma_via_sdet
from superalg.torus import TorusRational


class Budget:
    def __init__(self, number, name, limit_s):
        self.number = number
        self.name = name
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {verdict} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget"
                f" ({elapsed:.2f}s)"
            )
        return False


def regular_points(rs, count, seed):
    r = rng(seed)
    out = []
    while len(out) < count:
        coords = rand_torus_coords(r, rs.rank)
        if all(ad_eigenvalue(rs, coords, rt.index) != ONE for rt in rs.odd_roots):
            out.append(TorusElement(coords))
    return out


def test_01_structure_validity():
    for mn in [(1, 1), (2, 1), (2, 2)]:
        with Budget(1, f"structure-validity gl{mn}", 1.0):
            g, form, rs = build_gl(*mn)
            assert check_jacobi(g)["pass"]
            assert form.validate(g)["pass"]
            assert rs.validate(g)["pass"]


def test_02_pbw_soundness():
    with Budget(2, "pbw-soundness", 30.0):
        g, _, _ = build_gl(2, 1)
        r = rng(20240)
        for _ in range(200):
            w = rand_word(r, g.dim, max_len=4)
            assert normalize_terms(g, [(w, ONE)], "leftmost") == normalize_terms(
                g, [(w, ONE)], "rightmost"
            )
        for _ in range(200):
            x = pbw_normalize(g, rand_word(r, g.dim, max_len=2))
            y = pbw_normalize(g, rand_word(r, g.dim, max_len=2))
            z = pbw_normalize(g, rand_word(r, g.dim, max_len=2))
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_03_centrality():
    for mn in [(1, 1), (2, 1), (2, 2)]:
        with Budget(3, f"centrality gl{mn}", 120.0):
            g, form, _ = build_gl(*mn)
            assert is_central(casimir2(g, form), g)["pass"]
            for k in (1, 2, 3):
                gi = gelfand_invariant(g, k)
                assert is_central(gi, g)["pass"]


def test_04_hopf_axioms():
    with Budget(4, "hopf-axioms", 30.0):
        g, _, rs = build_gl(1, 1)
        rep = check_hopf_axioms(SmashAlgebra(g, rs), samples=100, seed=424242)
        assert rep["pass"], rep["failures"]
        for name in (
            "antipode_left",
            "antipode_right",
            "counit_left",
            "counit_right",
            "coassociativity",
            "super_cocommutativity",
        ):
            assert rep["checks"][name] == 100


def test_05_gamma_formula():
    with Budget(5, "gamma-formula", 10.0):
        for mn, seed in [((1, 1), 51), ((2, 1), 52)]:
            g, form, rs = build_gl(*mn)
            pts = regular_points(rs, 20, seed)
            rep = check_gamma_oracle(rs, form, pts)
            assert rep["pass"]
            assert rep["sign"] in (1, -1)
        # pinned spot value: |gamma| at a = (2, 1) on gl(1|1) is exactly 4/9
        g, form, rs = build_gl(1, 1)
        a = TorusElement((gr(2), gr(1)))
        closed = gamma_closed_form(rs).eval(a.coords)
        sdet = gamma_via_sdet(rs, a)
        assert closed == gr(Fraction(4, 9))
        assert sdet in (gr(Fraction(4, 9)), gr(Fraction(-4, 9)))


def test_06_singular_locus():
    with Budget(6, "singular-locus", 5.0):
        cases = []
        g1, f1, rs1 = build_gl(1, 1)
        for t in (1, 2, 3, Fraction(1, 2)):
            cases.append((rs1, f1, (gr(t), gr(t))))
            cases.append((rs1, f1, (gr(t), gr(-t))))
        g2, f2, rs2 = build_gl(2, 1)
        for t in (2, Fraction(1, 3)):
            cases.append((rs2, f2, (gr(t), gr(5), gr(t))))
        assert len(cases) >= 10
        for rs, form, coords in cases:
            gamma = gamma_closed_form(rs)
            assert gamma.den.eval(coords).is_zero()
            with pytest.raises(SingularOddBlock):
                gamma_via_sdet(rs, TorusElement(coords))


def test_07_eigenfunction_hypothesis():
    with Budget(7, "eigenfunction-hypothesis", 10.0):
        g, form, rs = build_gl(1, 1)
        op = build_radial(rs, form)
        assert op.eigenvalue_c == gr(0)  # derived: d1^2 - d2^2 kills f(y1 - y2)
        assert op.laplacian.apply(op.j) == op.j * op.eigenvalue_c

        g, form, rs = build_gl(2, 1)
        op = build_radial(rs, form)
        assert op.eigenvalue_c == gr(0)  # pinned regression value
        assert op.laplacian.apply(op.j) == TorusRational.zero(3)


def test_08_berezin_order_two():
    with Budget(8, "berezin-order-two", 30.0):
        for mn, count in [((1, 1), 10), ((2, 1), 12)]:
            g, form, rs = build_gl(*mn)
            op = build_radial(rs, form)
            weights = default_weights(rs.rank, count)
            assert len(set(weights)) >= 10
            poly, rep = extract_P(op, weights)
            assert rep["pass"]
            assert max(sum(e) for e in poly) == 2
            assert leading_term_match(poly, g, form, rs)["pass"]


def test_09_complex_structures():
    with Budget(9, "complex-structures", 5.0):
        g, _, _ = build_gl(1, 1)
        real, j = realify(g)
        assert validate_J(real, j)["pass"]
        assert nijenhuis_report(real, j)["pass"]
        assert check_eigenspace_brackets(real, j)["pass"]

        # injected counterexample: J^2 = -Id but bracket not J-linear
        i12, i21 = g.names.index("E12"), g.names.index("E21")
        i11, i22 = g.names.index("E11"), g.names.index("E22")
        jm = [[ZERO] * 4 for _ in range(4)]
        jm[i22][i11], jm[i11][i22] = ONE, gr(-1)
        jm[i12][i21], jm[i21][i12] = ONE, gr(-1)
        bad = JStructure(jm)
        r1 = validate_J(g, bad)
        r2 = nijenhuis_report(g, bad)
        r3 = check_eigenspace_brackets(g, bad)
        assert not r1["pass"] and r1["witness"] is not None
        assert not r2["pass"] and r2["witness"] is not None
        assert not r3["pass"] and r3["witness"] is not None


def test_10_complexification():
    with Budget(10, "complexification", 5.0):
        g, _, _ = build_gl(1, 1)
        pair = complexify(g, ())
        real, _ = realify(pair.algebra)
        assert real.dim == 2 * g.dim
        assert check_jacobi(real)["pass"]

        i11, i22 = g.names.index("E11"), g.names.index("E22")
        center = {i11: ONE, i22: ONE}
        quot = complexify(g, [center])
        assert quot.algebra.dim == g.dim - 1
        assert quot.jacobi_report["pass"]

        with pytest.raises(NotAnIdeal):
            complexify(g, [i11])


def test_11_reproducibility(tmp_path):
    with Budget(11, "reproducibility", 60.0):
        suites = [
            ["hopf-check", "--algebra", "gl:1,1", "--samples", "20", "--seed", "77"],
            ["gamma-check", "--algebra", "gl:2,1", "--points", "8", "--seed", "13"],
            [
                "radial",
                "--algebra",
                "gl:1,1",
                "--points",
                "5",
                "--weights",
                "10",
                "--seed",
                "6",
            ],
        ]
        for i, argv in enumerate(suites):
            p1 = tmp_path / f"r{i}a.json"
            p2 = tmp_path / f"r{i}b.json"
            assert cli_main(argv + ["--output", str(p1)]) == 0
            assert cli_main(argv + ["--output", str(p2)]) == 0
            a = json.loads(p1.read_text())
            b = json.loads(p2.read_text())
            a.pop("timing_ms")
            b.pop("timing_ms")
            assert a == b
