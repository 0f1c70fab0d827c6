"""The gl(m|n) builder is checked against an independent dense-matrix
oracle: elementary matrices multiplied as plain arrays, with the graded
commutator and supertrace computed from first principles."""

import json
import pickle
from fractions import Fraction

import pytest

import superalg.liealg as liealg
from superalg.errors import DegenerateForm, ParseError, ZeroTorusCoordinate
from superalg.jstruct import realify
from superalg.liealg import (
    LieSuperalgebra,
    QuadraticForm,
    Root,
    RootSystem,
    build_gl,
    check_jacobi,
    check_structure,
    dump_definition,
    generates,
    generating_set,
    load_definition,
    theta_dual,
)
from superalg.linalg import add_scaled, inv
from superalg.sampling import rand_scalar, rand_torus_coords, rng
from superalg.scalars import gr, ONE, ZERO
from superalg.smash import SmashAlgebra
from superalg.torus import TorusElement


def theta_vec(form, i):
    """Column i of theta_dual(form) as a sparse vector."""
    m = theta_dual(form)
    return {k: m[k][i] for k in range(form.dim) if not m[k][i].is_zero()}


# -- dense matrix oracle ------------------------------------------------------


def dense_unit(size, a, b):
    m = [[0] * size for _ in range(size)]
    m[a][b] = 1
    return m


def dense_mul(x, y):
    n = len(x)
    return [
        [sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def dense_sub(x, y):
    return [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(x, y)]


def dense_scale(x, s):
    return [[s * v for v in row] for row in x]


def oracle_bracket(size, m, ab, cd):
    """Graded commutator of elementary matrices as plain arrays."""
    pa = (0 if ab[0] < m else 1) + (0 if ab[1] < m else 1)
    pc = (0 if cd[0] < m else 1) + (0 if cd[1] < m else 1)
    sign = -1 if (pa % 2 and pc % 2) else 1
    x, y = dense_unit(size, *ab), dense_unit(size, *cd)
    return dense_sub(dense_mul(x, y), dense_scale(dense_mul(y, x), -1 if sign < 0 else 1))


def oracle_supertrace(mat, m):
    return sum(mat[a][a] * (1 if a < m else -1) for a in range(len(mat)))


def pairs_of(g):
    """Map basis index -> (a, b) pair from the builder metadata."""
    return {i: ab for ab, i in g.meta["eidx"].items()}


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
def test_builder_against_matrix_oracle(m, n):
    g, form, rs = build_gl(m, n)
    size = m + n
    idx_pair = pairs_of(g)
    for i in range(g.dim):
        for j in range(g.dim):
            want = oracle_bracket(size, m, idx_pair[i], idx_pair[j])
            got = [[0] * size for _ in range(size)]
            for k, c in g.bracket(i, j).items():
                a, b = idx_pair[k]
                assert c.im == 0
                got[a][b] += c.re
            assert got == [[Fraction(v) for v in row] for row in want] or got == want
            # supertrace form oracle: b(X, Y) = str(XY)
            xy = dense_mul(
                dense_unit(size, *idx_pair[i]), dense_unit(size, *idx_pair[j])
            )
            assert form.b(i, j) == gr(oracle_supertrace(xy, m))


def test_gl11_specifics(gl11):
    g, form, rs = gl11
    assert g.dim == 4
    i12, i21 = g.names.index("E12"), g.names.index("E21")
    i11, i22 = g.names.index("E11"), g.names.index("E22")
    assert g.bracket(i12, i21) == {i11: ONE, i22: ONE}
    assert form.b(i12, i21) == gr(1)
    assert form.b(i22, i22) == gr(-1)
    # root counts: R0 empty, R1 = {+-(d1-d2)}
    assert len(rs.even_roots) == 0
    assert len(rs.odd_roots) == 2
    weights = sorted(r.weight for r in rs.roots)
    assert weights == [(-1, 1), (1, -1)]


def test_gl21_root_counts(gl21):
    _, _, rs = gl21
    assert len(rs.even_roots) == 2
    assert len(rs.odd_roots) == 4
    assert len(rs.even_positives) == 1
    assert len(rs.odd_positives) == 2


@pytest.mark.parametrize(
    "m,n", [(1, 1), (2, 1), (2, 2), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3), (3, 3)]
)
def test_builder_invariants(m, n):
    g, form, rs = build_gl(m, n)
    assert check_structure(g)["pass"]
    assert check_jacobi(g)["pass"]
    assert form.validate(g)["pass"]
    assert rs.validate(g)["pass"]


def test_jacobi_abelian():
    abelian = LieSuperalgebra(["A", "B", "C"], [0, 0, 1], {})
    assert check_jacobi(abelian)["pass"]


def test_jacobi_fails_on_fake_bracket(gl11):
    g, _, _ = gl11
    i12, i21 = g.names.index("E12"), g.names.index("E21")
    i11, i22 = g.names.index("E11"), g.names.index("E22")
    table = {k: dict(v) for k, v in g.table.items()}
    fake = {i11: ONE, i22: gr(-1)}  # flips the sign on E22
    table[(i12, i21)] = dict(fake)
    table[(i21, i12)] = dict(fake)  # odd-odd brackets are symmetric
    bad = LieSuperalgebra(g.names, g.parities, table)
    rep = check_jacobi(bad)
    assert not rep["pass"]
    w = rep["witness"]
    # the reported triple must genuinely violate the identity
    i, j, k = w["indices"]
    lhs = bad.bracket_vec({i: ONE}, bad.bracket(j, k))
    sign = -1 if (bad.parities[i] and bad.parities[j]) else 1
    t1 = bad.bracket_vec(bad.bracket(i, j), {k: ONE})
    t2 = bad.bracket_vec({j: ONE}, bad.bracket(i, k))
    keys = set(lhs) | set(t1) | set(t2)
    defect = {
        t: lhs.get(t, ZERO) - t1.get(t, ZERO) - t2.get(t, ZERO) * sign for t in keys
    }
    defect = {t: c for t, c in defect.items() if not c.is_zero()}
    assert defect
    assert w["defect"] == {bad.names[t]: str(c) for t, c in defect.items()}


def test_structure_validation_rejects_bad_antisymmetry(gl11):
    g, _, _ = gl11
    i11, i12 = g.names.index("E11"), g.names.index("E12")
    table = {k: dict(v) for k, v in g.table.items()}
    table[(i11, i12)] = {i12: gr(2)}  # mirror says it should be -(+E12)... corrupt it
    rep = check_structure(LieSuperalgebra(g.names, g.parities, table))
    assert not rep["pass"]


class TestAdTorus:
    """Ad of a torus point: its character a.ad(w) on a weight, and
    SmashAlgebra.ad_monomial on a basis vector."""

    @staticmethod
    def ad(bundle, a, i):
        g, _, rs = bundle
        return SmashAlgebra(g, rs).ad_monomial(a, ((i, 1),))

    def test_identity_point(self, gl11):
        g, _, rs = gl11
        e = TorusElement((ONE, ONE))
        for i in range(g.dim):
            assert self.ad(gl11, e, i) == ONE
        for root in rs.roots:
            assert e.ad(root.weight) == ONE

    def test_example_scaling(self, gl11):
        g, _, rs = gl11
        i12 = g.names.index("E12")
        a = TorusElement((gr(2), gr(1)))
        assert self.ad(gl11, a, i12) == gr(4)
        assert self.ad(gl11, a, g.names.index("E21")) == gr(Fraction(1, 4))
        assert a.ad((1, -1)) == gr(4) and a.ad((-1, 1)) == gr(Fraction(1, 4))

    def test_cartan_fixed(self, gl11):
        g, _, rs = gl11
        a = TorusElement((gr(5), gr(Fraction(1, 3))))
        assert self.ad(gl11, a, g.names.index("E11")) == ONE
        assert a.ad((0, 0)) == ONE

    def test_matrix_conjugation_oracle(self, gl21):
        # Ad(a) on E_ab scales by z_a^2 / z_b^2: conjugation by
        # diag(exp y_i) with exp(y_i) = z_i^2, computed directly
        g, _, rs = gl21
        r = rng(421)
        idx_pair = pairs_of(g)
        for _ in range(20):
            coords = rand_torus_coords(r, 3)
            point = TorusElement(coords)
            for root in rs.roots:
                a, b = idx_pair[root.index]
                want = (coords[a] ** 2) * (coords[b] ** 2).inverse()
                assert point.ad(root.weight) == want
                assert self.ad(gl21, point, root.index) == want

    def test_multiplicativity(self, gl21):
        g, _, rs = gl21
        r = rng(52)
        for _ in range(50):
            a1 = TorusElement(rand_torus_coords(r, 3))
            a2 = TorusElement(rand_torus_coords(r, 3))
            for i in range(g.dim):
                assert self.ad(gl21, a1 * a2, i) == self.ad(gl21, a1, i) * self.ad(gl21, a2, i)

    def test_zero_coordinate_rejected(self):
        # a point is the only way into ad, and no point has a zero coordinate
        with pytest.raises(ZeroTorusCoordinate):
            TorusElement((ZERO, ONE))


def _edited_form(form, edits):
    """A copy of form with the Gram entries in edits replaced."""
    gram = [list(row) for row in form.gram]
    for (i, j), c in edits.items():
        gram[i][j] = c
    return QuadraticForm(gram)


class TestFormValidation:
    """Each sub-check of QuadraticForm.validate fails on its own defect,
    with every earlier sub-check passing."""

    def test_supertrace_form_passes(self, gl21):
        g, form, _ = gl21
        assert form.validate(g) == {"pass": True, "witness": None}

    def test_dimension_mismatch(self, gl11, gl21):
        g, _, _ = gl11
        _, form, _ = gl21
        assert form.validate(g) == {"pass": False, "witness": "dimension mismatch"}

    def test_even_fails_on_an_even_odd_entry(self, gl11):
        g, form, _ = gl11
        i11, i12 = g.names.index("E11"), g.names.index("E12")
        bad = _edited_form(form, {(i11, i12): ONE, (i12, i11): ONE})
        rep = bad.validate(g)
        assert (rep["pass"], rep["check"]) == (False, "even")
        assert set(rep["witness"]) == {"E11", "E12"}

    def test_supersymmetric_fails_on_a_symmetric_odd_pairing(self, gl11):
        g, form, _ = gl11
        i12, i21 = g.names.index("E12"), g.names.index("E21")
        # the supertrace gives b(E12, E21) = -b(E21, E12); make them equal
        bad = _edited_form(form, {(i21, i12): form.b(i12, i21)})
        rep = bad.validate(g)
        assert (rep["pass"], rep["check"]) == (False, "supersymmetric")
        assert set(rep["witness"]) == {"E12", "E21"}

    def test_invariant_fails_on_a_rescaled_cartan_entry(self, gl11, b_vec):
        g, form, _ = gl11
        i11 = g.names.index("E11")
        # even, supersymmetric and non-degenerate, but b([E12,E21],E11) = 2
        # while b(E12,[E21,E11]) = 1
        bad = _edited_form(form, {(i11, i11): gr(2)})
        rep = bad.validate(g)
        assert (rep["pass"], rep["check"]) == (False, "invariant")
        i, j, k = (g.names.index(x) for x in rep["witness"])
        lhs = b_vec(bad, g.bracket(i, j), {k: ONE})
        rhs = b_vec(bad, {i: ONE}, g.bracket(j, k))
        assert lhs != rhs

    def test_non_degenerate_fails_on_an_invariant_degenerate_form(self, gl21):
        # str(XY) - str(X) str(Y) is invariant, since str vanishes on
        # brackets, and degenerate on gl(2|1): 1 + c str(Id) = 0 at c = -1
        g, form, rs = gl21
        sign = {h: form.b(h, h) for h in rs.cartan}
        bad = _edited_form(
            form,
            {(h, k): form.b(h, k) - sign[h] * sign[k] for h in rs.cartan for k in rs.cartan},
        )
        rep = bad.validate(g)
        assert rep == {"pass": False, "check": "non-degenerate", "witness": None}


# The triple-at-a-time loops that check_jacobi and the invariance part of
# QuadraticForm.validate replaced, kept verbatim as oracles: every basis
# triple is visited, and every defect and both sides of invariance are
# built from g.bracket one triple at a time.


def triple_loop_check_jacobi(g: LieSuperalgebra) -> dict:
    n = g.dim
    for i in range(n):
        for j in range(n):
            sign = ONE if (g.parities[i] and g.parities[j]) else -ONE
            b_ij = g.bracket(i, j)
            for k in range(n):
                # [X_i,[X_j,X_k]] - [[X_i,X_j],X_k] - (-1)^{|i||j|} [X_j,[X_i,X_k]]
                defect: dict = {}
                for t, c in g.bracket(j, k).items():
                    add_scaled(defect, g.bracket(i, t), c)
                for t, c in b_ij.items():
                    add_scaled(defect, g.bracket(t, k), -c)
                for t, c in g.bracket(i, k).items():
                    add_scaled(defect, g.bracket(j, t), c * sign)
                if defect:
                    return {
                        "pass": False,
                        "witness": {
                            "triple": [g.names[i], g.names[j], g.names[k]],
                            "indices": [i, j, k],
                            "defect": {g.names[t]: str(c) for t, c in defect.items()},
                        },
                        "checked": n * n * n,
                    }
    return {"pass": True, "witness": None, "checked": n * n * n}


def triple_loop_validate(form: QuadraticForm, g: LieSuperalgebra) -> dict:
    n = form.dim
    if n != g.dim:
        return {"pass": False, "witness": "dimension mismatch"}
    for i in range(n):
        for j in range(n):
            if g.parities[i] != g.parities[j] and not form.gram[i][j].is_zero():
                return {
                    "pass": False,
                    "check": "even",
                    "witness": [g.names[i], g.names[j]],
                }
            sign = -1 if (g.parities[i] and g.parities[j]) else 1
            if form.gram[i][j] != form.gram[j][i] * sign:
                return {
                    "pass": False,
                    "check": "supersymmetric",
                    "witness": [g.names[i], g.names[j]],
                }
    gram = form.gram
    for i in range(n):
        for j in range(n):
            b_ij = g.bracket(i, j)
            for k in range(n):
                # b([X_i, X_j], X_k) = b(X_i, [X_j, X_k])
                lhs = sum((c * gram[t][k] for t, c in b_ij.items()), ZERO)
                rhs = sum((c * gram[i][t] for t, c in g.bracket(j, k).items()), ZERO)
                if lhs != rhs:
                    return {
                        "pass": False,
                        "check": "invariant",
                        "witness": [g.names[i], g.names[j], g.names[k]],
                    }
    if inv([list(r) for r in form.gram]) is None:
        return {"pass": False, "check": "non-degenerate", "witness": None}
    return {"pass": True, "witness": None}


ORACLE_ALGEBRAS = [(1, 1), (2, 1), (1, 2), (2, 2)]
PERTURBATIONS = 60


def _perturbed_bracket(g, r, antisymmetric, closed=True):
    """g with one bracket coefficient [X_i, X_j]_k replaced by a random
    scalar (zero included), k of the parity of the pair, or of the other
    parity when closed is False; the mirror entry (j, i) follows by
    super-antisymmetry, or keeps its old value."""
    n = g.dim
    i, j = r.randrange(n), r.randrange(n)
    if closed and r.random() < 0.5 and g.bracket(i, j):
        k = r.choice(sorted(g.bracket(i, j)))
    else:
        want = (g.parities[i] + g.parities[j] + (not closed)) % 2
        k = r.choice([k for k in range(n) if g.parities[k] == want])
    c = rand_scalar(r)
    table = {key: dict(v) for key, v in g.table.items()}
    table.setdefault((i, j), {})[k] = c
    if antisymmetric:
        sign = 1 if (g.parities[i] and g.parities[j]) else -1
        table.setdefault((j, i), {})[k] = c * sign
    return LieSuperalgebra(g.names, g.parities, table)


def _perturbed_gram(g, form, r):
    """form with one Gram entry b(X_i, X_j) of an even pair replaced by a
    random scalar, and b(X_j, X_i) set so the form stays supersymmetric."""
    n = g.dim
    while True:
        i, j = r.randrange(n), r.randrange(n)
        if g.parities[i] == g.parities[j] and not (i == j and g.parities[i]):
            break
    c = rand_scalar(r)
    sign = -1 if (g.parities[i] and g.parities[j]) else 1
    return _edited_form(form, {(i, j): c, (j, i): c * sign})


def same_report(rep, want):
    """Equal report dicts with equal key order: the CLI prints the defect
    dict as it is built."""
    return json.dumps(rep) == json.dumps(want)


class TestTripleLoopOracles:
    """check_jacobi and QuadraticForm.validate give the triple loops' report
    dicts, witnesses included, on the builders and on seeded defects.
    check_jacobi scans only sorted triples on a table that passes
    check_structure and every ordered triple on one that does not; both
    kinds of table occur below."""

    @pytest.mark.parametrize("mn", ORACLE_ALGEBRAS + [(3, 1), (1, 3)])
    def test_builders(self, mn):
        g, form, _ = build_gl(*mn)
        assert check_jacobi(g) == triple_loop_check_jacobi(g) == {
            "pass": True, "witness": None, "checked": g.dim ** 3
        }
        assert form.validate(g) == triple_loop_validate(form, g) == {
            "pass": True, "witness": None
        }

    @pytest.mark.parametrize("antisymmetric", [True, False])
    def test_perturbed_bracket(self, antisymmetric):
        builders = [build_gl(*mn) for mn in ORACLE_ALGEBRAS]
        r = rng(1901 + antisymmetric)
        failures = sorted_witnesses = 0
        for p in range(PERTURBATIONS):
            g, form, _ = builders[p % len(builders)]
            bad = _perturbed_bracket(g, r, antisymmetric)
            rep = check_jacobi(bad)
            assert same_report(rep, triple_loop_check_jacobi(bad))
            assert same_report(form.validate(bad), triple_loop_validate(form, bad))
            failures += not rep["pass"]
            if not rep["pass"] and check_structure(bad)["pass"]:
                # the sorted scan's witness: the first failing ordered
                # triple is sorted when the Jacobiator is graded alternating
                i, j, k = rep["witness"]["indices"]
                assert i <= j <= k
                sorted_witnesses += 1
        assert failures >= PERTURBATIONS // 2
        if antisymmetric:
            assert sorted_witnesses >= PERTURBATIONS // 2

    def test_perturbed_bracket_off_parity(self):
        # super-antisymmetric tables that break parity closure fail
        # check_structure, so check_jacobi scans every ordered triple
        builders = [build_gl(*mn) for mn in ORACLE_ALGEBRAS]
        r = rng(1907)
        failures = 0
        for p in range(PERTURBATIONS):
            g, _, _ = builders[p % len(builders)]
            bad = _perturbed_bracket(g, r, antisymmetric=True, closed=False)
            rep = check_jacobi(bad)
            assert same_report(rep, triple_loop_check_jacobi(bad))
            if not rep["pass"]:
                assert check_structure(bad)["check"] == "parity-closure"
                failures += 1
        assert failures >= PERTURBATIONS // 2

    def test_off_parity_failure_outside_the_sorted_triples(self, monkeypatch):
        # [X, Y] = 2X with X even and Y odd: super-antisymmetric, not parity
        # closed, and every sorted triple satisfies super Jacobi, so only
        # the scan over every ordered triple finds (Y, Y, X)
        g = LieSuperalgebra(["X", "Y"], [0, 1], {(0, 1): {0: gr(2)}, (1, 0): {0: gr(-2)}})
        want = {
            "pass": False,
            "witness": {"triple": ["Y", "Y", "X"], "indices": [1, 1, 0], "defect": {"X": "8"}},
            "checked": 8,
        }
        assert check_jacobi(g) == triple_loop_check_jacobi(g) == want
        monkeypatch.setattr(liealg, "check_structure", lambda g: {"pass": True})
        assert check_jacobi(g)["pass"]

    def test_tables_without_antisymmetry(self):
        # brackets only for i > j, as a file may give them: a check that
        # skipped the pair (i, j) for (j, i) would miss the witnesses with
        # i > j
        r = rng(1905)
        witnesses = []
        for _ in range(PERTURBATIONS):
            parities = [r.randrange(2) for _ in range(4)]
            table = {}
            for i in range(4):
                for j in range(i):
                    want = (parities[i] + parities[j]) % 2
                    targets = [k for k in range(4) if parities[k] == want]
                    if targets and r.random() < 0.5:
                        table[(i, j)] = {r.choice(targets): rand_scalar(r)}
            g = LieSuperalgebra(["A", "B", "C", "D"], parities, table)
            rep = check_jacobi(g)
            assert same_report(rep, triple_loop_check_jacobi(g))
            if rep["witness"]:
                witnesses.append(rep["witness"]["indices"])
        assert any(i > j for i, j, _ in witnesses)

    def test_perturbed_gram(self):
        builders = [build_gl(*mn) for mn in ORACLE_ALGEBRAS]
        r = rng(1903)
        checks = set()
        for p in range(PERTURBATIONS):
            g, form, _ = builders[p % len(builders)]
            bad = _perturbed_gram(g, form, r)
            rep = bad.validate(g)
            assert same_report(rep, triple_loop_validate(bad, g))
            checks.add(rep.get("check"))
        assert "invariant" in checks


class TestThetaDual:
    def test_orthonormal_even_identity(self):
        gram = [[ONE, ZERO], [ZERO, ONE]]
        form = QuadraticForm(gram)
        m = theta_dual(form)
        assert m == [[ONE, ZERO], [ZERO, ONE]]

    def test_gl11_values(self, gl11, b_vec):
        g, form, _ = gl11
        i22, i12, i21 = (
            g.names.index("E22"),
            g.names.index("E12"),
            g.names.index("E21"),
        )
        assert theta_vec(form, i22) == {i22: gr(-1)}
        tv = theta_vec(form, i12)
        assert set(tv) == {i21}
        assert b_vec(form, tv, {i12: ONE}) == ONE

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
    def test_defining_property(self, m, n, b_vec):
        g, form, _ = build_gl(m, n)
        for i in range(g.dim):
            ti = theta_vec(form, i)
            for j in range(g.dim):
                want = ONE if i == j else ZERO
                assert b_vec(form, ti, {j: ONE}) == want

    def test_degenerate_raises(self):
        form = QuadraticForm([[ONE, ZERO], [ZERO, ZERO]])
        with pytest.raises(DegenerateForm):
            theta_dual(form)


class TestDefinitionFiles:
    def test_roundtrip(self, gl21):
        g, form, rs = gl21
        import json

        data = dump_definition(g, form, rs)
        loaded = load_definition(json.dumps(data))
        g2 = loaded["algebra"]
        assert g2.names == g.names
        assert g2.parities == g.parities
        assert g2.table == g.table
        assert loaded["form"].gram == form.gram
        assert loaded["root_system"].cartan == rs.cartan
        assert loaded["root_system"].roots == rs.roots

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            load_definition("{ not json }")
        assert "line" in str(exc.value)

    def test_mirror_entry_beside_its_pair_loads(self, gl21):
        # (j, i) given next to (i, j) is a second ordered pair, not a repeat:
        # to_json writes both for a table that is not super-antisymmetric
        g, form, rs = gl21
        data = dump_definition(g, form, rs)
        e11, e21 = g.names.index("E11"), g.names.index("E21")
        ent = next(b for b in data["brackets"] if (b["i"], b["j"]) == (e21, e11))
        data["brackets"].append(
            {"i": e11, "j": e21, "result": [[[-re[0], re[1]], im, k] for re, im, k in ent["result"]]}
        )
        assert load_definition(data)["algebra"].table == g.table
        unsigned = LieSuperalgebra(g.names, g.parities, {**g.table, (e11, e21): g.table[(e21, e11)]})
        assert LieSuperalgebra.from_json(unsigned.to_json()).table == unsigned.table

    def test_parse_error_on_bad_schema(self):
        with pytest.raises(ParseError):
            load_definition('{"generators": [{"name": "X"}]}')
        with pytest.raises(ParseError):
            load_definition(
                '{"generators": [{"name": "X", "parity": 0}],'
                ' "brackets": [{"i": 0, "j": 5, "result": []}]}'
            )


def generated_dim(g, gens):
    """Dimension of the subalgebra the basis elements gens generate, by
    linear algebra alone: the span of the right-normed brackets
    [s_1, [s_2, ..., s_k]], with each new vector reduced against an echelon
    basis whose rows are zero left of their pivot."""
    echelon = {}  # pivot -> row with entry ONE there
    queue = [{i: ONE} for i in gens]
    while queue:
        v = queue.pop()
        for p in sorted(echelon):
            if p in v:
                v = dict(v)
                add_scaled(v, echelon[p], -v[p])
        if not v:
            continue
        p = min(v)
        pivot = v[p]
        echelon[p] = {k: c / pivot for k, c in v.items()}
        queue += [g.bracket_vec({s: ONE}, echelon[p]) for s in gens]
    return len(echelon)


class TestGeneratingSet:
    SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (2, 3), (3, 3), (4, 1)]

    @pytest.mark.parametrize("mn", SHAPES)
    def test_simple_roots_are_the_adjacent_differences(self, mn):
        _, _, rs = build_gl(*mn)
        size = sum(mn)
        want = []
        for a in range(size - 1):
            w = [0] * size
            w[a], w[a + 1] = 1, -1
            want.append(tuple(w))
        assert [r.weight for r in rs.simple_roots] == want

    @pytest.mark.parametrize("mn", SHAPES + ["file"])
    def test_gl_is_generated_by_2_m_plus_n_minus_1(self, mn):
        if mn == "file":
            mn = (2, 1)
            loaded = load_definition(json.dumps(dump_definition(*build_gl(*mn))))
            g, rs = loaded["algebra"], loaded["root_system"]
        else:
            g, _, rs = build_gl(*mn)
        gens = generating_set(g, rs)
        assert len(gens) == len(set(gens)) == 2 * sum(mn) - 1
        assert gens[-1] == g.names.index("E11")  # the one Cartan generator
        assert generates(g, rs, gens)
        assert generated_dim(g, gens) == g.dim

    @pytest.mark.parametrize("mn", [(1, 1), (2, 1), (2, 2)])
    def test_the_closure_refuses_each_set_one_short(self, mn):
        # the simple root vectors without a Cartan generator span the
        # supertrace-zero part only, and dropping any one of them loses the
        # roots through it: no proper subset of the set generates g
        g, _, rs = build_gl(*mn)
        gens = generating_set(g, rs)
        for drop in gens:
            rest = [i for i in gens if i != drop]
            assert not generates(g, rs, rest)
            assert generated_dim(g, rest) < g.dim

    def test_cartan_generators_complete_in_index_order(self, gl21):
        # every root vector spans the supertrace-zero Cartan part; E11 and
        # E22 each complete it, and E11 comes first in index order
        g, _, rs = gl21
        roots = [r.index for r in rs.roots]
        assert not generates(g, rs, roots)
        i11, i22 = g.names.index("E11"), g.names.index("E22")
        assert generates(g, rs, roots + [i22])
        assert generates(g, rs, roots + [i11])

    def test_every_index_when_the_simple_roots_do_not_reach_every_root(
        self, gl21, monkeypatch
    ):
        g, _, rs = gl21
        first = rs.simple_roots[:1]
        monkeypatch.setattr(RootSystem, "simple_roots", property(lambda rs: first))
        assert generating_set(g, rs) == tuple(range(g.dim))


# The per-read code that RootSystem's derived views replaced, kept as the
# oracle: each split rebuilt from the index lists, SmashAlgebra's own weight
# map, and the scan of every root for an opposite.


def scanned_split(rs, parity, positive_only):
    ids = rs.positives if positive_only else range(len(rs.roots))
    return [rs.roots[i] for i in ids if rs.roots[i].parity == parity]


def scanned_weights(rs):
    weights = {r.index: r.weight for r in rs.roots}
    weights.update((h, (0,) * rs.rank) for h in rs.cartan)
    return weights


def scanned_negative_of(rs, root):
    target = tuple(-w for w in root.weight)
    for r in rs.roots:
        if r.weight == target and r.parity == root.parity:
            return r
    raise ValueError(f"no opposite for root {root}")


class TestRootSystemViews:
    SHAPES = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]

    def assert_views_match_the_scans(self, g, rs):
        for parity, roots, positives in (
            (0, rs.even_roots, rs.even_positives),
            (1, rs.odd_roots, rs.odd_positives),
        ):
            assert list(roots) == scanned_split(rs, parity, False)
            assert list(positives) == scanned_split(rs, parity, True)
        # same entries in the same order: root vectors, then the Cartan
        assert list(rs.weights.items()) == list(scanned_weights(rs).items())
        alg = SmashAlgebra(g, rs)
        assert alg.weights is rs.weights
        assert alg.weights == scanned_weights(rs)
        for r in rs.roots:
            assert rs.negative_of(r) is scanned_negative_of(rs, r)

    @pytest.mark.parametrize("mn", SHAPES)
    def test_builder(self, mn):
        g, _, rs = build_gl(*mn)
        self.assert_views_match_the_scans(g, rs)

    def test_permuted_roots(self, permuted_definition):
        loaded = load_definition(permuted_definition(2, 2))
        g, rs = loaded["algebra"], loaded["root_system"]
        # the positives are not listed in roots order
        assert list(rs.even_positives) != [r for r in rs.even_roots if r in rs.even_positives]
        assert list(rs.odd_positives) != [r for r in rs.odd_roots if r in rs.odd_positives]
        self.assert_views_match_the_scans(g, rs)

    def test_repeated_weight_and_parity_give_the_first_root(self):
        roots = [Root((1, -1), 0, 2), Root((1, -1), 0, 3), Root((-1, 1), 0, 4)]
        rs = RootSystem((0, 1), roots, [0])
        assert rs.negative_of(roots[2]) is roots[0]
        assert scanned_negative_of(rs, roots[2]) is roots[0]
        assert rs.negative_of(roots[0]) is rs.negative_of(roots[1]) is roots[2]

    @pytest.mark.parametrize(
        "roots",
        [
            [Root((1,), 1, 1)],
            # the opposite weight with the other parity is no opposite
            [Root((1,), 0, 1), Root((-1,), 1, 2)],
        ],
    )
    def test_unpaired_root_builds_and_raises_at_negative_of(self, roots):
        rs = RootSystem((0,), roots, [0])
        with pytest.raises(ValueError) as want:
            scanned_negative_of(rs, roots[0])
        with pytest.raises(ValueError) as got:
            rs.negative_of(roots[0])
        assert str(got.value) == str(want.value) == f"no opposite for root {roots[0]}"


# The code that the kept views of the table and the root system replaced,
# kept as the oracle: the adjacency loop that check_jacobi and
# QuadraticForm.validate each ran on every call, and the frame index lists
# that jacobian_at rebuilt at every torus point.


def looped_right_brackets(g):
    right = {}
    for x, k in sorted(g.table):
        right.setdefault(x, {})[k] = g.table[(x, k)]
    return right


def looped_root_orders(rs):
    even_ids = [r.index for r in rs.even_roots]
    odd_ids = [r.index for r in rs.odd_roots]
    return list(rs.cartan) + even_ids, odd_ids


def in_order(right):
    """The adjacency lists with their order: x ascending, then k."""
    return [(x, list(row.items())) for x, row in right.items()]


class TestDefinitionViews:
    SHAPES = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]

    def assert_table_views(self, g):
        assert in_order(g.right) == in_order(looped_right_brackets(g))
        assert check_structure(g) is check_structure(g) is g.structure

    @pytest.mark.parametrize("mn", SHAPES)
    def test_builder(self, mn):
        g, form, rs = build_gl(*mn)
        self.assert_table_views(g)
        assert g.structure["pass"]
        assert form.gram_inverse == inv([list(r) for r in form.gram])
        assert (list(rs.even_basis), list(rs.odd_basis)) == looped_root_orders(rs)

    def test_realified(self, gl11):
        real, _ = realify(gl11[0])
        self.assert_table_views(real)

    def test_table_failing_check_structure(self, gl21):
        # [E11, E21] given with the sign of [E21, E11]
        g = gl21[0]
        e11, e21 = g.names.index("E11"), g.names.index("E21")
        bad = LieSuperalgebra(g.names, g.parities, {**g.table, (e11, e21): g.table[(e21, e11)]})
        self.assert_table_views(bad)
        assert bad.structure["check"] == "super-antisymmetry"

    def test_permuted_roots(self, permuted_definition):
        rs = load_definition(permuted_definition(2, 2))["root_system"]
        assert (list(rs.even_basis), list(rs.odd_basis)) == looped_root_orders(rs)

    def test_singular_gram_has_no_inverse(self):
        form = QuadraticForm([[ONE, ZERO], [ZERO, ZERO]])
        assert form.gram_inverse is None
        rep = form.validate(LieSuperalgebra(["A", "B"], [0, 0], {}))
        assert rep == {"pass": False, "check": "non-degenerate", "witness": None}

    def test_pickle_keeps_every_view(self):
        g, form, rs = build_gl(2, 1)
        views = {
            g: ("right", "structure"),
            form: ("gram_inverse",),
            rs: ("even_roots", "odd_roots", "even_positives", "odd_positives",
                 "even_basis", "odd_basis", "weights"),
        }
        for obj, names in views.items():
            # g and form derive their views on first use: one copy is
            # pickled before that, one after
            before = pickle.loads(pickle.dumps(obj))
            want = [getattr(obj, name) for name in names]
            after = pickle.loads(pickle.dumps(obj))
            assert [getattr(before, name) for name in names] == want
            assert [getattr(after, name) for name in names] == want
