import pytest

from superalg.errors import NotAlmostComplex, NotAnIdeal
from superalg.jstruct import (
    ComplexifiedPair,
    JStructure,
    check_eigenspace_brackets,
    complexify,
    eigen_split,
    nijenhuis,
    nijenhuis_report,
    realify,
    validate_J,
)
from superalg.liealg import LieSuperalgebra, check_jacobi, check_structure
from superalg.scalars import gr, I, ONE, ZERO


@pytest.fixture()
def abelian_rotation():
    g = LieSuperalgebra(["X", "Y"], [0, 0], {})
    j = JStructure([[ZERO, gr(-1)], [ONE, ZERO]])
    return g, j


@pytest.fixture()
def realified_gl11(gl11):
    g, _, _ = gl11
    return realify(g)


@pytest.fixture()
def bad_j_gl11(gl11):
    # J^2 = -Id and parity-preserving but not bracket-linear
    g, _, _ = gl11
    i12, i21 = g.names.index("E12"), g.names.index("E21")
    i11, i22 = g.names.index("E11"), g.names.index("E22")
    jm = [[ZERO] * 4 for _ in range(4)]
    jm[i22][i11], jm[i11][i22] = ONE, gr(-1)
    jm[i12][i21], jm[i21][i12] = ONE, gr(-1)
    return g, JStructure(jm)


class TestValidateJ:
    def test_abelian_rotation_passes(self, abelian_rotation):
        g, j = abelian_rotation
        assert validate_J(g, j)["pass"]

    def test_multiplication_by_i_passes(self, realified_gl11):
        real, j = realified_gl11
        rep = validate_J(real, j)
        assert rep["pass"], rep

    def test_non_linear_bracket_fails_with_witness(self, bad_j_gl11):
        g, j = bad_j_gl11
        rep = validate_J(g, j)
        assert not rep["pass"]
        assert rep["check"] == "J-linearity"
        assert rep["witness"] is not None

    def test_witness_is_the_first_pair_where_ad_fails_to_commute_with_J(self, bad_j_gl11):
        # [X_a, J X_b] = J [X_a, X_b] from the matrix entries, pair by pair
        g, j = bad_j_gl11
        n = g.dim

        def commutes(a, b):
            lhs, rhs = [ZERO] * n, [ZERO] * n
            for k in range(n):
                for t, c in g.bracket(a, k).items():
                    lhs[t] = lhs[t] + j.matrix[k][b] * c
            for k, c in g.bracket(a, b).items():
                for t in range(n):
                    rhs[t] = rhs[t] + j.matrix[t][k] * c
            return lhs == rhs

        failing = [(a, b) for a in range(n) for b in range(n) if not commutes(a, b)]
        assert failing
        a, b = failing[0]
        assert validate_J(g, j)["witness"] == [g.names[a], g.names[b]]

    def test_j_square_violation_is_reported(self, abelian_rotation):
        g, _ = abelian_rotation
        not_acs = JStructure([[ONE, ZERO], [ZERO, ONE]])
        rep = validate_J(g, not_acs)
        assert not rep["pass"] and rep["check"] == "J^2=-Id"


class TestNijenhuis:
    def test_abelian_vanishes(self, abelian_rotation):
        g, j = abelian_rotation
        assert nijenhuis_report(g, j)["pass"]
        assert nijenhuis(g, j, 0, 1) == {}

    def test_j_linear_vanishes(self, realified_gl11):
        real, j = realified_gl11
        assert nijenhuis_report(real, j)["pass"]

    def test_counterexample_with_witness(self, bad_j_gl11):
        g, j = bad_j_gl11
        rep = nijenhuis_report(g, j)
        assert not rep["pass"]
        pair = rep["witness"]["pair"]
        a, b = (g.names.index(nm) for nm in pair)
        assert nijenhuis(g, j, a, b) != {}


class TestEigenSplit:
    def test_rotation_eigenvectors(self, abelian_rotation):
        g, j = abelian_rotation
        plus, minus = eigen_split(g, j)
        assert len(plus) == 1 and len(minus) == 1
        for v in plus:
            assert j.apply(v) == {k: c * I for k, c in v.items()}
        for v in minus:
            assert j.apply(v) == {k: c * I * gr(-1) for k, c in v.items()}

    def test_dimensions_halve(self, realified_gl11):
        real, j = realified_gl11
        plus, minus = eigen_split(real, j)
        assert len(plus) == real.dim // 2
        assert len(minus) == real.dim // 2

    def test_requires_almost_complex(self, abelian_rotation):
        g, _ = abelian_rotation
        with pytest.raises(NotAlmostComplex):
            eigen_split(g, JStructure([[ONE, ZERO], [ZERO, ONE]]))


class TestEigenspaceBrackets:
    def test_j_linear_passes(self, realified_gl11):
        real, j = realified_gl11
        assert check_eigenspace_brackets(real, j)["pass"]

    def test_abelian_passes(self, abelian_rotation):
        g, j = abelian_rotation
        assert check_eigenspace_brackets(g, j)["pass"]

    def test_not_almost_complex_fails(self, abelian_rotation):
        # eigen_split raises on J^2 != -Id; the check reports a failure
        g, _ = abelian_rotation
        rep = check_eigenspace_brackets(g, JStructure([[ONE, ZERO], [ZERO, ONE]]))
        assert rep == {"pass": False, "check": "J^2=-Id", "witness": None}

    def test_counterexample_fails(self, bad_j_gl11):
        g, j = bad_j_gl11
        rep = check_eigenspace_brackets(g, j)
        assert not rep["pass"]
        assert rep["witness"] is not None


class TestComplexify:
    def test_empty_ideal_scalar_extension(self, gl11):
        g, _, _ = gl11
        pair = complexify(g, ())
        assert isinstance(pair, ComplexifiedPair)
        assert pair.algebra.dim == g.dim
        assert pair.jacobi_report["pass"]

    def test_restriction_doubles_dimension(self, gl11):
        g, _, _ = gl11
        pair = complexify(g, ())
        real, j = realify(pair.algebra)
        assert real.dim == 2 * g.dim
        # realify's table is trusted, not re-checked when it is built
        assert check_structure(real)["pass"]
        assert check_jacobi(real)["pass"]
        assert validate_J(real, j)["pass"]

    def test_central_ideal_quotient(self, gl11):
        g, _, _ = gl11
        i11, i22 = g.names.index("E11"), g.names.index("E22")
        z = {i11: ONE, i22: ONE}  # the center of gl(1|1)
        pair = complexify(g, [z])
        assert pair.algebra.dim == g.dim - 1
        assert pair.jacobi_report["pass"]
        assert check_structure(pair.algebra)["pass"]
        # brackets among surviving generators are untouched mod the ideal
        q = pair.algebra
        e12, e21 = q.names.index("E12"), q.names.index("E21")
        # [E12, E21] = E11 + E22 = 0 in the quotient
        assert q.bracket(e12, e21) == {}
        # brackets not touching the ideal are unchanged
        e22 = q.names.index("E22")
        assert q.bracket(e22, e12) == {e12: gr(-1)}

    def test_odd_generator_rejected(self, gl11):
        g, _, _ = gl11
        i12 = g.names.index("E12")
        with pytest.raises(NotAnIdeal):
            complexify(g, [i12])

    def test_non_ideal_rejected(self, gl11):
        g, _, _ = gl11
        i11 = g.names.index("E11")
        with pytest.raises(NotAnIdeal):
            complexify(g, [i11])


class TestRealify:
    def test_bracket_oracle(self, gl11):
        # [V_a, i V_b] = i [V_a, V_b] expanded over the doubled basis
        g, _, _ = gl11
        real, _ = realify(g)
        n = g.dim
        for a in range(n):
            for b in range(n):
                br = g.bracket(a, b)
                got = real.bracket(a, n + b)
                want = {}
                for k, c in br.items():
                    ic = c * I
                    if ic.re:
                        want[k] = gr(ic.re)
                    if ic.im:
                        want[n + k] = gr(ic.im)
                assert got == want
