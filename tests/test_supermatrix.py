from fractions import Fraction

import pytest

import superalg.supermatrix as supermatrix
from superalg.errors import SingularOddBlock
from superalg.linalg import det, inv, mat_mul
from superalg.sampling import rand_graded_supermatrix, rand_torus_rational, rng
from superalg.scalars import gr, I, ONE, ZERO
from superalg.supermatrix import SuperMatrix, berezinian
from superalg.torus import TorusRational, sinh_half


def schur_berezinian(m):
    """det(A - B D^-1 C) / det(D) through the Schur complement, whatever
    the blocks: the path berezinian takes only when B and C are both
    nonzero."""
    if m.q == 0:
        return det(m.a)
    dinv = inv(m.d)
    if dinv is None:
        raise SingularOddBlock("odd-odd block is singular")
    det_d = det(m.d)
    if m.p == 0:
        return ONE / det_d
    bc = mat_mul(mat_mul(m.b, dinv), m.c)
    return det([[m.a[i][j] - bc[i][j] for j in range(m.p)] for i in range(m.p)]) / det_d


def test_identity_berezinian():
    for p, q in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        assert berezinian(SuperMatrix.identity(p, q)) == ONE


def test_diagonal_1_1():
    m = SuperMatrix.diagonal([gr(Fraction(3, 2))], [gr(Fraction(5, 7))])
    assert berezinian(m) == gr(Fraction(3, 2)) / gr(Fraction(5, 7))


def test_singular_odd_block():
    m = SuperMatrix.diagonal([ONE], [ZERO])
    with pytest.raises(SingularOddBlock):
        berezinian(m)


def test_multiplicativity_random_graded_pairs():
    # over a purely even scalar field the graded-even supermatrices are
    # block-diagonal; one-sided block-triangular pairs multiply within
    # their family and are covered too
    r = rng(314)
    for p, q in [(1, 1), (2, 1), (2, 2)]:
        for shape in ("diagonal", "upper", "lower"):
            for _ in range(50):
                m1 = rand_graded_supermatrix(r, p, q, shape)
                m2 = rand_graded_supermatrix(r, p, q, shape)
                lhs = berezinian(m1 * m2)
                rhs = berezinian(m1) * berezinian(m2)
                assert lhs == rhs, (p, q, shape)


def test_full_block_formula():
    # (1|1) with all four blocks: ber = (a - b d^-1 c)/d
    a, b, c, d = gr(3), gr(2), gr(5), gr(7)
    m = SuperMatrix(1, 1, [[a]], [[b]], [[c]], [[d]])
    assert berezinian(m) == (a - b * c / d) / d


def test_conjugation_invariance():
    r = rng(218)
    for _ in range(20):
        m = rand_graded_supermatrix(r, 2, 2, "diagonal")
        f = rand_graded_supermatrix(r, 2, 2, "diagonal")
        from superalg.linalg import inv, mat_mul

        f_inv_full = inv(f.full())
        conj = mat_mul(mat_mul(f_inv_full, m.full()), f.full())
        m2 = SuperMatrix.from_full(2, 2, conj)
        assert berezinian(m2) == berezinian(m)


def test_torus_entries():
    s = sinh_half(2, (1, -1))
    m = SuperMatrix.diagonal([s * s], [s])
    assert berezinian(m) == s


def test_shape_validation():
    with pytest.raises(ValueError):
        SuperMatrix(1, 1, [[ONE, ONE]], [[ZERO]], [[ZERO]], [[ONE]])


def test_pickle_round_trip():
    import pickle

    m = SuperMatrix(1, 1, [[gr(3)]], [[gr(2, 1)]], [[gr(5)]], [[gr(Fraction(7, 2))]])
    back = pickle.loads(pickle.dumps(m))
    assert back == m and hash(back) == hash(m)
    assert berezinian(back) == berezinian(m)
    s = sinh_half(2, (1, -1))
    m = SuperMatrix.diagonal([s * s], [s])
    assert berezinian(pickle.loads(pickle.dumps(m))) == s


class TestZeroBlockShortcut:
    SHAPES = [(0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]

    def test_matches_schur_path_on_graded_matrices(self):
        r = rng(1111)
        for p, q in self.SHAPES:
            for shape in ("diagonal", "upper", "lower"):
                for _ in range(20):
                    m = rand_graded_supermatrix(r, p, q, shape)
                    assert berezinian(m) == schur_berezinian(m), (p, q, shape)

    def test_matches_schur_path_on_torus_entries(self):
        r = rng(2222)
        zero = TorusRational.zero(2)

        def block(rows, cols):
            return [[rand_torus_rational(r, 2, max_terms=2) for _ in range(cols)]
                    for _ in range(rows)]

        checked = 0
        for p, q in [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2)]:
            for shape in ("diagonal", "upper", "lower"):
                for _ in range(3):
                    d = block(q, q)
                    if q and det(d).is_zero():
                        continue
                    b = block(p, q) if shape == "upper" else [[zero] * q for _ in range(p)]
                    c = block(q, p) if shape == "lower" else [[zero] * p for _ in range(q)]
                    m = SuperMatrix(p, q, block(p, p), b, c, d)
                    assert berezinian(m) == schur_berezinian(m), (p, q, shape)
                    checked += 1
        assert checked >= 30

    def test_general_path_with_both_off_diagonal_blocks(self):
        # with commuting entries det(M) = det(D) det(A - B D^-1 C), so
        # Ber = det(M) / det(D)^2: one elimination of the full matrix,
        # sharing no step with the Schur complement
        a = [[gr(2), gr(1)], [gr(0, 1), gr(3)]]
        b = [[gr(1), gr(-2)], [gr(Fraction(1, 2)), I]]
        c = [[gr(3), gr(0)], [gr(-1), gr(1, 1)]]
        d = [[gr(5), gr(1)], [gr(2), gr(Fraction(7, 3))]]
        m = SuperMatrix(2, 2, a, b, c, d)
        want = det(m.full()) / det(d) ** 2
        assert berezinian(m) == want == schur_berezinian(m)
        assert want != det(a) / det(d)  # B D^-1 C is not zero here

    def test_only_the_general_path_inverts_D(self, monkeypatch):
        calls = []

        def counting_inv(*args):
            calls.append("inv")
            return inv(*args)

        def counting_mat_mul(*args):
            calls.append("mat_mul")
            return mat_mul(*args)

        monkeypatch.setattr(supermatrix, "inv", counting_inv)
        monkeypatch.setattr(supermatrix, "mat_mul", counting_mat_mul)
        r = rng(3)
        for shape in ("diagonal", "upper", "lower"):
            berezinian(rand_graded_supermatrix(r, 2, 2, shape))
        assert calls == []
        berezinian(SuperMatrix(1, 1, [[gr(3)]], [[gr(2)]], [[gr(5)]], [[gr(7)]]))
        assert calls == ["inv", "mat_mul", "mat_mul"]

    @pytest.mark.parametrize("b, c", [(ZERO, ZERO), (gr(2), ZERO), (ZERO, gr(2)), (gr(2), gr(3))])
    def test_singular_D_raises_on_every_path(self, b, c):
        d = [[gr(1), gr(2)], [gr(2), gr(4)]]  # rank 1
        m = SuperMatrix(2, 2, [[ONE, ZERO], [ZERO, ONE]], [[b, ZERO], [ZERO, b]],
                        [[c, ZERO], [ZERO, c]], d)
        with pytest.raises(SingularOddBlock):
            berezinian(m)
        with pytest.raises(SingularOddBlock):
            schur_berezinian(m)
        with pytest.raises(SingularOddBlock):
            berezinian(SuperMatrix(0, 2, [], [], [[], []], d))
