from fractions import Fraction

import pytest

from superalg.errors import SingularOddBlock
from superalg.sampling import rand_graded_supermatrix, rng
from superalg.scalars import gr, ONE, ZERO
from superalg.supermatrix import SuperMatrix, berezinian
from superalg.torus import TorusRational, sinh_half


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

        f_inv_full = inv(f.full(), ZERO, ONE)
        conj = mat_mul(mat_mul(f_inv_full, m.full(), ZERO), f.full(), ZERO)
        m2 = SuperMatrix.from_full(2, 2, conj)
        assert berezinian(m2) == berezinian(m)


def test_torus_entries():
    s = sinh_half(2, (1, -1))
    one = TorusRational.one(2)
    m = SuperMatrix.diagonal([s * s], [s], zero=TorusRational.zero(2), one=one)
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
    m = SuperMatrix.diagonal([s * s], [s], zero=TorusRational.zero(2), one=TorusRational.one(2))
    assert berezinian(pickle.loads(pickle.dumps(m))) == s
