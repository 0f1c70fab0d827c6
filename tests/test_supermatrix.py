import pickle
from fractions import Fraction

import pytest

from superalg.errors import SingularOddBlock
from superalg.linalg import det, inv, mat_mul
from superalg.sampling import rand_scalar, rand_torus_rational, rng
from superalg.scalars import gr, ONE, ZERO
from superalg.supermatrix import SuperMatrix
from superalg.torus import TorusRational, sinh_half

SHAPES = [(0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]


def rand_invertible(r, n):
    """Random invertible n x n matrix over Q(i) by rejection."""
    while True:
        rows = [[rand_scalar(r) for _ in range(n)] for _ in range(n)]
        if not det(rows).is_zero():
            return rows


def rand_supermatrix(r, p, q):
    """Random invertible even (p|q) supermatrix: over the purely even Q(i)
    that is a pair of invertible blocks."""
    return SuperMatrix(rand_invertible(r, p), rand_invertible(r, q))


def full(m):
    """The (p+q) x (p+q) matrix, zero off the diagonal blocks."""
    return [list(row) + [ZERO] * m.q for row in m.a] + [[ZERO] * m.p + list(row) for row in m.d]


def schur_berezinian(a, b, c, d):
    """det(A - B D^-1 C) / det(D) through the Schur complement: the general
    Berezinian of [[A, B], [C, D]], a reference that inverts D."""
    if not d:
        return det(a)
    dinv = inv(d)
    if dinv is None:
        raise SingularOddBlock("odd-odd block is singular")
    if not a:
        return ONE / det(d)
    bc = mat_mul(mat_mul(b, dinv), c)
    return det([[a[i][j] - bc[i][j] for j in range(len(a))] for i in range(len(a))]) / det(d)


def test_identity_berezinian():
    for p, q in [(1, 1), (2, 1), (2, 2), (3, 2), (2, 0), (0, 2)]:
        assert SuperMatrix.identity(p, q).berezinian() == ONE


def test_diagonal_1_1():
    m = SuperMatrix([[gr(Fraction(3, 2))]], [[gr(Fraction(5, 7))]])
    assert m.berezinian() == gr(Fraction(3, 2)) / gr(Fraction(5, 7))


def test_shape_is_read_off_the_blocks():
    for p, q in SHAPES:
        m = rand_supermatrix(rng(p + 10 * q), p, q)
        assert (m.p, m.q) == (p, q)


def test_purely_even_and_purely_odd_shapes():
    a = [[gr(2), gr(1)], [gr(0, 1), gr(3)]]
    d = [[gr(5), gr(1)], [gr(2), gr(Fraction(7, 3))]]
    assert SuperMatrix(a, []).berezinian() == det(a)
    assert SuperMatrix([], d).berezinian() == ONE / det(d)


def test_singular_odd_block():
    with pytest.raises(SingularOddBlock):
        SuperMatrix([[ONE]], [[ZERO]]).berezinian()
    d = [[gr(1), gr(2)], [gr(2), gr(4)]]  # rank 1
    for a in ([[ONE, ZERO], [ZERO, ONE]], []):
        with pytest.raises(SingularOddBlock):
            SuperMatrix(a, d).berezinian()


def test_multiplicativity_random_graded_pairs():
    r = rng(314)
    for p, q in SHAPES:
        for _ in range(20):
            m1, m2 = rand_supermatrix(r, p, q), rand_supermatrix(r, p, q)
            assert (m1 * m2).berezinian() == m1.berezinian() * m2.berezinian(), (p, q)


def test_product_is_the_full_matrix_product():
    r = rng(5)
    for p, q in SHAPES:
        m1, m2 = rand_supermatrix(r, p, q), rand_supermatrix(r, p, q)
        assert full(m1 * m2) == mat_mul(full(m1), full(m2)), (p, q)
    with pytest.raises(ValueError):
        rand_supermatrix(r, 2, 1) * rand_supermatrix(r, 1, 2)


def test_conjugation_invariance():
    # F^-1 M F for an even (block-diagonal) F conjugates each block alone
    r = rng(218)
    for p, q in [(1, 1), (2, 2), (3, 1)]:
        for _ in range(10):
            m, f = rand_supermatrix(r, p, q), rand_supermatrix(r, p, q)
            conj = SuperMatrix(
                mat_mul(mat_mul(inv(f.a), m.a), f.a), mat_mul(mat_mul(inv(f.d), m.d), f.d)
            )
            assert conj.berezinian() == m.berezinian()


def test_torus_entries():
    s = sinh_half(2, (1, -1))
    assert SuperMatrix([[s * s]], [[s]]).berezinian() == s
    r = rng(2222)
    checked = 0
    for p, q in [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2)]:
        for _ in range(3):
            a = [[rand_torus_rational(r, 2, max_terms=2) for _ in range(p)] for _ in range(p)]
            d = [[rand_torus_rational(r, 2, max_terms=2) for _ in range(q)] for _ in range(q)]
            if det(d).is_zero():
                continue
            # with commuting entries det(M) = det(A) det(D): one elimination
            # of the full matrix
            m = SuperMatrix(a, d)
            assert m.berezinian() == det(full(m)) / det(d) ** 2, (p, q)
            checked += 1
    assert checked >= 10


def test_shape_validation():
    with pytest.raises(ValueError):
        SuperMatrix([[ONE, ONE]], [[ONE]])
    with pytest.raises(ValueError):
        SuperMatrix([[ONE]], [[ONE], [ONE]])


def test_immutable():
    m = SuperMatrix.identity(1, 1)
    with pytest.raises(AttributeError):
        m.a = ()


def test_pickle_round_trip():
    r = rng(9)
    for p, q in SHAPES:
        m = rand_supermatrix(r, p, q)
        back = pickle.loads(pickle.dumps(m))
        assert back == m and hash(back) == hash(m)
        assert back.berezinian() == m.berezinian()
    s = sinh_half(2, (1, -1))
    m = SuperMatrix([[s * s]], [[s]])
    assert pickle.loads(pickle.dumps(m)).berezinian() == s


class TestZeroBlockShortcut:
    """Over an even ring the off-diagonal blocks of an even supermatrix are
    zero, so det(A)/det(D) is the whole Berezinian: it agrees with the
    general Schur-complement formula, which inverts D."""

    def test_matches_schur_path_on_torus_entries(self):
        r = rng(2222)
        zero = TorusRational.zero(2)

        def block(rows, cols):
            return [[rand_torus_rational(r, 2, max_terms=2) for _ in range(cols)]
                    for _ in range(rows)]

        checked = 0
        for p, q in [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2)]:
            for _ in range(9):
                a, d = block(p, p), block(q, q)
                if q and det(d).is_zero():
                    continue
                b = [[zero] * q for _ in range(p)]
                c = [[zero] * p for _ in range(q)]
                assert SuperMatrix(a, d).berezinian() == schur_berezinian(a, b, c, d), (p, q)
                checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("b, c", [(ZERO, ZERO), (gr(2), ZERO), (ZERO, gr(2)), (gr(2), gr(3))])
    def test_singular_D_raises_on_every_path(self, b, c):
        # b and c fill the off-diagonal entries of A (identity, upper, lower,
        # full) for berezinian, and the off-diagonal blocks for the reference
        d = [[gr(1), gr(2)], [gr(2), gr(4)]]  # rank 1
        a = [[ONE, b], [c, ONE]]
        with pytest.raises(SingularOddBlock):
            SuperMatrix(a, d).berezinian()
        with pytest.raises(SingularOddBlock):
            schur_berezinian(a, [[b, ZERO], [ZERO, b]], [[c, ZERO], [ZERO, c]], d)
        with pytest.raises(SingularOddBlock):
            SuperMatrix([], d).berezinian()
