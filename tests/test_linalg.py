import pickle
from fractions import Fraction
from itertools import combinations

import pytest

from superalg.liealg import build_gl
from superalg.linalg import SparseSum, add_term, det, identity, inv, mat_mul, rref
from superalg.pbw import PBWElement
from superalg.sampling import rand_scalar, rand_torus_rational, rng
from superalg.scalars import gr, ONE, ZERO
from superalg.smash import SmashAlgebra, SmashElement, TensorElement, TorusElement
from superalg.torus import LaurentPoly, TorusRational, sinh_half


def test_add_term_accumulates():
    out = {}
    add_term(out, "x", gr(1))
    add_term(out, "x", gr(0, 2))
    assert out == {"x": gr(1, 2)}


def test_add_term_cancellation_removes_key():
    out = {"x": gr(Fraction(3, 2)), "y": gr(1)}
    add_term(out, "x", gr(Fraction(-3, 2)))
    assert out == {"y": gr(1)}


def test_add_term_zero_on_absent_key_stores_nothing():
    out = {}
    add_term(out, "x", ZERO)
    assert out == {}


def test_add_term_torus_coefficients():
    s = sinh_half(2, (1, -1))
    out = {}
    add_term(out, (0, 1), s)
    add_term(out, (0, 1), s * 2)
    assert out == {(0, 1): s * 3}
    add_term(out, (0, 1), -(s * 3))
    assert out == {}
    add_term(out, (1, 0), TorusRational.zero(2))
    assert out == {}


def test_det_of_the_empty_matrix_is_the_empty_product():
    assert det([]) == ONE
    assert det(()) == ONE


# The fraction-full forward elimination det and the Gauss-Jordan inverse on
# [A | I] that det and inv had before they read one reduction, kept as
# oracles.


def oracle_det(a):
    n = len(a)
    if n == 0:
        return ONE
    m = [list(row) for row in a]
    sign = 1
    acc = None
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if piv is None:
            return ZERO
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pivot = m[col][col]
        acc = pivot if acc is None else acc * pivot
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            f = m[r][col] / pivot
            for c in range(col, n):
                m[r][c] = m[r][c] - f * m[col][c]
    return acc if sign > 0 else -acc


def oracle_inv(a):
    n = len(a)
    m = [list(row) + unit for row, unit in zip(a, identity(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pivot = m[col][col]
        m[col] = [x / pivot for x in m[col]]
        for r in range(n):
            if r != col and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def rand_sparse(r, rows, cols):
    """A Q(i) matrix with about half its entries zero."""
    return [[rand_scalar(r) if r.random() < 0.5 else ZERO for _ in range(cols)] for _ in range(rows)]


def zeros(n):
    return [[ZERO] * n for _ in range(n)]


def rand_matrices(seed):
    """(matrix, rank bound) pairs of every size 0..6: full random ones, and
    products of n x k and k x n factors, of rank at most k < n."""
    r = rng(seed)
    out = []
    for n in range(7):
        out.append((rand_sparse(r, n, n), n))
        out.append((zeros(n), 0))
        for k in range(1, n):
            out.append((mat_mul(rand_sparse(r, n, k), rand_sparse(r, k, n)), k))
    return out


def rank_by_minors(a):
    """The size of a largest square submatrix with a nonzero oracle_det."""
    n = len(a)
    for k in range(n, 0, -1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                if not oracle_det([[a[i][j] for j in cols] for i in rows]).is_zero():
                    return k
    return 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_det_and_inv_match_the_oracles(seed):
    singular = 0
    for a, _ in rand_matrices(seed):
        assert det(a) == oracle_det(a)
        assert inv(a) == oracle_inv(a)
        singular += inv(a) is None
    assert singular >= 5  # rank-deficient matrices were among them


@pytest.mark.parametrize("seed", [1, 2])
def test_rref_is_the_reduced_echelon_form_of_the_right_rank(seed):
    for a, bound in rand_matrices(seed):
        red, pivots = rref(a)
        rank = len(pivots)
        assert rank <= bound and pivots == sorted(set(pivots))
        assert (rank == len(a)) == (not oracle_det(a).is_zero())
        if bound < len(a) or rank < len(a):
            assert rank == rank_by_minors(a)
        # every pivot column is a unit vector, a pivot row is zero left of
        # its pivot, and the rows below the rank are zero
        for i, p in enumerate(pivots):
            assert [row[p] for row in red] == [ONE if k == i else ZERO for k in range(len(a))]
            assert all(x.is_zero() for x in red[i][:p])
        assert all(x.is_zero() for row in red[rank:] for x in row)
        # A = A[:, pivots] R: the reduced rows span the rows of A
        left = [[row[p] for p in pivots] for row in a]
        assert a == (mat_mul(left, red[:rank]) if rank else zeros(len(a)))


def test_torus_function_matrices_match_the_oracles():
    r = rng(5)
    for _ in range(3):
        f, g, h, k = (rand_torus_rational(r, 2) for _ in range(4))
        a = [[f, g], [h, k]]
        assert det(a) == oracle_det(a) == f * k - g * h
        assert inv(a) == oracle_inv(a)
        assert (rref(a)[1] == [0, 1]) == (not det(a).is_zero())
        m = sinh_half(2, (1, -1))
        singular = [[f, g], [f * m, g * m]]
        assert det(singular).is_zero() and oracle_det(singular).is_zero()
        assert inv(singular) is None and oracle_inv(singular) is None
        assert len(rref(singular)[1]) == (0 if f.is_zero() and g.is_zero() else 1)


def dense_mat_mul(a, b):
    """The dense product mat_mul replaced: every output entry sums all k
    products, zeros included."""
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ZERO
            for s in range(k):
                acc = acc + a[i][s] * b[s][j]
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_mat_mul_matches_the_dense_product(seed):
    r = rng(seed)
    for n in range(5):
        for k in range(5):
            for m in range(1, 5):
                a, b = rand_sparse(r, n, k), rand_sparse(r, k, m)
                if n:
                    a[r.randrange(n)] = [ZERO] * k  # an all-zero row of a
                if k:
                    b[r.randrange(k)] = [ZERO] * m  # and one of b
                assert mat_mul(a, b) == dense_mat_mul(a, b)
    assert mat_mul([], []) == dense_mat_mul([], []) == []


def test_mat_mul_on_torus_functions_compares_equal_to_the_dense_product():
    r = rng(9)
    for _ in range(3):
        f, g, h = (rand_torus_rational(r, 2) for _ in range(3))
        zero = TorusRational.zero(2)
        a = [[f, ZERO, g], [zero, zero, zero], [h, f, ZERO]]
        b = [[g, ZERO], [zero, h], [f, f * g]]
        assert mat_mul(a, b) == dense_mat_mul(a, b)


# The four element kinds on the SparseSum base, each as (a constructor from
# a terms dict, three distinct keys).  Every key is given in its final form.
_A = TorusElement((gr(2), gr(3)))
_E = TorusElement.identity(2)
_X, _Y = (_A, ((0, 1),)), (_E, ())


def _kind(name, g, alg):
    return {
        "pbw": (lambda terms: PBWElement(g, terms), [((0, 1),), ((0, 1), (1, 2)), ()]),
        "smash": (lambda terms: SmashElement(alg, terms), [_X, _Y, (_A, ())]),
        "tensor": (lambda terms: TensorElement(alg, 2, terms), [(_X, _Y), (_Y, _X), (_Y, _Y)]),
        "laurent": (lambda terms: LaurentPoly(2, terms), [(1, 0), (0, -1), (0, 0)]),
    }[name]


@pytest.fixture(scope="module")
def spaces(gl11):
    g, _, rs = gl11
    return g, SmashAlgebra(g, rs)


@pytest.mark.parametrize("name", ["pbw", "smash", "tensor", "laurent"])
class TestSparseSumKinds:
    def test_constructor_drops_zeros(self, name, spaces):
        make, (k0, k1, k2) = _kind(name, *spaces)
        x = make({k0: gr(2), k1: ZERO, k2: gr(0, -1)})
        assert isinstance(x, SparseSum)
        assert x.terms == {k0: gr(2), k2: gr(0, -1)}
        assert make({k0: ZERO}).is_zero() and make({}).is_zero()

    def test_immutable(self, name, spaces):
        make, (k0, _, _) = _kind(name, *spaces)
        x = make({k0: ONE})
        for attr in ("terms", *type(x)._context):
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(x, attr, None)
        assert x.terms == {k0: ONE}

    def test_pickle_round_trip(self, name, spaces):
        make, (k0, k1, _) = _kind(name, *spaces)
        x = make({k0: gr(Fraction(1, 3), 2), k1: gr(-5)})
        back = pickle.loads(pickle.dumps(x))
        assert type(back) is type(x)
        assert back.terms == x.terms and hash(back) == hash(x)

    def test_sums_and_scaling(self, name, spaces):
        make, (k0, k1, k2) = _kind(name, *spaces)
        x = make({k0: gr(2), k1: gr(0, 1)})
        y = make({k1: gr(0, -1), k2: ONE})
        assert (x + y).terms == {k0: gr(2), k2: ONE}
        assert (x - x).is_zero() and (x + (-x)).is_zero()
        assert x - y == x + (-y)
        assert x.scale(2) == x + x == x * 2 == 2 * x and x.scale(ZERO).is_zero()
        assert x.scale(gr(0, 1)).terms == {k0: gr(0, 2), k1: gr(-1)}


def test_pbw_elements_of_two_algebra_objects_differ(gl11):
    g = gl11[0]
    other = build_gl(1, 1)[0]
    x, y = PBWElement(g, {((0, 1),): ONE}), PBWElement(other, {((0, 1),): ONE})
    assert x != y and x.terms == y.terms
    with pytest.raises(ValueError, match="different algebras"):
        x + y


def test_smash_elements_stay_equal_across_a_pickled_algebra(spaces):
    _, alg = spaces
    copy = pickle.loads(pickle.dumps(alg))
    assert copy is not alg
    assert SmashElement(alg, {_X: ONE}) == SmashElement(copy, {_X: ONE})


def test_zero_laurent_polys_in_different_variable_counts_differ():
    assert LaurentPoly(1) != LaurentPoly(2)
    assert LaurentPoly(2) == LaurentPoly(2, {(0, 0): ZERO})
    with pytest.raises(ValueError, match="mixed variable counts"):
        LaurentPoly.one(1) + LaurentPoly.one(2)


def test_tensor_elements_compare_legs(spaces):
    _, alg = spaces
    assert TensorElement(alg, 2) != TensorElement(alg, 3)
    assert TensorElement(alg, 2, {(_X, _Y): ONE}) == TensorElement(alg, 2, {(_X, _Y): ONE})
    with pytest.raises(ValueError, match="wrong number of legs"):
        TensorElement(alg, 3, {(_X, _Y): ONE})
