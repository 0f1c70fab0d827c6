import pickle
from fractions import Fraction

import pytest

from superalg.liealg import build_gl
from superalg.linalg import SparseSum, add_term, det
from superalg.pbw import PBWElement
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
