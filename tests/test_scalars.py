from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from superalg.scalars import GaussianRational, I, ONE, ZERO, gr

fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
scalars = st.builds(GaussianRational, fractions, fractions)
nonzero = scalars.filter(lambda x: not x.is_zero())


def test_basic_values():
    assert gr(1).is_one()
    assert gr(0).is_zero()
    assert I * I == gr(-1)
    assert str(gr(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"


def test_lowest_terms_invariant():
    x = gr(Fraction(2, 4), Fraction(-6, 8))
    assert x.re == Fraction(1, 2) and x.re.denominator == 2
    assert x.im.denominator == 4 and x.im.denominator > 0


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@given(nonzero)
def test_field_inverse(a):
    assert (a * a.inverse()).is_one()
    assert (ONE / a) * a == ONE


@given(scalars, nonzero)
def test_division_roundtrip(a, b):
    assert (a / b) * b == a


@given(scalars)
def test_conjugation_norm(a):
    n = a * a.conjugate()
    assert n.im == 0
    assert n.re >= 0


@given(scalars)
def test_pow_and_neg(a):
    assert a ** 2 == a * a
    assert a ** 0 == ONE
    assert -(-a) == a
    if not a.is_zero():
        assert a ** -1 == a.inverse()


@given(scalars)
def test_json_roundtrip(a):
    assert GaussianRational.from_json(a.to_json()) == a


def test_hash_consistency():
    assert hash(gr(Fraction(1, 2))) == hash(gr(Fraction(2, 4)))
    d = {gr(1, 2): "x"}
    assert d[gr(1, 2)] == "x"


def test_interop_with_int_and_fraction():
    assert gr(3) + 1 == gr(4)
    assert 2 * gr(1, 1) == gr(2, 2)
    assert gr(1) / 2 == gr(Fraction(1, 2))
    assert Fraction(1, 3) + gr(Fraction(2, 3)) == ONE


@given(scalars)
def test_pickle_round_trip(x):
    import pickle

    y = pickle.loads(pickle.dumps(x))
    assert y == x and hash(y) == hash(x)
    assert y.to_json() == x.to_json()
