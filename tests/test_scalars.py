import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superalg.scalars import GaussianRational, I, ONE, ZERO, from_parts, gr

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


# -- differential tests against a Fraction-pair reference --------------------

wide = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)) | st.integers(
    -10**20, 10**20
).map(Fraction)
pairs = st.tuples(wide, wide)


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_pow(x, k):
    if k < 0:
        return ref_pow(ref_inverse(x), -k)
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = ref_mul(out, x)
    return out


def as_pair(g):
    return (g.re, g.im)


def assert_reduced(g):
    a, b, d = g.parts()
    assert d > 0 and gcd(a, b, d) == 1
    assert as_pair(g) == (Fraction(a, d), Fraction(b, d))


@given(pairs, pairs)
def test_arithmetic_matches_fraction_pairs(x, y):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    cases = [
        (gx + gy, (x[0] + y[0], x[1] + y[1])),
        (gx - gy, (x[0] - y[0], x[1] - y[1])),
        (gx * gy, ref_mul(x, y)),
        (-gx, (-x[0], -x[1])),
        (gx.conjugate(), (x[0], -x[1])),
        (gx + y[0], (x[0] + y[0], x[1])),
        (y[0] - gx, (y[0] - x[0], -x[1])),
        (gx * y[1], (x[0] * y[1], x[1] * y[1])),
    ]
    if any(y):
        cases.append((gx / gy, ref_mul(x, ref_inverse(y))))
        cases.append((gy.inverse(), ref_inverse(y)))
    if y[0]:
        cases.append((gx / y[0], (x[0] / y[0], x[1] / y[0])))
    if any(x):
        cases.append((y[0] / gx, ref_mul((y[0], Fraction(0)), ref_inverse(x))))
    for got, want in cases:
        assert_reduced(got)
        assert as_pair(got) == want
        assert got == GaussianRational(*want)
        assert hash(got) == hash(want)


@given(pairs, st.integers(-4, 6))
def test_pow_matches_fraction_pairs(x, k):
    gx = GaussianRational(*x)
    if k < 0 and not any(x):
        return
    got = gx ** k
    assert_reduced(got)
    assert as_pair(got) == ref_pow(x, k)


@given(pairs)
def test_components_json_and_equality(x):
    g = GaussianRational(*x)
    assert_reduced(g)
    assert as_pair(g) == x
    assert g.to_json() == [x[0].numerator, x[0].denominator, x[1].numerator, x[1].denominator]
    assert (g == x[0]) == (not x[1])
    assert (g == int(x[0])) == (not x[1] and x[0].denominator == 1)
    assert g.is_zero() == (not any(x))
    assert g.is_real() == (not x[1])
    assert g.is_one() == (x == (1, 0))


@given(pairs)
def test_hash_equals_hash_of_fraction_pair(x):
    assert hash(GaussianRational(*x)) == hash(x)


def test_hash_at_the_modulus():
    # a denominator divisible by the hash modulus has no inverse there;
    # Fraction hashes it as sys.hash_info.inf
    p = sys.hash_info.modulus
    for x in [
        (Fraction(1, p), Fraction(0)),
        (Fraction(-3, 2 * p), Fraction(1, 7)),
        (Fraction(p, 3), Fraction(-p - 1, 5)),
        (Fraction(-1), Fraction(-2)),
    ]:
        assert hash(GaussianRational(*x)) == hash(x)


@given(pairs)
def test_immutable(x):
    g = GaussianRational(*x)
    for name in ("re", "im", "_t", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
    assert as_pair(g) == x


@given(pairs)
def test_pickle_round_trip(x):
    import pickle

    g = GaussianRational(*x)
    hash(g)  # a cached hash must not leak into the pickle
    back = pickle.loads(pickle.dumps(g))
    assert_reduced(back)
    assert back == g and hash(back) == hash(x) and as_pair(back) == x
    assert back.to_json() == g.to_json()


def test_from_parts_reduces():
    assert from_parts(4, -6, 8).parts() == (2, -3, 4)
    assert from_parts(0, 0, 9).parts() == (0, 0, 1)
    with pytest.raises(ValueError):
        from_parts(1, 1, 0)
