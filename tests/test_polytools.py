"""The sympy bridge answers a gcd with a constant operand, and a division by
a constant, without sympy; both must equal what sympy computes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from superalg import _polytools as pt
from superalg.scalars import GaussianRational

PROPS = settings(derandomize=True, deadline=None, max_examples=60, database=None)
N = 3

small = st.integers(-4, 4)
scalar = st.builds(GaussianRational, small, small).filter(lambda c: not c.is_zero())
exps = st.tuples(*[st.integers(0, 3)] * N)
term_dict = st.dictionaries(exps, scalar, min_size=1, max_size=6)
constant = scalar.map(lambda c: {(0,) * N: c})


def sympy_gcd(a, b):
    return pt._from_poly(pt._to_poly(a, N).gcd(pt._to_poly(b, N)))


def sympy_div(a, b):
    q, r = pt._to_poly(a, N).div(pt._to_poly(b, N))
    assert r.is_zero
    return pt._from_poly(q)


@PROPS
@given(term_dict, constant)
def test_gcd_with_a_constant_is_sympys(a, c):
    assert pt.poly_gcd(a, c, N) == sympy_gcd(a, c) == {(0,) * N: GaussianRational(1)}
    assert pt.poly_gcd(c, a, N) == sympy_gcd(c, a)


@PROPS
@given(term_dict, constant)
def test_division_by_a_constant_is_sympys(a, c):
    assert pt.poly_div_exact(a, c, N) == sympy_div(a, c)
