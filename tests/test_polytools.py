"""The sympy bridge answers a gcd with a constant operand, and a division by
a constant, without sympy; both must equal what sympy computes.  A division
by a non-constant polynomial recovers an exact quotient and refuses a
remainder.  A gcd of two homogeneous operands reaches sympy in one variable
fewer, and must still equal sympy's gcd in all of them."""

from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Poly

from superalg import _polytools as pt
from superalg.scalars import GaussianRational
from superalg.torus import LaurentPoly

PROPS = settings(derandomize=True, deadline=None, max_examples=60, database=None)
N = 3

small = st.integers(-4, 4)
scalar = st.builds(GaussianRational, small, small).filter(lambda c: not c.is_zero())
real_scalar = small.filter(bool).map(GaussianRational)
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


real_dict = st.dictionaries(exps, real_scalar, min_size=1, max_size=6)
non_constant = st.one_of(real_dict, term_dict).filter(lambda g: not pt.is_unit_dict(g))


@PROPS
@given(term_dict, non_constant)
def test_exact_division_recovers_the_factor_and_refuses_a_remainder(f, g):
    a = mul(f, g)
    off = pt._from_poly(pt._to_poly(a, N) + 1)  # the remainder 1 modulo g
    # the dividends are compared before any division, so a wrong one fails
    # here and not inside sympy
    assert a == (LaurentPoly(N, f) * LaurentPoly(N, g)).terms and off != a
    assert pt.poly_div_exact(a, g, N) == f
    with pytest.raises(ValueError, match="not exact"):
        pt.poly_div_exact(off, g, N)


def homogeneous(coefficient):
    """Homogeneous polynomials of degree 1 or 2: exponents (e0, e1, d - e0 - e1)."""

    def of_degree(d):
        exps = st.integers(0, d).flatmap(
            lambda e0: st.integers(0, d - e0).map(lambda e1: (e0, e1, d - e0 - e1)))
        return st.dictionaries(exps, coefficient, min_size=1, max_size=4)

    return st.sampled_from([1, 2]).flatmap(of_degree)


def mul(a, b):
    return pt._from_poly(pt._to_poly(a, N) * pt._to_poly(b, N))


def full_gcd(a, b):
    """sympy's gcd in all N variables, lex-least coefficient scaled to 1."""
    a_zi, b_zi = (pt._to_poly(x, N).clear_denoms(convert=True)[1] for x in (a, b))
    return pt._unit_normalized(pt._from_poly(a_zi.gcd(b_zi)))


def traced_gcd(a, b):
    """poly_gcd(a, b, N) and the generator count of each sympy gcd it made."""
    gens, gcd = [], vars(Poly)["gcd"]

    def counting(poly, *args, **kwargs):
        gens.append(len(poly.gens))
        return gcd(poly, *args, **kwargs)

    with mock.patch.object(Poly, "gcd", counting):
        return pt.poly_gcd(a, b, N), gens


def assert_is_the_gcd(a, b, g):
    assert pt._unit_normalized(g) == full_gcd(a, b)
    pt.poly_div_exact(a, g, N)  # raises unless g divides a
    pt.poly_div_exact(b, g, N)


@PROPS
@given(homogeneous(real_scalar), homogeneous(real_scalar), homogeneous(real_scalar))
def test_planted_real_factor_is_found_in_one_variable_fewer(f, g, h):
    a, b = mul(f, h), mul(g, h)
    result, gens = traced_gcd(a, b)
    assert gens == [N - 1]
    assert_is_the_gcd(a, b, result)


@PROPS
@given(homogeneous(scalar), homogeneous(scalar), homogeneous(scalar))
def test_planted_gaussian_factor_is_found_in_one_variable_fewer(f, g, h):
    a, b = mul(f, h), mul(g, h)
    an, bn = pt._unit_normalized(a), pt._unit_normalized(b)
    assume(not (pt._is_real(an) and pt._is_real(bn)))  # the Z[i] path
    result, gens = traced_gcd(a, b)
    assert gens == [N - 1]
    assert_is_the_gcd(a, b, result)


def test_common_power_of_the_last_variable_is_kept():
    x0, x1, x2 = ({tuple(int(i == k) for i in range(N)): GaussianRational(1)} for k in range(N))
    h = mul(x2, x2)
    a = mul(h, {**x0, **{(0, 0, 1): GaussianRational(0, 2)}})  # x2^2 (x0 + 2i x2)
    b = mul(mul(h, x2), x1)  # x2^3 x1
    result, gens = traced_gcd(a, b)
    assert gens == [N - 1] and result == h


@PROPS
@given(homogeneous(scalar), homogeneous(real_scalar), homogeneous(scalar))
def test_non_homogeneous_pair_takes_the_full_gcd(f, g, h):
    a = mul({**f, (0,) * N: GaussianRational(1)}, h)  # f + 1 has two degrees
    b = mul(g, h)
    result, gens = traced_gcd(a, b)
    assert gens == [N]
    assert_is_the_gcd(a, b, result)
