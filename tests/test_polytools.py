"""The sympy bridge answers a gcd with a constant operand, and a division by
a constant, without sympy; both must equal what sympy computes.  A division
by a non-constant polynomial recovers an exact quotient and refuses a
remainder.  A gcd proved 1 by its univariate image takes one sympy gcd in
one generator; any other gcd falls through to sympy's gcd in all N
variables, and every answer must equal that gcd."""

from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Poly, expand, symbols

from superalg import _polytools as pt
from superalg.scalars import GaussianRational, as_scalar
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


def traced_gcd(a, b, key=lambda poly: len(poly.gens)):
    """poly_gcd(a, b, N) and key(poly) of each sympy gcd it made: by default
    the generator count."""
    gens, gcd = [], vars(Poly)["gcd"]

    def counting(poly, *args, **kwargs):
        gens.append(key(poly))
        return gcd(poly, *args, **kwargs)

    with mock.patch.object(Poly, "gcd", counting):
        return pt.poly_gcd(a, b, N), gens


def assert_is_the_gcd(a, b, g):
    assert pt._unit_normalized(g) == full_gcd(a, b)
    pt.poly_div_exact(a, g, N)  # raises unless g divides a
    pt.poly_div_exact(b, g, N)


@PROPS
@given(homogeneous(real_scalar), homogeneous(real_scalar), homogeneous(real_scalar))
def test_planted_real_factor_falls_through_to_the_full_gcd(f, g, h):
    a, b = mul(f, h), mul(g, h)
    result, gens = traced_gcd(a, b)
    assert gens == [1, N]
    assert_is_the_gcd(a, b, result)


@PROPS
@given(homogeneous(scalar), homogeneous(scalar), homogeneous(scalar))
def test_planted_gaussian_factor_falls_through_to_the_full_gcd(f, g, h):
    a, b = mul(f, h), mul(g, h)
    an, bn = pt._unit_normalized(a), pt._unit_normalized(b)
    assume(not (pt._is_real(an) and pt._is_real(bn)))  # the Z[i] path
    result, gens = traced_gcd(a, b)
    assert gens == [1, N]
    assert_is_the_gcd(a, b, result)


def test_common_power_of_the_last_variable_is_kept():
    x0, x1, x2 = ({tuple(int(i == k) for i in range(N)): GaussianRational(1)} for k in range(N))
    h = mul(x2, x2)
    a = mul(h, {**x0, **{(0, 0, 1): GaussianRational(0, 2)}})  # x2^2 (x0 + 2i x2)
    b = mul(mul(h, x2), x1)  # x2^3 x1
    result, gens = traced_gcd(a, b)
    assert gens == [1, N] and result == h
    assert_is_the_gcd(a, b, result)


@PROPS
@given(homogeneous(scalar), homogeneous(real_scalar), homogeneous(scalar))
def test_non_homogeneous_pair_takes_the_full_gcd(f, g, h):
    a = mul({**f, (0,) * N: GaussianRational(1)}, h)  # f + 1 has two degrees
    b = mul(g, h)
    result, gens = traced_gcd(a, b)
    assert gens == [1, N]
    assert_is_the_gcd(a, b, result)


@PROPS
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4).flatmap(lambda g: st.tuples(
    st.just(g),
    st.dictionaries(st.tuples(*[st.integers(0, 4).map(lambda j, s=s: j * s) for s in g]),
                    st.integers(-10**40, 10**40), min_size=1, max_size=6))))
@example(([1], {(0,): 5}))  # a constant meets the digit bound exactly
@example(([2, 1], {(4, 0): 3, (2, 1): -7, (0, 0): 1}))
def test_image_is_the_substitution_into_the_line(case):
    # the image packs its coefficients as digits of one integer; sympy's
    # substitution is the reference
    g, terms = case
    x, y = symbols(f"x0:{len(g)}"), symbols("y")
    line = {x[k]: c * y + d for k, (c, d) in enumerate(pt.LINE[:len(g)])}
    expr = sum(v * Poly({tuple(j // s for j, s in zip(e, g)): 1}, *x).as_expr()
               for e, v in terms.items())
    want = Poly(expand(expr.subs(line, simultaneous=True)), y).all_coeffs()[::-1]
    while want and not want[-1]:
        want.pop()
    assert pt._image(terms, g) == [int(w) for w in want]


def monomial(coefficient, *exps):
    return {tuple(exps): as_scalar(coefficient)}


def product(*factors):
    """The product of term-dicts, by LaurentPoly's own product: no sympy."""
    out = LaurentPoly.one(N)
    for f in factors:
        out = out * LaurentPoly(N, f)
    return out.terms


def assert_planted(a, b, common):
    """poly_gcd(a, b) is common up to a unit: compared before sympy sees the
    result, so that a wrong answer fails here."""
    result = pt.poly_gcd(a, b, N)
    assert pt._unit_normalized(result) == pt._unit_normalized(common)
    assert_is_the_gcd(a, b, result)


def test_a_factor_whose_top_part_vanishes_on_the_line_is_found():
    # G = c1 x0 - c0 x1 + 1: G_top vanishes at c, so phi(G) is a constant
    # and the images of a = G (x2 + 1) and b = G (x2 - 1) are coprime; only
    # the degree condition stops the certificate from answering 1
    (c0, _), (c1, _) = pt.LINE[:2]
    common = {**monomial(c1, 1, 0, 0), **monomial(-c0, 0, 1, 0), **monomial(1, 0, 0, 0)}
    a = product(common, {**monomial(1, 0, 0, 1), **monomial(1, 0, 0, 0)})
    b = product(common, {**monomial(1, 0, 0, 1), **monomial(-1, 0, 0, 0)})
    assert not pt._coprime_by_image(a, b, N)
    assert_planted(a, b, common)


def test_deflation_divides_every_exponent_of_both_operands():
    # x0 has exponents 2 in a and 3 in b: deflating x0^2 -> x0 would map
    # a = x0^2 - 1 to x0 - 1 and b = x0^3 + 1 to x0 + 1, coprime, though
    # both are divisible by x0 + 1
    common = {**monomial(1, 1, 0, 0), **monomial(1, 0, 0, 0)}
    a = product(common, {**monomial(1, 1, 0, 0), **monomial(-1, 0, 0, 0)})
    b = product(common, {**monomial(1, 2, 0, 0), **monomial(-1, 1, 0, 0), **monomial(1, 0, 0, 0)})
    assert a == {**monomial(1, 2, 0, 0), **monomial(-1, 0, 0, 0)}
    assert b == {**monomial(1, 3, 0, 0), **monomial(1, 0, 0, 0)}
    assert_planted(a, b, common)


@pytest.mark.parametrize("unit", [GaussianRational(1), GaussianRational(2, -3)],
                         ids=["real", "gaussian"])
def test_even_exponents_deflate_and_keep_the_planted_factor(unit):
    # every exponent is even, as in the gamma closed form: the certificate
    # deflates by 2 in each variable and must still see the common factor
    common = {**monomial(1, 2, 0, 0), **monomial(unit, 0, 2, 0)}
    a = product(common, {**monomial(1, 0, 0, 2), **monomial(3, 2, 0, 0)})
    b = product(common, {**monomial(1, 0, 2, 0), **monomial(-1, 0, 0, 4)})
    assert all(x % 2 == 0 for e in (*a, *b) for x in e)
    result, gens = traced_gcd(a, b)
    assert gens == [1, N]
    assert pt._unit_normalized(result) == pt._unit_normalized(common)
    assert_is_the_gcd(a, b, result)


@pytest.mark.parametrize("unit, domain", [(GaussianRational(1), "QQ"),
                                          (GaussianRational(0, 1), "QQ_I")],
                         ids=["real", "gaussian"])
def test_coprime_pair_is_one_univariate_gcd(unit, domain):
    a = product({**monomial(1, 2, 0, 0), **monomial(unit, 0, 2, 0)}, monomial(1, 0, 0, 2))
    b = {**monomial(1, 0, 0, 4), **monomial(-1, 4, 0, 0), **monomial(5, 0, 2, 2)}
    result, calls = traced_gcd(a, b, key=lambda poly: (len(poly.gens), str(poly.domain)))
    assert calls == [(1, domain)] and result == {(0,) * N: GaussianRational(1)}
    assert full_gcd(a, b) == result


@PROPS
@given(st.one_of(real_dict, term_dict), st.one_of(real_dict, term_dict))
def test_every_answer_is_the_full_gcd(a, b):
    # random pairs are mostly coprime: a certified 1 must be the gcd, and
    # a refused certificate must fall through to the gcd in all N variables
    result, gens = traced_gcd(a, b)
    assert gens in ([], [1], [1, N], [N])
    if gens == [1]:
        assert result == {(0,) * N: GaussianRational(1)}
    assert_is_the_gcd(a, b, result)


def test_more_variables_than_lines_take_the_full_gcd():
    n = len(pt.LINE) + 1
    a = {tuple(int(i == k) for i in range(n)): GaussianRational(1) for k in range(n)}
    b = {(2,) + (0,) * (n - 1): GaussianRational(1), (0,) * n: GaussianRational(-1)}
    assert not pt._coprime_by_image(a, b, n)
    assert pt.poly_gcd(a, b, n) == {(0,) * n: GaussianRational(1)}
