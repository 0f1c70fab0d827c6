"""Seeded random generators for property checks and CLI suites.

The PRNG is Python's Mersenne Twister via random.Random(seed); with a fixed
seed every sampled object, and therefore every report, is reproducible
byte for byte.

This module imports pbw, smash and torus; smash imports it only inside
check_hopf_axioms, which keeps the two modules out of an import cycle.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import SingularPoint
from .pbw import PBWElement, monomial_of_sorted_word, normalize_terms
from .scalars import GaussianRational, ONE, from_parts, gr
from .smash import SmashElement
from .torus import LaurentPoly, TorusElement, TorusRational

# small nonzero values used for torus coordinates; chosen so products and
# quotients stay small while still exercising non-unit denominators
_COORD_POOL = [
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(5, 2),
    Fraction(-1),
    Fraction(-2),
    Fraction(-1, 2),
    Fraction(3, 2),
]
# the same values as scalars, in the same order, so r.choice draws the same
# stream and no Fraction is converted per draw
_COORD_SCALARS = [gr(x) for x in _COORD_POOL]


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rand_scalar(r: random.Random, complex_prob: float = 0.5) -> GaussianRational:
    """a/d + (b/e) i with |a|, |b| <= 4 and 1 <= d, e <= 3, drawn in the
    order a, d, then b, e with probability complex_prob (b = 0 otherwise);
    built from the integers, with no Fraction."""
    a, d = r.randint(-4, 4), r.randint(1, 3)
    if r.random() < complex_prob:
        b, e = r.randint(-4, 4), r.randint(1, 3)
        return from_parts(a * e, b * d, d * e)
    return from_parts(a, 0, d)


def rand_torus_coords(r: random.Random, t: int):
    return tuple(r.choice(_COORD_SCALARS) for _ in range(t))


def regular_points(rs, count: int, seed: int) -> list:
    """count torus points drawn from random.Random(seed), each with every
    odd root's Ad eigenvalue different from 1; a draw that fails is
    skipped.  SingularPoint after 200 draws per point asked for."""
    r = rng(seed)
    points = []
    guard = 0
    while len(points) < count:
        guard += 1
        if guard > 200 * count:
            raise SingularPoint(
                f"no regular torus point in {200 * count} draws: each had "
                "an odd root with Ad eigenvalue 1"
            )
        point = TorusElement(rand_torus_coords(r, rs.rank))
        if all(point.ad(root.weight) != ONE for root in rs.odd_roots):
            points.append(point)
    return points


def rand_laurent(
    r: random.Random,
    nvars: int,
    max_terms: int = 3,
    max_exp: int = 2,
    nonzero: bool = False,
) -> LaurentPoly:
    terms = {}
    for _ in range(r.randint(1 if nonzero else 0, max_terms)):
        exps = tuple(r.randint(-max_exp, max_exp) for _ in range(nvars))
        c = rand_scalar(r)
        if not c.is_zero():
            terms[exps] = c
    poly = LaurentPoly(nvars, terms)
    if nonzero and poly.is_zero():
        return LaurentPoly.monomial(nvars, (0,) * nvars, gr(1))
    return poly


def rand_torus_rational(r: random.Random, nvars: int, max_terms: int = 3) -> TorusRational:
    num = rand_laurent(r, nvars, max_terms=max_terms)
    den = rand_laurent(r, nvars, max_terms=2, nonzero=True)
    return TorusRational(num, den)


def rand_word(r: random.Random, dim: int, max_len: int = 4, min_len: int = 0):
    return tuple(r.randrange(dim) for _ in range(r.randint(min_len, max_len)))


def rand_pbw_element(alg, r: random.Random, max_terms: int = 3, max_len: int = 3):
    items = []
    for _ in range(r.randint(1, max_terms)):
        items.append((rand_word(r, alg.dim, max_len), rand_scalar(r)))
    return PBWElement(alg, normalize_terms(alg, items))


def rand_monomial(alg, r: random.Random, degree_cap: int = 2):
    """Random PBW normal monomial of bounded degree."""
    deg = r.randint(0, degree_cap)
    gens = sorted(r.choices(range(alg.dim), k=deg))
    # drop repeated odd generators (their square rewrites to lower degree)
    word = []
    for g in gens:
        if word and word[-1] == g and alg.parities[g]:
            continue
        word.append(g)
    return monomial_of_sorted_word(tuple(word), alg.parities)


def rand_smash_element(smash_alg, r: random.Random, max_terms: int = 3, degree_cap: int = 2):
    terms = {}
    for _ in range(r.randint(1, max_terms)):
        point = TorusElement(rand_torus_coords(r, smash_alg.t))
        mon = rand_monomial(smash_alg.g, r, degree_cap)
        c = rand_scalar(r)
        if not c.is_zero():
            terms[(point, mon)] = c
    return SmashElement(smash_alg, terms)
