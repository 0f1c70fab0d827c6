"""Thin bridge to sympy's exact polynomial engine over Q(i).

sympy is reached for two services only: the multivariate gcd of two
non-constant polynomials, and exact division by a non-constant polynomial.
Both arise in the canonical form of TorusRational (torus.py).  A gcd with a
nonzero constant operand is the unit 1, and a division by a constant is a
coefficient scaling, so both are answered here without sympy.
`poly_factors` (factorization into irreducibles) has no caller in the
package; it stays because the benchmark's tracer wraps it by name.
Everything else (Laurent arithmetic, canonical forms, derivations, square
roots) is implemented in this package.  Terms are exchanged as dicts
mapping exponent tuples (non-negative ints) to GaussianRational
coefficients.
"""

from __future__ import annotations

from sympy import Poly, symbols
from sympy.polys.domains import QQ, QQ_I

from .scalars import ONE, GaussianRational, from_parts

_GENS = {}


def _gens(n: int):
    if n not in _GENS:
        _GENS[n] = symbols(f"q0:{n}") if n > 1 else (symbols("q0"),)
    return _GENS[n]


def _to_qqi(c: GaussianRational):
    a, b, d = c.parts()
    return QQ_I.new(QQ(a, d), QQ(b, d))


def _from_qqi(e) -> GaussianRational:
    xd, yd = int(e.x.denominator), int(e.y.denominator)
    return from_parts(int(e.x.numerator) * yd, int(e.y.numerator) * xd, xd * yd)


def _to_poly(terms: dict, n: int) -> Poly:
    return Poly.from_dict({k: _to_qqi(v) for k, v in terms.items()}, *_gens(n), domain=QQ_I)


def _from_poly(p: Poly) -> dict:
    out = {}
    for exps, c in p.rep.to_dict().items():
        g = _from_qqi(c)
        if not g.is_zero():
            out[tuple(int(e) for e in exps)] = g
    return out


def _is_real(terms: dict) -> bool:
    return all(c.is_real() for c in terms.values())


def _to_qq(c: GaussianRational):
    a, _, d = c.parts()
    return QQ(a, d)


def _to_poly_real(terms: dict, n: int) -> Poly:
    return Poly.from_dict(
        {k: _to_qq(v) for k, v in terms.items()},
        *_gens(n),
        domain=QQ,
    )


def _from_poly_real(p: Poly) -> dict:
    out = {}
    for exps, c in p.rep.to_dict().items():
        g = from_parts(int(c.numerator), 0, int(c.denominator))
        if not g.is_zero():
            out[tuple(int(e) for e in exps)] = g
    return out


def _unit_normalized(terms: dict) -> dict:
    """Divide by the lexicographically least coefficient.

    gcd is only defined up to a unit, so this is harmless, and it strips a
    global i-power, which moves the common case (real coefficients times a
    Q(i) unit) onto sympy's much faster rational gcd path; gcd over QQ_I
    falls back to subresultant remainder sequences, which crawl in three
    or more variables.
    """
    c = terms[min(terms)]
    if c.is_one():
        return terms
    inv = c.inverse()
    return {e: v * inv for e, v in terms.items()}


def poly_gcd(a: dict, b: dict, n: int) -> dict:
    """gcd of two polynomial term-dicts, up to a unit; 1 when either is a
    nonzero constant."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    if is_unit_dict(a) or is_unit_dict(b):
        return {(0,) * n: ONE}
    an, bn = _unit_normalized(a), _unit_normalized(b)
    if _is_real(an) and _is_real(bn):
        return _from_poly_real(_to_poly_real(an, n).gcd(_to_poly_real(bn, n)))
    return _from_poly(_to_poly(an, n).gcd(_to_poly(bn, n)))


def poly_div_exact(a: dict, b: dict, n: int) -> dict:
    """a / b, raising ValueError if the division is not exact."""
    if not a:
        return {}
    if is_unit_dict(b):
        c = next(iter(b.values()))
        if c.is_one():
            return dict(a)
        inv = c.inverse()
        return {e: v * inv for e, v in a.items()}
    if _is_real(a) and _is_real(b):
        q, r = _to_poly_real(a, n).div(_to_poly_real(b, n))
        if not r.is_zero:
            raise ValueError("polynomial division is not exact")
        return _from_poly_real(q)
    q, r = _to_poly(a, n).div(_to_poly(b, n))
    if not r.is_zero:
        raise ValueError("polynomial division is not exact")
    return _from_poly(q)


def poly_factors(a: dict, n: int) -> list:
    """Irreducible factors of a over Q(i) as (term-dict, multiplicity) pairs.

    The scalar content is dropped; callers recover it by exact division.
    Factorization always runs over Q(i): a factor irreducible over the
    rationals may split further there, and square detection needs the
    finest splitting.
    """
    an = _unit_normalized(a)
    fl = _to_poly(an, n).factor_list()
    return [(_from_poly(f), int(m)) for f, m in fl[1]]


def is_unit_dict(a: dict) -> bool:
    """True when the term-dict is a nonzero constant."""
    return len(a) == 1 and not any(next(iter(a)))
