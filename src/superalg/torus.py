"""Exact functions on an algebraic torus in half-weight coordinates.

The convention throughout the package: coordinate i of the torus is
q_i = exp(y_i / 2).  A Laurent monomial q^e then models exp(sum_i e_i y_i / 2),
and the derivation d/dy_i sends q^e to (e_i / 2) q^e.  With this choice every
hyperbolic sine of a half root value, sinh(eps(Y)/2), is the Laurent binomial
(q^eps - q^-eps)/2, which keeps the whole radial-part calculus inside exact
arithmetic over Q(i).

TorusRational is the fraction field, kept in a canonical form so that
equality is syntactic:

* numerator and denominator share no non-unit polynomial factor,
* the denominator is a true polynomial with minimal exponent 0 in every
  variable (all monomial content is carried by the numerator),
* the lexicographically least denominator term has coefficient 1.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, Sequence

from ._polytools import poly_div_exact, poly_gcd
from .errors import NotAScalarSquare
from .linalg import add_term
from .scalars import GaussianRational, ONE, ZERO, gr

Exps = tuple


def _as_scalar(x) -> GaussianRational | None:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


class LaurentPoly:
    """Laurent polynomial in t torus coordinates over Q(i).

    terms maps exponent vectors (length-t int tuples, negatives allowed) to
    nonzero GaussianRational coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        if nvars < 1:
            raise ValueError("need at least one torus coordinate")
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(f"exponent vector {exps} has wrong length")
                if not coeff.is_zero():
                    clean[tuple(exps)] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return LaurentPoly, (self.nvars, self.terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "LaurentPoly":
        c = _as_scalar(c)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.const(nvars, ONE)

    @classmethod
    def monomial(cls, nvars: int, exps: Iterable[int], coeff=ONE) -> "LaurentPoly":
        c = _as_scalar(coeff)
        return cls(nvars, {tuple(exps): c})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        return set(self.terms) == {(0,) * self.nvars}

    def constant_value(self) -> GaussianRational:
        if self.is_zero():
            return ZERO
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.terms[(0,) * self.nvars]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")

    def __add__(self, other):
        s = _as_scalar(other)
        if s is not None:
            other = LaurentPoly.const(self.nvars, s)
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            add_term(out, exps, c)
        return LaurentPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        s = _as_scalar(other)
        if s is not None:
            other = LaurentPoly.const(self.nvars, s)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        s = _as_scalar(other)
        if s is not None:
            if s.is_zero():
                return LaurentPoly.zero(self.nvars)
            return LaurentPoly(self.nvars, {e: c * s for e, c in self.terms.items()})
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return LaurentPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial; use TorusRational")
        out = LaurentPoly.one(self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- structure -------------------------------------------------------

    def min_exps(self) -> Exps:
        """Componentwise minimum exponent; only defined for nonzero polys."""
        if not self.terms:
            raise ValueError("zero polynomial has no exponent range")
        cols = zip(*self.terms)
        return tuple(min(col) for col in cols)

    def shift(self, delta: Exps) -> "LaurentPoly":
        """Multiply by the monomial q^delta."""
        return LaurentPoly(
            self.nvars,
            {tuple(a + d for a, d in zip(e, delta)): c for e, c in self.terms.items()},
        )

    def lex_least(self) -> Exps:
        return min(self.terms)

    def derive_half(self, var: int) -> "LaurentPoly":
        """d/dy_var under q_i = exp(y_i/2): q^e picks up the factor e_var/2."""
        if not 0 <= var < self.nvars:
            raise IndexError(f"variable index {var} out of range")
        out = {}
        for e, c in self.terms.items():
            if e[var]:
                out[e] = c * Fraction(e[var], 2)
        return LaurentPoly(self.nvars, out)

    def eval(self, point: Sequence[GaussianRational]) -> GaussianRational:
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        total = ZERO
        for e, c in self.terms.items():
            val = c
            for z, k in zip(point, e):
                if k:
                    val = val * z ** k
            total = total + val
        return total

    # -- display and serialization ------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(
                f"q{i}^{k}" if k != 1 else f"q{i}" for i, k in enumerate(e) if k
            )
            bits.append(f"({c}){'*' + mono if mono else ''}")
        return " + ".join(bits)

    def to_json(self) -> list:
        return [[list(e), self.terms[e].to_json()] for e in sorted(self.terms)]

    @classmethod
    def from_json(cls, nvars: int, data) -> "LaurentPoly":
        return cls(
            nvars,
            {tuple(e): GaussianRational.from_json(c) for e, c in data},
        )


def _poly_part(p: LaurentPoly) -> tuple:
    """Split p = q^shift * P with P a polynomial of minimal exponent 0."""
    shift = p.min_exps()
    poly = {tuple(a - s for a, s in zip(e, shift)): c for e, c in p.terms.items()}
    return shift, poly


def _neg_exps(e: Exps) -> Exps:
    return tuple(-x for x in e)


def _add_exps(a: Exps, b: Exps) -> Exps:
    return tuple(x + y for x, y in zip(a, b))


class TorusRational:
    """Quotient of Laurent polynomials in the half-weight coordinates,
    always held in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one(num.nvars)
        if num.nvars != den.nvars:
            raise ValueError("mixed variable counts")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        n, d = _canonicalize(num, den)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name, value):
        raise AttributeError("TorusRational is immutable")

    def __reduce__(self):
        # the pair is already canonical: rebuild it without a gcd
        return _make_reduced, (self.num, self.den)

    @property
    def nvars(self) -> int:
        return self.num.nvars

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, nvars: int, c) -> "TorusRational":
        return cls(LaurentPoly.const(nvars, c))

    @classmethod
    def zero(cls, nvars: int) -> "TorusRational":
        return cls(LaurentPoly.zero(nvars))

    @classmethod
    def one(cls, nvars: int) -> "TorusRational":
        return cls(LaurentPoly.one(nvars))

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=ONE) -> "TorusRational":
        return cls(LaurentPoly.monomial(nvars, exps, coeff))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_scalar(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def scalar_value(self) -> GaussianRational:
        if not self.is_scalar():
            raise ValueError("not a scalar")
        if self.num.is_zero():
            return ZERO
        return self.num.constant_value() / self.den.constant_value()

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        s = _as_scalar(other)
        if s is not None:
            return TorusRational.const(self.nvars, s)
        if isinstance(other, LaurentPoly):
            return TorusRational(other)
        if isinstance(other, TorusRational):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        # Henrici: cancel gcd(B, D) up front so the closing gcd stays small.
        n = self.nvars
        _, b_poly = _poly_part(self.den)
        _, d_poly = _poly_part(o.den)
        g = poly_gcd(b_poly, d_poly, n)
        b1 = poly_div_exact(b_poly, g, n)
        d1 = poly_div_exact(d_poly, g, n)
        num = self.num * LaurentPoly(n, d1) + o.num * LaurentPoly(n, b1)
        if num.is_zero():
            return TorusRational.zero(n)
        shift, npoly = _poly_part(num)
        g2 = poly_gcd(npoly, g, n)
        new_num = LaurentPoly(n, poly_div_exact(npoly, g2, n)).shift(shift)
        rest = poly_div_exact(g, g2, n)
        new_den = LaurentPoly(n, rest) * LaurentPoly(n, b1) * LaurentPoly(n, d1)
        return _make_reduced(new_num, new_den)

    __radd__ = __add__

    def __neg__(self):
        return _make_reduced(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return TorusRational.zero(self.nvars)
        n = self.nvars
        sa, a = _poly_part(self.num)
        sc, c = _poly_part(o.num)
        _, b = _poly_part(self.den)
        _, d = _poly_part(o.den)
        # cross-cancel; both inputs are reduced, so the result is reduced
        g1 = poly_gcd(a, d, n)
        g2 = poly_gcd(c, b, n)
        a = poly_div_exact(a, g1, n)
        d = poly_div_exact(d, g1, n)
        c = poly_div_exact(c, g2, n)
        b = poly_div_exact(b, g2, n)
        num = (LaurentPoly(n, a) * LaurentPoly(n, c)).shift(_add_exps(sa, sc))
        den = LaurentPoly(n, b) * LaurentPoly(n, d)
        return _make_reduced(num, den)

    __rmul__ = __mul__

    def inverse(self) -> "TorusRational":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero torus function")
        return _make_reduced(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = TorusRational.one(self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- calculus -----------------------------------------------------------

    def derive(self, var: int) -> "TorusRational":
        """d/dy_var, exact quotient rule."""
        if self.is_zero():
            return self
        n = self.nvars
        du = self.num.derive_half(var)
        dv = self.den.derive_half(var)
        raw = du * self.den - self.num * dv
        if raw.is_zero():
            return TorusRational.zero(n)
        # cancel against den^2 one denominator copy at a time
        shift, npoly = _poly_part(raw)
        _, b = _poly_part(self.den)
        den_parts = []
        for part in (b, b):
            g = poly_gcd(npoly, part, n)
            npoly = poly_div_exact(npoly, g, n)
            den_parts.append(poly_div_exact(part, g, n))
        num = LaurentPoly(n, npoly).shift(shift)
        den = LaurentPoly(n, den_parts[0]) * LaurentPoly(n, den_parts[1])
        return _make_reduced(num, den)

    def eval(self, point: Sequence[GaussianRational]) -> GaussianRational:
        dv = self.den.eval(point)
        if dv.is_zero():
            raise ZeroDivisionError("denominator vanishes at this point")
        return self.num.eval(point) / dv

    # -- display and serialization -------------------------------------------

    def __repr__(self):
        if self.den.is_constant():
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, nvars: int, data) -> "TorusRational":
        return cls(
            LaurentPoly.from_json(nvars, data["num"]),
            LaurentPoly.from_json(nvars, data["den"]),
        )


def _scale_normalize(num: LaurentPoly, den: LaurentPoly) -> tuple:
    """Make the lexicographically least denominator coefficient equal 1."""
    c = den.terms[den.lex_least()]
    if c.is_one():
        return num, den
    inv = c.inverse()
    return num * inv, den * inv


def _make_reduced(num: LaurentPoly, den: LaurentPoly) -> TorusRational:
    """Wrap an already gcd-reduced pair, fixing monomial content and scale.

    Bypasses the gcd in __init__ via direct slot assignment; callers
    guarantee coprimality of the polynomial parts.
    """
    obj = object.__new__(TorusRational)
    if num.is_zero():
        object.__setattr__(obj, "num", LaurentPoly.zero(num.nvars))
        object.__setattr__(obj, "den", LaurentPoly.one(num.nvars))
        return obj
    sd, dpoly = _poly_part(den)
    n2 = num.shift(_neg_exps(sd))
    num2, den2 = _scale_normalize(n2, LaurentPoly(num.nvars, dpoly))
    object.__setattr__(obj, "num", num2)
    object.__setattr__(obj, "den", den2)
    return obj


def _canonicalize(num: LaurentPoly, den: LaurentPoly) -> tuple:
    if num.is_zero():
        return LaurentPoly.zero(num.nvars), LaurentPoly.one(num.nvars)
    n = num.nvars
    sn, npoly = _poly_part(num)
    sd, dpoly = _poly_part(den)
    g = poly_gcd(npoly, dpoly, n)
    npoly = poly_div_exact(npoly, g, n)
    dpoly = poly_div_exact(dpoly, g, n)
    delta = _add_exps(sn, _neg_exps(sd))
    num2 = LaurentPoly(n, npoly).shift(delta)
    num2, den2 = _scale_normalize(num2, LaurentPoly(n, dpoly))
    return num2, den2


def torus_derive(f: TorusRational, var: int) -> TorusRational:
    """The derivation d/dy_var on the torus function field (0-based index)."""
    return f.derive(var)


def _grlex_desc(e: Exps) -> tuple:
    """Heap key that pops exponents in descending graded-lex order: total
    degree first, then lexicographic."""
    return -sum(e), tuple(-x for x in e)


def _poly_sqrt(terms: dict) -> tuple:
    """(S, a) with terms == a * S * S and S's leading coefficient 1, or
    NotAScalarSquare.

    Dividing by the leading coefficient a (graded-lex order) makes the root
    monic; its leading exponent E is half the leading exponent of terms.
    Each further term of S is read off the leading term (F, r) of the
    remainder terms / a - S^2 as r/2 at F - E.  The remainder's leading
    exponent strictly descends, and a root exponent must stay non-negative
    and not below half the least exponent of terms, so the loop ends; the
    input is a square exactly when the remainder reaches zero.
    """
    keys = sorted(terms, key=_grlex_desc)
    lead, low = keys[0], keys[-1]
    if any(k % 2 for k in lead + low):
        raise NotAScalarSquare("extreme exponent is not even")
    top = tuple(k // 2 for k in lead)
    floor = _grlex_desc(tuple(k // 2 for k in low))
    a = terms[lead]
    inv = a.inverse()
    rest = {e: c * inv for e, c in terms.items()}
    heap = [_grlex_desc(e) + (e,) for e in keys]  # sorted, hence a heap
    root = {top: ONE}
    del rest[lead]
    half = gr(Fraction(1, 2))
    while rest:
        f = heapq.heappop(heap)[-1]
        if f not in rest:
            continue  # cancelled since it was pushed
        e = tuple(x - y for x, y in zip(f, top))
        if min(e) < 0 or _grlex_desc(e) > floor:
            raise NotAScalarSquare("remainder does not vanish")
        c = rest[f] * half
        # rest -= (2 * root + c q^e) * c q^e
        twice = c + c
        for r, rc in root.items():
            _sub_term(rest, heap, _add_exps(r, e), rc * twice)
        _sub_term(rest, heap, _add_exps(e, e), c * c)
        root[e] = c
    return root, a


def _sub_term(rest: dict, heap: list, e: Exps, c: GaussianRational) -> None:
    """rest[e] -= c, pushing e on the heap when it is not in rest yet."""
    if e not in rest:
        heapq.heappush(heap, _grlex_desc(e) + (e,))
    add_term(rest, e, -c)


def sqrt_scalar_free(f: TorusRational) -> tuple:
    """Return (g, c) with g*g == c*f for a nonzero scalar c.

    Succeeds exactly when f is a perfect square in the torus function field
    up to a scalar; the scalar is returned for audit.  The conjugation
    identities that consume g are invariant under rescaling it, so no root
    of the scalar is ever adjoined to Q(i).  The numerator and denominator
    polynomials are coprime, so their roots are too and g needs no gcd.
    """
    n = f.nvars
    if f.is_zero():
        return TorusRational.zero(n), ONE
    shift, npoly = _poly_part(f.num)
    if any(s % 2 for s in shift):
        raise NotAScalarSquare("odd monomial content")
    _, dpoly = _poly_part(f.den)
    sn, a = _poly_sqrt(npoly)
    sd, b = _poly_sqrt(dpoly)
    half_shift = tuple(s // 2 for s in shift)
    g = _make_reduced(LaurentPoly(n, sn).shift(half_shift), LaurentPoly(n, sd))
    return g, b / a


def sinh_half(nvars: int, weight) -> TorusRational:
    """sinh of half the weight value: (q^w - q^-w) / 2."""
    w = tuple(weight)
    p = LaurentPoly(nvars, {w: gr(Fraction(1, 2)), _neg_exps(w): gr(Fraction(-1, 2))})
    return TorusRational(p)


def cosh_half(nvars: int, weight) -> TorusRational:
    """cosh of half the weight value: (q^w + q^-w) / 2."""
    w = tuple(weight)
    p = LaurentPoly(nvars, {w: gr(Fraction(1, 2)), _neg_exps(w): gr(Fraction(1, 2))})
    return TorusRational(p)
