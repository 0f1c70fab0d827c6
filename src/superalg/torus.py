"""Exact functions on an algebraic torus in half-weight coordinates.

The convention throughout the package: coordinate i of the torus is
q_i = exp(y_i / 2).  A Laurent monomial q^e then models exp(sum_i e_i y_i / 2),
and the derivation d/dy_i sends q^e to (e_i / 2) q^e.  With this choice every
hyperbolic sine of a half root value, sinh(eps(Y)/2), is the Laurent binomial
(q^eps - q^-eps)/2, which keeps the whole radial-part calculus inside exact
arithmetic over Q(i).

LaurentPoly is a linalg.SparseSum over exponent vectors; sums, negation
and scaling come from the base.  Its product and its value at a point
run over Gaussian integers, on the integer view of each operand
(`_int_view`): its coefficients as Gaussian-integer numerators over the
lcm of their denominators.  A product sums the integer products of its
coefficient pairs per output exponent vector and builds each output
coefficient once, through scalars.from_parts, which reduces it; eval
reduces once, at the end.  The view is read off the terms alone, which
never change, so the polynomial keeps it once it is derived, as a
TorusElement keeps its hash and Ad table.  It is not pickled and takes
no part in equality or the hash.

TorusRational is the fraction field, kept in a canonical form so that
equality is syntactic:

* numerator and denominator share no non-unit polynomial factor,
* the denominator is a true polynomial with minimal exponent 0 in every
  variable (all monomial content is carried by the numerator),
* the lexicographically least denominator term has coefficient 1.

`_make_reduced` is the one home of that form: only it moves monomial
content into the numerator and scales the denominator.  Every gcd and the
divisions by it go through `_cancel`; a Laurent polynomial over 1 takes none,
nor does the square of a canonical pair, which is coprime too.

TorusElement is a point of the torus.  Ad of the point scales a vector of
weight w by a.ad(w) = prod_i z_i^(2 w_i), which the point keeps by weight,
so every algebra that meets the point shares one cache.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Sequence

from ._polytools import poly_div_exact, poly_gcd
from .errors import NotAScalarSquare, ZeroTorusCoordinate
from .linalg import SparseSum, add_term
from .scalars import GaussianRational, ONE, ZERO, as_scalar, from_parts, gr, power

Exps = tuple


class TorusElement:
    """Point of the torus, coordinates z_i = value of exp(y_i/2).

    A point is immutable, so whatever is derived from its coordinates alone
    is computed once and kept on it:

    - the hash, at construction, from the reduced integer triples of the
      coordinates (`GaussianRational.parts`).  Each triple is unique for its
      value, so points that compare equal hash equally, and a dict lookup
      costs no scalar hashing;
    - the identity flag, at construction;
    - the inverse, on the first `inverse()` call.  The two points are linked
      both ways, so `a.inverse().inverse() is a`, and `a * a.inverse()` is
      `TorusElement.identity(t)`, one shared point per rank whose inverse is
      itself, without a coordinate product;
    - the Ad character, one value per weight on the first `ad(w)` call.

    The cached fields are not pickled: a point pickles as its coordinates.
    Points of different ranks do not multiply, and a weight of the wrong
    length has no character: both raise ValueError.
    """

    __slots__ = ("coords", "_hash", "_is_e", "_inv", "_ad")

    def __init__(self, coords):
        cs = tuple(
            c if isinstance(c, GaussianRational) else GaussianRational(c)
            for c in coords
        )
        for c in cs:
            if c.is_zero():
                raise ZeroTorusCoordinate("torus coordinates must be nonzero")
        _init(self, cs)

    def __setattr__(self, name, value):
        raise AttributeError("TorusElement is immutable")

    def __reduce__(self):
        return TorusElement, (self.coords,)

    @classmethod
    def identity(cls, t: int) -> "TorusElement":
        """The identity of rank t: one shared point, its own inverse."""
        e = _IDENTITIES.get(t)
        if e is None:
            e = _IDENTITIES[t] = _torus((ONE,) * t)
            _set_inv(e, e)
        return e

    def __mul__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        if other is self._inv:
            return TorusElement.identity(len(self.coords))
        if len(other.coords) != len(self.coords):
            raise ValueError("torus points of different ranks")
        return _torus(tuple(a * b for a, b in zip(self.coords, other.coords)))

    def inverse(self) -> "TorusElement":
        inv = self._inv
        if inv is None:
            inv = _torus(tuple(c.inverse() for c in self.coords))
            _set_inv(self, inv)
            _set_inv(inv, self)
        return inv

    def ad(self, w: tuple) -> GaussianRational:
        """Eigenvalue of Ad(self) on a vector of weight w, a tuple of ints:
        prod_i z_i^(2 w_i), ONE on weight 0.  Kept on the point by weight."""
        table = self._ad
        if table is None:
            table = {}
            _set_ad(self, table)
        val = table.get(w)
        if val is None:
            if len(w) != len(self.coords):
                raise ValueError(f"weight {w} does not match the rank {len(self.coords)}")
            val = ONE
            for z, e in zip(self.coords, w):
                if e:
                    val = val * z ** (2 * e)
            table[w] = val
        return val

    def is_identity(self) -> bool:
        return self._is_e

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def to_json(self):
        return [c.to_json() for c in self.coords]


_set_coords = TorusElement.coords.__set__
_set_hash = TorusElement._hash.__set__
_set_is_e = TorusElement._is_e.__set__
_set_inv = TorusElement._inv.__set__
_set_ad = TorusElement._ad.__set__


def _init(a: TorusElement, coords: tuple) -> None:
    """Fill the slots of a point from its nonzero coordinates."""
    _set_coords(a, coords)
    _set_hash(a, hash(tuple(c.parts() for c in coords)))
    _set_is_e(a, all(c.is_one() for c in coords))
    _set_inv(a, None)
    _set_ad(a, None)


def _torus(coords: tuple) -> TorusElement:
    """TorusElement from a tuple of nonzero GaussianRationals, unchecked:
    products and inverses of nonzero coordinates are nonzero."""
    a = object.__new__(TorusElement)
    _init(a, coords)
    return a


_IDENTITIES: dict = {}  # {rank: the identity point}, see TorusElement.identity


class LaurentPoly(SparseSum):
    """Laurent polynomial in t torus coordinates over Q(i).

    terms maps exponent vectors (length-t int tuples, negatives allowed) to
    nonzero GaussianRational coefficients.  Polynomials in different
    numbers of variables are never equal, zero included.  The slot _view
    keeps the integer view of `_int_view` once it is derived, None before.
    """

    __slots__ = ("nvars", "_view")
    _context = _same = ("nvars",)
    _mixed = "mixed variable counts"

    def __init__(self, nvars: int, terms: dict | None = None):
        if nvars < 0:
            raise ValueError("negative variable count")
        super().__init__((nvars,), terms)
        _set_view(self, None)

    def _like(self, terms: dict) -> "LaurentPoly":
        """A polynomial in as many variables holding terms, unchecked; its
        integer view is derived on first use."""
        p = _new(LaurentPoly)
        _set_nvars(p, self.nvars)
        _set_terms(p, terms)
        _set_view(p, None)
        return p

    def _key(self, exps):
        if len(exps) != self.nvars:
            raise ValueError(f"exponent vector {exps} has wrong length")
        return tuple(exps)

    def _constant(self, s):
        return LaurentPoly.const(self.nvars, s)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "LaurentPoly":
        c = as_scalar(c)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.const(nvars, ONE)

    @classmethod
    def monomial(cls, nvars: int, exps: Iterable[int], coeff=ONE) -> "LaurentPoly":
        c = as_scalar(coeff)
        return cls(nvars, {tuple(exps): c})

    # -- predicates ----------------------------------------------------------

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

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return super().__mul__(other)
        if self.nvars != other.nvars:
            raise ValueError(self._mixed)
        if not self.terms or not other.terms:
            return self._like({})
        d1, rows1 = _int_view(self)
        d2, rows2 = _int_view(other)
        acc = {}
        acc_get = acc.get
        for e1, a1, b1 in rows1:
            for e2, a2, b2 in rows2:
                e = tuple(map(add, e1, e2))
                sums = acc_get(e)
                if sums is None:
                    acc[e] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
                else:
                    sums[0] += a1 * a2 - b1 * b2
                    sums[1] += a1 * b2 + b1 * a2
        den = d1 * d2
        out = {}
        for e, (x, y) in acc.items():
            if x or y:
                out[e] = from_parts(x, y, den)
        return self._like(out)

    # -- structure -------------------------------------------------------

    def min_exps(self) -> Exps:
        """Componentwise minimum exponent; only defined for nonzero polys."""
        if not self.terms:
            raise ValueError("zero polynomial has no exponent range")
        cols = zip(*self.terms)
        return tuple(min(col) for col in cols)

    def shift(self, delta: Exps) -> "LaurentPoly":
        """Multiply by the monomial q^delta."""
        return self._like(
            {tuple(a + d for a, d in zip(e, delta)): c for e, c in self.terms.items()}
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
        return self._like(out)

    def eval(self, point: Sequence[GaussianRational]) -> GaussianRational:
        """Value at a point, summed over Gaussian integers and reduced once.

        A coordinate z = (a + b*i)/d whose exponents span [-L, H], L and
        H >= 0, gets one denominator, d^H * n^L with n = a^2 + b^2, and a
        table of the Gaussian-integer numerators of z^k over it for every
        k in the span.  A term multiplies its numerator from `_int_view`
        by one table entry per coordinate; the terms are summed as
        integers and scalars.from_parts reduces the sum.  A zero
        coordinate with L > 0 raises ZeroDivisionError."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        if not self.terms:
            return ZERO
        den, rows = _int_view(self)
        tables = []
        for z, col in zip(point, zip(*self.terms)):
            table, zden = _power_table(z.parts(), max(-min(col), 0), max(max(col), 0))
            tables.append(table)
            den *= zden
        x = y = 0
        for e, a, b in rows:
            for k, table in zip(e, tables):
                pa, pb = table[k]
                a, b = a * pa - b * pb, a * pb + b * pa
            x += a
            y += b
        return from_parts(x, y, den)

    # -- display ------------------------------------------------------------

    def to_json(self) -> dict:
        """{"[e_1, ..., e_t]": quad} in exponent order."""
        return {str(list(e)): c.to_json() for e, c in sorted(self.terms.items())}

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


_new = object.__new__
_set_nvars = LaurentPoly.nvars.__set__
_set_terms = SparseSum.terms.__set__
_set_view = LaurentPoly._view.__set__


def _int_view(p: LaurentPoly) -> tuple:
    """(den, rows) for a nonzero p, derived once and kept on p: den is
    the lcm of the coefficient denominators, and rows lists (e, a, b) per
    term, in the order of terms, with terms[e] == (a + b*i)/den."""
    view = p._view
    if view is None:
        terms = p.terms
        den = next(iter(terms.values())).parts()[2]
        rows = []
        for e, c in terms.items():
            a, b, d = c.parts()
            if d != den:
                if den % d:
                    s = lcm(den, d) // den
                    den *= s
                    rows = [(f, x * s, y * s) for f, x, y in rows]
                s = den // d
                a *= s
                b *= s
            rows.append((e, a, b))
        view = den, rows
        _set_view(p, view)
    return view


def _power_table(z: tuple, neg: int, pos: int) -> tuple:
    """(table, den) for z = (a + b*i)/d: table[k] is the Gaussian integer
    (re, im) equal to z^k * den for -neg <= k <= pos, den = d^pos * n^neg
    with n = a^2 + b^2; a list, so a negative k indexes from its end."""
    a, b, d = z
    n = a * a + b * b
    if neg and not n:
        raise ZeroDivisionError("negative power of a zero coordinate")
    den = d**pos * n**neg
    up = [(den, 0)]  # z^k * den = (a + b*i)^k * d^(pos-k) * n^neg
    for _ in range(pos):
        x, y = up[-1]
        up.append(((a * x - b * y) // d, (a * y + b * x) // d))
    down = []  # z^-k * den = (a - b*i)^k * d^(pos+k) * n^(neg-k)
    x, y = den, 0
    for _ in range(neg):
        x, y = (a * x + b * y) * d // n, (a * y - b * x) * d // n
        down.append((x, y))
    return up + down[::-1], den


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
        n = num.nvars
        if den is None:
            den = LaurentPoly.one(n)
        elif den.nvars != n:
            raise ValueError("mixed variable counts")
        elif den.is_zero():
            raise ZeroDivisionError("zero denominator")
        elif not num.is_zero():
            sn, a = _poly_part(num)
            sd, b = _poly_part(den)
            a, b, _ = _cancel(a, b, n)
            num, den = LaurentPoly(n, a).shift(sn), LaurentPoly(n, b).shift(sd)
        r = _make_reduced(num, den)
        _set_num(self, r.num)
        _set_den(self, r.den)

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
        return _make_reduced(LaurentPoly.const(nvars, c), LaurentPoly.one(nvars))

    @classmethod
    def zero(cls, nvars: int) -> "TorusRational":
        return _make_reduced(LaurentPoly.zero(nvars), LaurentPoly.one(nvars))

    @classmethod
    def one(cls, nvars: int) -> "TorusRational":
        return _make_reduced(LaurentPoly.one(nvars), LaurentPoly.one(nvars))

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=ONE) -> "TorusRational":
        return _make_reduced(LaurentPoly.monomial(nvars, exps, coeff), LaurentPoly.one(nvars))

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
        s = as_scalar(other)
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
        b, d, g = _cancel(self.den.terms, o.den.terms, n)
        num = self.num * LaurentPoly(n, d) + o.num * LaurentPoly(n, b)
        if num.is_zero():
            return TorusRational.zero(n)
        shift, npoly = _poly_part(num)
        npoly, rest, _ = _cancel(npoly, g, n)
        new_num = LaurentPoly(n, npoly).shift(shift)
        new_den = LaurentPoly(n, rest) * LaurentPoly(n, b) * LaurentPoly(n, d)
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
        if o is self:
            # a canonical pair is coprime, and so is its square
            return _make_reduced(self.num * self.num, self.den * self.den)
        n = self.nvars
        sa, a = _poly_part(self.num)
        sc, c = _poly_part(o.num)
        # cross-cancel; both inputs are reduced, so the result is reduced
        a, d, _ = _cancel(a, o.den.terms, n)
        c, b, _ = _cancel(c, self.den.terms, n)
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
        if not isinstance(n, int):
            return NotImplemented
        return power(self, n, TorusRational.one(self.nvars))

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
        npoly, b1, _ = _cancel(npoly, self.den.terms, n)
        npoly, b2, _ = _cancel(npoly, self.den.terms, n)
        num = LaurentPoly(n, npoly).shift(shift)
        den = LaurentPoly(n, b1) * LaurentPoly(n, b2)
        return _make_reduced(num, den)

    def eval(self, point: Sequence[GaussianRational]) -> GaussianRational:
        dv = self.den.eval(point)
        if dv.is_zero():
            raise ZeroDivisionError("denominator vanishes at this point")
        return self.num.eval(point) / dv

    # -- display ------------------------------------------------------------

    def __repr__(self):
        if self.den.is_constant():
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


_set_num = TorusRational.num.__set__
_set_den = TorusRational.den.__set__


def _make_reduced(num: LaurentPoly, den: LaurentPoly) -> TorusRational:
    """num / den in canonical form, for a pair whose polynomial parts are
    coprime; the one place that form is made.

    The monomial content of den moves into the numerator, and both are
    scaled so that the lexicographically least denominator coefficient is
    1.  No gcd is taken: callers guarantee coprimality.
    """
    obj = _new(TorusRational)
    if num.is_zero():
        num, den = LaurentPoly.zero(num.nvars), LaurentPoly.one(num.nvars)
    else:
        sd = den.min_exps()
        if any(sd):
            back = _neg_exps(sd)
            num, den = num.shift(back), den.shift(back)
        c = den.terms[den.lex_least()]
        if not c.is_one():
            inv = c.inverse()
            num, den = num * inv, den * inv
    _set_num(obj, num)
    _set_den(obj, den)
    return obj


def _cancel(a: dict, b: dict, n: int) -> tuple:
    """(a / g, b / g, g) for g = gcd(a, b), polynomial term-dicts in n
    variables."""
    g = poly_gcd(a, b, n)
    return poly_div_exact(a, g, n), poly_div_exact(b, g, n), g


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
    sn, a = _poly_sqrt(npoly)
    sd, b = _poly_sqrt(f.den.terms)
    half_shift = tuple(s // 2 for s in shift)
    g = _make_reduced(LaurentPoly(n, sn).shift(half_shift), LaurentPoly(n, sd))
    return g, b / a


def _half_binomial(nvars: int, weight, sign: int) -> LaurentPoly:
    """The Laurent binomial (q^w + sign * q^-w) / 2, sign 1 or -1."""
    w = tuple(weight)
    return LaurentPoly(nvars, {w: gr(Fraction(1, 2)), _neg_exps(w): gr(Fraction(sign, 2))})


def sinh_binomial(nvars: int, weight) -> LaurentPoly:
    """The Laurent binomial (q^w - q^-w) / 2."""
    return _half_binomial(nvars, weight, -1)


def sinh_half(nvars: int, weight) -> TorusRational:
    """sinh of half the weight value: (q^w - q^-w) / 2."""
    return TorusRational(sinh_binomial(nvars, weight))


def cosh_half(nvars: int, weight) -> TorusRational:
    """cosh of half the weight value: (q^w + q^-w) / 2."""
    return TorusRational(_half_binomial(nvars, weight, 1))
