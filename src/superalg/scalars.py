"""The scalar field Q(i): complex numbers with rational real and imaginary
parts, stored exactly.

A value is one reduced integer triple `(a, b, d)`, meaning `(a + b*i)/d`,
with `d > 0` and `gcd(a, b, d) == 1`; zero is `(0, 0, 1)`.  The triple is
unique for each value, so equality compares triples.  Every result is built
by `_make`, which reduces it with one `math.gcd(a, b, d)`, skipped when
`d == 1`, so a product costs four integer products and one gcd.  A unit
factor costs nothing: a product with 1 returns the other operand, as a
GaussianRational, before any integer product.

The components are still available as reduced `Fraction`s through the
read-only properties `.re` and `.im`; hot code reads the triple with
`parts()` instead.  A real value hashes like the equal `Fraction` (and so
like an equal `int`), any other like its triple.  Values are immutable;
all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

Rat = Union[int, Fraction]


class GaussianRational:
    # _t is the reduced triple (a, b, d)
    __slots__ = ("_t",)

    def __init__(self, re: Rat = 0, im: Rat = 0):
        if type(re) is int and type(im) is int:
            _set_t(self, (re, im, 1))
            return
        re, im = Fraction(re), Fraction(im)
        rd, idn = re.denominator, im.denominator
        d = lcm(rd, idn)
        _set_t(self, (re.numerator * (d // rd), im.numerator * (d // idn), d))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    # -- components ------------------------------------------------------

    def parts(self) -> tuple:
        """The reduced triple (a, b, d) with value (a + b*i)/d."""
        return self._t

    @property
    def re(self) -> Fraction:
        a, _, d = self._t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._t
        return Fraction(b, d)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        a, b, _ = self._t
        return not a and not b

    def is_one(self) -> bool:
        return self._t == (1, 0, 1)

    def is_real(self) -> bool:
        return not self._t[1]

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = other._t if other.__class__ is GaussianRational else _triple(other)
        if o is None:
            return NotImplemented
        a2, b2, d2 = o
        a1, b1, d1 = self._t
        if d1 == d2:
            return _make(a1 + a2, b1 + b2, d1)
        return _make(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = other._t if other.__class__ is GaussianRational else _triple(other)
        if o is None:
            return NotImplemented
        a2, b2, d2 = o
        a1, b1, d1 = self._t
        if d1 == d2:
            return _make(a1 - a2, b1 - b2, d1)
        return _make(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def __rsub__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _raw(*o) - self

    def __neg__(self):
        a, b, d = self._t
        return _raw(-a, -b, d)

    def __mul__(self, other):
        o = other._t if other.__class__ is GaussianRational else _triple(other)
        if o is None:
            return NotImplemented
        t = self._t
        # a unit factor costs no arithmetic; the result is always a value
        if t == (1, 0, 1):
            return other if other.__class__ is GaussianRational else _raw(*o)
        if o == (1, 0, 1):
            return self
        a2, b2, d2 = o
        a1, b1, d1 = t
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        a, b, d = self._t
        return _raw(a, -b, d)

    def inverse(self) -> "GaussianRational":
        # d/(a + bi) = d(a - bi)/(a^2 + b^2)
        a, b, d = self._t
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _make(d * a, -d * b, n)

    def __truediv__(self, other):
        o = other._t if other.__class__ is GaussianRational else _triple(other)
        if o is None:
            return NotImplemented
        a2, b2, d2 = o
        n = a2 * a2 + b2 * b2
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i)/n
        a1, b1, d1 = self._t
        return _make(d2 * (a1 * a2 + b1 * b2), d2 * (b1 * a2 - a1 * b2), d1 * n)

    def __rtruediv__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _raw(*o) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return power(self, n, ONE)

    # -- equality and hashing -------------------------------------------

    def __eq__(self, other):
        o = other._t if other.__class__ is GaussianRational else _triple(other)
        if o is None:
            return NotImplemented
        return self._t == o

    def __hash__(self):
        a, b, d = self._t
        return hash(self._t) if b else hash(Fraction(a, d))

    # -- display and serialization --------------------------------------

    def __repr__(self):
        return f"gr({self.re!s}, {self.im!s})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}*i"

    def to_json(self) -> list:
        """Quad [re_num, re_den, im_num, im_den]; integers only."""
        a, b, d = self._t
        ga, gb = gcd(a, d), gcd(b, d)
        return [a // ga, d // ga, b // gb, d // gb]

    def to_json_pairs(self) -> list:
        """Pair of pairs [[re_num, re_den], [im_num, im_den]]."""
        re_num, re_den, im_num, im_den = self.to_json()
        return [[re_num, re_den], [im_num, im_den]]

    @classmethod
    def from_json(cls, data) -> "GaussianRational":
        """Accepts an int, [num, den], [re_n, re_d, im_n, im_d], or a pair
        of [num, den] pairs for real and imaginary parts.  Every entry must
        be a JSON integer: ValueError for a float or a bool, which Fraction
        would read as a number."""
        if type(data) is int:
            return cls(data)
        if isinstance(data, (list, tuple)):
            if len(data) == 2 and isinstance(data[0], (list, tuple)):
                return cls(json_fraction(data[0]), json_fraction(data[1]))
            if len(data) == 2:
                return cls(json_fraction(data))
            if len(data) == 4:
                return cls(json_fraction(data[:2]), json_fraction(data[2:]))
        raise ValueError(f"bad scalar encoding: {data!r}")


def json_int(x) -> int:
    """x when it is a JSON integer; ValueError for a float or bool, which
    int() would silently truncate or read as 0/1."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def json_fraction(pair) -> Fraction:
    """The rational num/den of a [num, den] pair of JSON integers;
    ValueError for anything else."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"bad rational encoding: {pair!r}")
    return Fraction(json_int(pair[0]), json_int(pair[1]))


_new = object.__new__
_set_t = GaussianRational._t.__set__


def _raw(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d from a triple that is already reduced."""
    x = _new(GaussianRational)
    _set_t(x, (a, b, d))
    return x


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d for any d > 0, reduced to lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    x = _new(GaussianRational)
    _set_t(x, (a, b, d))
    return x


def _triple(x):
    """The reduced triple of an int or Fraction; None for other types."""
    if isinstance(x, int):
        return (int(x), 0, 1)  # int() turns a bool into a plain int
    if isinstance(x, Fraction):
        return (x.numerator, 0, x.denominator)
    return None


def gr(re: Rat = 0, im: Rat = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


def as_scalar(x) -> GaussianRational | None:
    """x as a Q(i) value when it is an int, a Fraction or one already;
    None for anything else."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


def power(x, n: int, one):
    """x**n by right-to-left square-and-multiply; a negative n raises
    x.inverse() instead.  The result starts at the lowest set bit of |n|
    and squaring stops at the highest, so x**n costs
    `bit_length(|n|) - 1` squarings and `popcount(|n|) - 1` other products;
    `one`, the unit of x's ring, is returned as it is for n == 0 only."""
    if not n:
        return one
    if n < 0:
        x, n = x.inverse(), -n
    while not n & 1:
        x = x * x
        n >>= 1
    out = x
    n >>= 1
    while n:
        x = x * x
        if n & 1:
            out = out * x
        n >>= 1
    return out


def from_parts(a: int, b: int, d: int = 1) -> GaussianRational:
    """The value (a + b*i)/d from integers, d > 0; reduced here."""
    if d <= 0:
        raise ValueError("denominator must be positive")
    return _make(a, b, d)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
