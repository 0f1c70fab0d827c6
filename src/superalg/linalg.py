"""Small exact linear algebra helpers over Q(i).

The constants 0 and 1 are scalars.ZERO and scalars.ONE.  Entries may also
be torus functions: their operators coerce a Q(i) scalar operand, so
ZERO + f and ONE / f are torus functions again.  Every entry must support
+, -, *, / and an is_zero() predicate.

Matrices are lists/tuples of rows; dimensions in this package stay below
a few dozen.  mat_mul skips zero entries of both factors, since the frame
and Gram matrices it multiplies are mostly zeros.  det, inv and rref read
one Gauss-Jordan reduction, _reduce:
det is its signed pivot product at full rank, inv the right half of the
reduced [A | I], rref the reduced rows and their pivot columns.

Sparse vectors are dicts {key: coefficient} with no zero coefficient.
add_term and add_scaled accumulate into one.  SparseSum is the immutable
element built on such a dict: PBW, smash and tensor elements and Laurent
polynomials are its subclasses.  A sum accumulates into one dict and
wraps it once, at the end: through the checked constructor, which drops
zero coefficients, or through wrap_terms, which takes a dict built by
add_term or normalize_terms as it is.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, as_scalar


def add_term(out: dict, key, c) -> None:
    """out[key] += c on a sparse dict, dropping the key when the sum is zero."""
    acc = out.get(key)
    if acc is not None:
        c = acc + c
    if c.is_zero():
        out.pop(key, None)
    else:
        out[key] = c


def add_scaled(out: dict, v: dict, s) -> None:
    """out += s * v on sparse dicts, term by term through add_term."""
    for key, c in v.items():
        add_term(out, key, c * s)


class SparseSum:
    """An immutable finite linear combination: `terms` maps keys to
    coefficients, none of them zero.

    A subclass declares the slots that fix the space its elements live in
    (an algebra, a leg count, a variable count) in __slots__ and names them
    in `_context`, in the order its constructor takes them, before the
    optional terms dict.  It may override `_key`, which checks one key and
    returns it normalized, and `_constant`, which turns a scalar into an
    element where the space has a unit; sums and differences then take
    scalars too.  Two elements are equal when their terms and their
    `_same` context slots are equal; a sum of two elements whose `_same`
    slots differ raises ValueError(`_mixed`).  The hash is taken from the
    terms alone, so it survives pickling a context that compares by
    identity.
    """

    __slots__ = ("terms",)
    _context: tuple = ()
    _same: tuple = ()
    _mixed = "elements of different spaces"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # (position in the context, setter, getter) per context slot
        cls._context_slots = tuple(
            (i, slot.__set__, slot.__get__)
            for i, slot in enumerate(getattr(cls, name) for name in cls._context)
        )

    def __init__(self, context: tuple, terms: dict | None = None):
        """The checked constructor: each key goes through _key, and zero
        coefficients are dropped."""
        for i, set_slot, _ in self._context_slots:
            set_slot(self, context[i])
        clean = {}
        if terms:
            key = self._key
            for k, c in terms.items():
                k = key(k)
                if not c.is_zero():
                    clean[k] = c
        _set_terms(self, clean)

    def _key(self, key):
        return key

    def _constant(self, s):
        """s times the unit, for a space that has one; else None."""
        return None

    def _lift(self, other):
        """other as an element of this space, a scalar as a constant, or
        None."""
        if isinstance(other, type(self)):
            return other
        s = as_scalar(other)
        return None if s is None else self._constant(s)

    def _same_space(self, other) -> bool:
        return all(getattr(self, name) == getattr(other, name) for name in self._same)

    def _like(self, terms: dict):
        """An element of this one's space holding terms, unchecked."""
        context = [get_slot(self) for _, _, get_slot in self._context_slots]
        return wrap_terms(type(self), context, terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        context = [get_slot(self) for _, _, get_slot in self._context_slots]
        return type(self), (*context, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if not self._same_space(other):
            raise ValueError(self._mixed)
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, s):
        """s times every coefficient, for an int, Fraction or ring element
        s; products that vanish are dropped."""
        t = as_scalar(s)
        if t is not None:
            s = t
        out = {}
        for k, c in self.terms.items():
            v = c * s
            if not v.is_zero():
                out[k] = v
        return self._like(out)

    def __mul__(self, other):
        """Scalar multiplication; a subclass takes its own product first."""
        s = as_scalar(other)
        if s is None:
            return NotImplemented
        return self.scale(s)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._same_space(other) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


_new = object.__new__
_set_terms = SparseSum.terms.__set__


def wrap_terms(cls, context: tuple, terms: dict):
    """cls(*context, terms) without the checks, for a dict built through
    add_term or read off normalize_terms: no coefficient is zero and every
    key has its final form already.  The dict is kept, not copied."""
    x = _new(cls)
    for i, set_slot, _ in cls._context_slots:
        set_slot(x, context[i])
    _set_terms(x, terms)
    return x


def mat_mul(a, b):
    """The product of a (n x k) and b (k x m).  A zero entry a[i][s] is
    skipped, and so is every zero entry of row s of b: each output entry
    starts from ZERO and adds only products of two nonzero entries."""
    m = len(b[0]) if b else 0
    b_rows = [[(j, y) for j, y in enumerate(row) if not y.is_zero()] for row in b]
    out = []
    for a_row in a:
        row = [ZERO] * m
        for x, b_row in zip(a_row, b_rows):
            if not x.is_zero():
                for j, y in b_row:
                    row[j] = row[j] + x * y
        out.append(row)
    return out


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def det(a):
    """Determinant: the signed pivot product of the reduction; ONE, the
    empty product, for the 0 x 0 matrix."""
    n = len(a)
    pivots, product = _reduce([list(row) for row in a], n)
    return product if len(pivots) == n else ZERO


def inv(a):
    """Inverse: the right half of the reduced [A | I]; None when singular."""
    n = len(a)
    m = [list(row) + unit for row, unit in zip(a, identity(n))]
    pivots, _ = _reduce(m, n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in m]


def rref(a):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = [list(row) for row in a]
    pivots, _ = _reduce(m, len(m[0]) if m else 0)
    return m, pivots


def _reduce(m, ncols):
    """Gauss-Jordan reduction of the rows m, in place, with pivots taken in
    the first ncols columns: each pivot is the first nonzero entry of its
    column at or below the current row, its row is divided by it, and its
    column is cleared in every other row.  Returns (pivot columns, signed
    product of the pivots), the product being ONE when there is no pivot.

    A pivot row is zero left of its pivot, and its pivot becomes ONE and
    the pivot's column ZERO, so only its nonzero entries right of the pivot
    are divided and subtracted from the other rows: a diagonal matrix costs
    no division."""
    rows = len(m)
    pivots = []
    product = None
    sign = 1
    r = 0
    for c in range(ncols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if not m[i][c].is_zero()), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prow = m[r]
        pv = prow[c]
        product = pv if product is None else product * pv
        prow[c] = ONE
        support = [j for j in range(c + 1, len(prow)) if not prow[j].is_zero()]
        for j in support:
            prow[j] = prow[j] / pv
        for row in m:
            f = row[c]
            if row is not prow and not f.is_zero():
                row[c] = ZERO
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
    if product is None:
        return pivots, ONE
    return pivots, product if sign > 0 else -product
