"""Z2-graded block matrices with Berezinian.

A SuperMatrix of shape (p|q) stores the four blocks

    [ A  B ]      A: p x p   B: p x q
    [ C  D ]      C: q x p   D: q x q

over a declared commutative scalar ring (Q(i) scalars by default, torus
functions allowed).  The Berezinian is det(A - B D^-1 C) * det(D)^-1 and
requires the odd-odd block D to be invertible.
"""

from __future__ import annotations

from .errors import SingularOddBlock
from .linalg import det, identity, inv, mat_mul
from .scalars import ONE, ZERO


def _freeze(rows):
    return tuple(tuple(r) for r in rows)


class SuperMatrix:
    __slots__ = ("p", "q", "a", "b", "c", "d", "zero", "one")

    def __init__(self, p, q, a, b, c, d, zero=ZERO, one=ONE):
        if len(a) != p or any(len(r) != p for r in a):
            raise ValueError("block A has wrong shape")
        if len(b) != p or any(len(r) != q for r in b):
            raise ValueError("block B has wrong shape")
        if len(c) != q or any(len(r) != p for r in c):
            raise ValueError("block C has wrong shape")
        if len(d) != q or any(len(r) != q for r in d):
            raise ValueError("block D has wrong shape")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", _freeze(a))
        object.__setattr__(self, "b", _freeze(b))
        object.__setattr__(self, "c", _freeze(c))
        object.__setattr__(self, "d", _freeze(d))
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "one", one)

    def __setattr__(self, name, value):
        raise AttributeError("SuperMatrix is immutable")

    def __reduce__(self):
        return SuperMatrix, (self.p, self.q, self.a, self.b, self.c, self.d,
                             self.zero, self.one)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_full(cls, p, q, rows, zero=ZERO, one=ONE):
        a = [row[:p] for row in rows[:p]]
        b = [row[p:] for row in rows[:p]]
        c = [row[:p] for row in rows[p:]]
        d = [row[p:] for row in rows[p:]]
        return cls(p, q, a, b, c, d, zero, one)

    @classmethod
    def identity(cls, p, q, zero=ZERO, one=ONE):
        return cls.from_full(p, q, identity(p + q, zero, one), zero, one)

    @classmethod
    def diagonal(cls, evens, odds, zero=ZERO, one=ONE):
        p, q = len(evens), len(odds)
        rows = identity(p + q, zero, one)
        for i, v in enumerate(evens):
            rows[i][i] = v
        for j, v in enumerate(odds):
            rows[p + j][p + j] = v
        return cls.from_full(p, q, rows, zero, one)

    # -- views ------------------------------------------------------------

    def full(self):
        rows = []
        for i in range(self.p):
            rows.append(list(self.a[i]) + list(self.b[i]))
        for j in range(self.q):
            rows.append(list(self.c[j]) + list(self.d[j]))
        return rows

    def is_block_diagonal(self) -> bool:
        off = [x for row in self.b for x in row] + [x for row in self.c for x in row]
        return all(x.is_zero() for x in off)

    # -- algebra ------------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if (self.p, self.q) != (other.p, other.q):
            raise ValueError("shape mismatch")
        prod = mat_mul(self.full(), other.full(), self.zero)
        return SuperMatrix.from_full(self.p, self.q, prod, self.zero, self.one)

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (
            (self.p, self.q) == (other.p, other.q)
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.p, self.q, self.a, self.b, self.c, self.d))

    def berezinian(self):
        """det(A - B D^-1 C) / det(D); raises SingularOddBlock if det(D) = 0."""
        if self.q == 0:
            return det(self.a, self.zero)
        dinv = inv(self.d, self.zero, self.one)
        if dinv is None:
            raise SingularOddBlock("odd-odd block is singular")
        det_d = det(self.d, self.zero)
        if self.p == 0:
            return self.one / det_d
        bc = mat_mul(mat_mul(self.b, dinv, self.zero), self.c, self.zero)
        schur = [
            [self.a[i][j] - bc[i][j] for j in range(self.p)] for i in range(self.p)
        ]
        return det(schur, self.zero) / det_d

    def __repr__(self):
        return f"SuperMatrix(p={self.p}, q={self.q})"


def berezinian(m: SuperMatrix):
    return m.berezinian()
