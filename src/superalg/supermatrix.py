"""Z2-graded block matrices with Berezinian.

A SuperMatrix of shape (p|q) stores the four blocks

    [ A  B ]      A: p x p   B: p x q
    [ C  D ]      C: q x p   D: q x q

over Q(i): the identity and diagonal constructors fill the blocks with
scalars.ZERO and scalars.ONE.  Torus-function entries still work, since
their operators coerce a Q(i) scalar operand.  The Berezinian is
det(A - B D^-1 C) * det(D)^-1 and requires the odd-odd block D to be
invertible.
"""

from __future__ import annotations

from .errors import SingularOddBlock
from .linalg import det, identity, inv, mat_mul
from .scalars import ONE


def _freeze(rows):
    return tuple(tuple(r) for r in rows)


def _is_zero_block(rows):
    return all(x.is_zero() for row in rows for x in row)


class SuperMatrix:
    __slots__ = ("p", "q", "a", "b", "c", "d")

    def __init__(self, p, q, a, b, c, d):
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

    def __setattr__(self, name, value):
        raise AttributeError("SuperMatrix is immutable")

    def __reduce__(self):
        return SuperMatrix, (self.p, self.q, self.a, self.b, self.c, self.d)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_full(cls, p, q, rows):
        a = [row[:p] for row in rows[:p]]
        b = [row[p:] for row in rows[:p]]
        c = [row[:p] for row in rows[p:]]
        d = [row[p:] for row in rows[p:]]
        return cls(p, q, a, b, c, d)

    @classmethod
    def identity(cls, p, q):
        return cls.from_full(p, q, identity(p + q))

    @classmethod
    def diagonal(cls, evens, odds):
        p, q = len(evens), len(odds)
        rows = identity(p + q)
        for i, v in enumerate(evens):
            rows[i][i] = v
        for j, v in enumerate(odds):
            rows[p + j][p + j] = v
        return cls.from_full(p, q, rows)

    # -- views ------------------------------------------------------------

    def full(self):
        rows = []
        for i in range(self.p):
            rows.append(list(self.a[i]) + list(self.b[i]))
        for j in range(self.q):
            rows.append(list(self.c[j]) + list(self.d[j]))
        return rows

    def is_block_diagonal(self) -> bool:
        return _is_zero_block(self.b) and _is_zero_block(self.c)

    # -- algebra ------------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if (self.p, self.q) != (other.p, other.q):
            raise ValueError("shape mismatch")
        return SuperMatrix.from_full(self.p, self.q, mat_mul(self.full(), other.full()))

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
        """det(A - B D^-1 C) / det(D); raises SingularOddBlock if det(D) = 0.

        When B or C is zero, B D^-1 C vanishes and the value is
        det(A) / det(D), with D never inverted.  That covers every even
        supermatrix over a purely even ring such as Q(i) or the torus
        functions: with no odd scalars, its off-diagonal blocks are zero."""
        if self.q == 0:
            return det(self.a)
        det_d = det(self.d)
        if det_d.is_zero():
            raise SingularOddBlock("odd-odd block is singular")
        if self.p == 0:
            return ONE / det_d
        if _is_zero_block(self.b) or _is_zero_block(self.c):
            return det(self.a) / det_d
        bc = mat_mul(mat_mul(self.b, inv(self.d)), self.c)
        schur = [
            [self.a[i][j] - bc[i][j] for j in range(self.p)] for i in range(self.p)
        ]
        return det(schur) / det_d

    def __repr__(self):
        return f"SuperMatrix(p={self.p}, q={self.q})"


def berezinian(m: SuperMatrix):
    return m.berezinian()
