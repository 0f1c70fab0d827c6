"""Even supermatrices over a purely even ring, with Berezinian.

A SuperMatrix of shape (p|q) stores its two even blocks

    [ A  0 ]      A: p x p
    [ 0  D ]      D: q x q

An even supermatrix has odd entries in its off-diagonal blocks.  The
scalars here are Q(i) or torus functions, which are all even, so the only
odd entry is 0 and the off-diagonal blocks vanish: two blocks are the
whole matrix.  The identity constructor fills the blocks with
scalars.ZERO and scalars.ONE; torus-function entries still work, since
their operators coerce a Q(i) scalar operand.  The Berezinian is
det(A) / det(D) and requires the odd-odd block D to be invertible.
"""

from __future__ import annotations

from .errors import SingularOddBlock
from .linalg import det, identity, mat_mul


def _square(rows, name):
    rows = tuple(tuple(r) for r in rows)
    if any(len(r) != len(rows) for r in rows):
        raise ValueError(f"block {name} is not square")
    return rows


class SuperMatrix:
    __slots__ = ("a", "d")

    def __init__(self, a, d):
        object.__setattr__(self, "a", _square(a, "A"))
        object.__setattr__(self, "d", _square(d, "D"))

    def __setattr__(self, name, value):
        raise AttributeError("SuperMatrix is immutable")

    def __reduce__(self):
        return SuperMatrix, (self.a, self.d)

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def q(self) -> int:
        return len(self.d)

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, p, q):
        return cls(identity(p), identity(q))

    # -- algebra ------------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if (self.p, self.q) != (other.p, other.q):
            raise ValueError("shape mismatch")
        return SuperMatrix(mat_mul(self.a, other.a), mat_mul(self.d, other.d))

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return self.a == other.a and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.d))

    def berezinian(self):
        """det(A) / det(D); raises SingularOddBlock if det(D) = 0."""
        det_d = det(self.d)
        if det_d.is_zero():
            raise SingularOddBlock("odd-odd block is singular")
        return det(self.a) / det_d

    def __repr__(self):
        return f"SuperMatrix(p={self.p}, q={self.q})"
