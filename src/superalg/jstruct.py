"""Almost complex structures on Lie superalgebras and algebra-level
universal complexification.

A JStructure is an even (parity-preserving) rational-coefficient map J on
the basis with J^2 = -Id.  Compatibility with the bracket means
[JX, Y] = J[X, Y] = [X, JY]; when that holds the Nijenhuis tensor

    N(X, Y) = [X,Y] + J([JX,Y] + [X,JY]) - [JX,JY]

vanishes and the two eigenspace families of J (over Q(i)) bracket to zero
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotAlmostComplex, NotAnIdeal
from .liealg import LieSuperalgebra, check_jacobi
from .linalg import add_scaled, add_term, rref
from .scalars import I, ONE, ZERO, gr


class JStructure:
    """Square matrix J[k][i]: J(e_i) = sum_k J[k][i] e_k, also kept as the
    sparse columns {k: J[k][i]} that apply sums."""

    def __init__(self, matrix):
        self.matrix = tuple(tuple(row) for row in matrix)
        n = len(self.matrix)
        if any(len(r) != n for r in self.matrix):
            raise ValueError("J matrix must be square")
        self.columns = tuple(
            {k: row[i] for k, row in enumerate(self.matrix) if not row[i].is_zero()}
            for i in range(n)
        )

    @property
    def dim(self):
        return len(self.matrix)

    def apply(self, v: dict) -> dict:
        out: dict = {}
        for i, c in v.items():
            add_scaled(out, self.columns[i], c)
        return out

    def squares_to_minus_id(self) -> bool:
        n = self.dim
        for i in range(n):
            v = self.apply(self.apply({i: ONE}))
            if v != {i: gr(-1)}:
                return False
        return True


def validate_J(g: LieSuperalgebra, j: JStructure) -> dict:
    """J^2 = -Id, parity preservation, and [X_a, J X_b] = J[X_a, X_b]
    (ad X o J = J o ad X), witnessed by the first failing pair in index
    order.  g must pass check_structure, as the builders', realify's and
    from_json's tables do; then [J X_a, X_b] = J[X_a, X_b] is the checked
    identity at (b, a) by super-antisymmetry, J being even."""
    n = g.dim
    if j.dim != n:
        return {"pass": False, "check": "shape", "witness": None}
    for i in range(n):
        for k in range(n):
            if g.parities[i] != g.parities[k] and not j.matrix[k][i].is_zero():
                return {
                    "pass": False,
                    "check": "parity-preserving",
                    "witness": [g.names[k], g.names[i]],
                }
    if not j.squares_to_minus_id():
        return {"pass": False, "check": "J^2=-Id", "witness": None}
    for a in range(n):
        for b in range(n):
            if g.bracket_vec({a: ONE}, j.columns[b]) != j.apply(g.bracket(a, b)):
                return {
                    "pass": False,
                    "check": "J-linearity",
                    "witness": [g.names[a], g.names[b]],
                }
    return {"pass": True, "witness": None}


def nijenhuis(g: LieSuperalgebra, j: JStructure, a: int, b: int) -> dict:
    """N(X_a, X_b) as a coefficient vector; zero iff no obstruction."""
    jx, jy = j.columns[a], j.columns[b]
    mixed = g.bracket_vec(jx, {b: ONE})
    add_scaled(mixed, g.bracket_vec({a: ONE}, jy), ONE)
    out = dict(g.bracket(a, b))
    add_scaled(out, j.apply(mixed), ONE)
    add_scaled(out, g.bracket_vec(jx, jy), gr(-1))
    return out


def nijenhuis_report(g: LieSuperalgebra, j: JStructure) -> dict:
    for a in range(g.dim):
        for b in range(g.dim):
            n = nijenhuis(g, j, a, b)
            if n:
                return {
                    "pass": False,
                    "witness": {
                        "pair": [g.names[a], g.names[b]],
                        "value": {g.names[k]: str(c) for k, c in n.items()},
                    },
                }
    return {"pass": True, "witness": None}


def _row_basis(rows) -> tuple:
    """(basis, pivots): the nonzero rows of rref(rows) as sparse vectors,
    and their pivot columns."""
    red, pivots = rref(rows)
    basis = [{c: x for c, x in enumerate(row) if not x.is_zero()} for row in red[: len(pivots)]]
    return basis, pivots


def eigen_split(g: LieSuperalgebra, j: JStructure):
    """Bases of the (+i)- and (-i)-eigenspaces of J over Q(i).

    The first family spans {v - i Jv}: J(v - iJv) = i (v - iJv).  Each
    family has complex dimension dim/2; a maximal independent subset is
    selected by row reduction.
    """
    if not j.squares_to_minus_id():
        raise NotAlmostComplex("J^2 != -Id")
    n = g.dim

    def build(sign):
        rows = []
        for k in range(n):
            vec = {k: ONE}
            add_scaled(vec, j.columns[k], I * gr(-sign))
            rows.append([vec.get(c, ZERO) for c in range(n)])
        return _row_basis(rows)[0]

    plus = build(1)   # v - iJv, eigenvalue +i
    minus = build(-1)  # v + iJv, eigenvalue -i
    return plus, minus


def check_eigenspace_brackets(g: LieSuperalgebra, j: JStructure) -> dict:
    """All brackets between the two eigenfamilies must vanish.

    eigen_split has certified J^2 = -Id, so J is exactly +i and -i on the
    two families and [u, v] is the one comparison to make.  A J with
    J^2 != -Id has no such eigenspaces and fails the check.
    """
    try:
        plus, minus = eigen_split(g, j)
    except NotAlmostComplex:
        return {"pass": False, "check": "J^2=-Id", "witness": None}
    for ui, u in enumerate(plus):
        for vi, v in enumerate(minus):
            if g.bracket_vec(u, v):
                return {
                    "pass": False,
                    "check": "cross-bracket",
                    "witness": {"plus": ui, "minus": vi},
                }
    return {"pass": True, "witness": None}


# ---------------------------------------------------------------------------
# Complexification and restriction of scalars
# ---------------------------------------------------------------------------


@dataclass
class ComplexifiedPair:
    algebra: LieSuperalgebra
    kept_indices: list = field(default_factory=list)
    jacobi_report: dict | None = None


def _as_vectors(g: LieSuperalgebra, gens) -> list:
    out = []
    for item in gens:
        if isinstance(item, int):
            out.append({item: ONE})
        elif isinstance(item, dict):
            out.append(dict(item))
        else:
            raise ValueError("ideal generators are indices or coefficient vectors")
    return out


def complexify(g: LieSuperalgebra, p=()) -> ComplexifiedPair:
    """Quotient scalar extension (g tensor C) / ideal(p) for even p.

    With empty p this is the plain scalar extension (the table is already
    written over Q(i)).  Raises NotAnIdeal when p contains odd components
    or is not closed under bracketing with the whole algebra.
    """
    vectors = _as_vectors(g, p)
    n = g.dim
    for v in vectors:
        for k, c in v.items():
            if c.is_zero():
                continue
            if g.parities[k] != 0:
                raise NotAnIdeal(
                    f"ideal generators must be even; {g.names[k]} is odd"
                )
    if not vectors:
        return ComplexifiedPair(g, list(range(n)), check_jacobi(g))

    basis, pivots = _row_basis([[v.get(c, ZERO) for c in range(n)] for v in vectors])

    def reduce_mod(vec: dict) -> dict:
        out = dict(vec)
        for r, piv in enumerate(pivots):
            c = out.get(piv)
            if c is not None:
                add_scaled(out, basis[r], -c)
        return out

    # ideal check: [g, p] subset span(p)
    for i in range(n):
        for v in basis:
            residue = reduce_mod(g.bracket_vec({i: ONE}, v))
            if residue:
                raise NotAnIdeal(
                    f"[{g.names[i]}, ideal] leaves the span of the ideal"
                )

    kept = [i for i in range(n) if i not in pivots]
    pos = {old: new for new, old in enumerate(kept)}
    table = {}
    for ii, i in enumerate(kept):
        for jj, jx in enumerate(kept):
            vec = reduce_mod(g.bracket(i, jx))
            out = {}
            for k, c in vec.items():
                if k not in pos:
                    raise NotAnIdeal("quotient bracket not well defined")
                out[pos[k]] = c
            if out:
                table[(ii, jj)] = out
    quotient = LieSuperalgebra(
        [g.names[i] for i in kept], [g.parities[i] for i in kept], table
    )
    return ComplexifiedPair(quotient, kept, check_jacobi(quotient))


def realify(g: LieSuperalgebra):
    """Restriction of scalars: double the basis with iV copies.

    Returns (real algebra, canonical J = multiplication by i).  Structure
    constants of the result are real; parities are inherited.
    """
    n = g.dim
    names = list(g.names) + [f"i*{nm}" for nm in g.names]
    parities = list(g.parities) * 2

    def expand(vec: dict, extra_i: int) -> dict:
        """Map sum c_k V_k (times i^extra_i) into the doubled basis."""
        out = {}
        for k, c in vec.items():
            val = c * (I ** extra_i)
            add_term(out, k, gr(val.re))
            add_term(out, n + k, gr(val.im))
        return out

    table = {}
    for i in range(n):
        for j in range(n):
            br = g.bracket(i, j)
            if not br:
                continue
            table[(i, j)] = expand(br, 0)
            table[(i, n + j)] = expand(br, 1)
            table[(n + i, j)] = expand(br, 1)
            table[(n + i, n + j)] = expand(br, 2)
    real = LieSuperalgebra(names, parities, table)
    jm = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        jm[n + k][k] = ONE      # J(V) = iV
        jm[k][n + k] = gr(-1)   # J(iV) = -V
    return real, JStructure(jm)
