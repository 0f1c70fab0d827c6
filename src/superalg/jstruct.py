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
from .liealg import LieSuperalgebra, vec_add, vec_scale
from .linalg import add_term, rref
from .scalars import GaussianRational, I, ONE, ZERO, gr


class JStructure:
    """Square matrix J[k][i]: J(e_i) = sum_k J[k][i] e_k."""

    def __init__(self, matrix):
        self.matrix = tuple(tuple(row) for row in matrix)
        n = len(self.matrix)
        if any(len(r) != n for r in self.matrix):
            raise ValueError("J matrix must be square")

    @property
    def dim(self):
        return len(self.matrix)

    def apply(self, v: dict) -> dict:
        out: dict = {}
        for i, c in v.items():
            for k in range(self.dim):
                m = self.matrix[k][i]
                if m.is_zero():
                    continue
                add_term(out, k, c * m)
        return out

    def squares_to_minus_id(self) -> bool:
        n = self.dim
        for i in range(n):
            v = self.apply(self.apply({i: ONE}))
            if v != {i: gr(-1)}:
                return False
        return True

    def to_json(self):
        return [[c.to_json() for c in row] for row in self.matrix]

    @classmethod
    def from_json(cls, data):
        return cls([[GaussianRational.from_json(c) for c in row] for row in data])


def validate_J(g: LieSuperalgebra, j: JStructure) -> dict:
    """J^2 = -Id, parity preservation, and J-linearity of the bracket."""
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
            jx_y = g.bracket_vec(j.apply({a: ONE}), {b: ONE})
            x_jy = g.bracket_vec({a: ONE}, j.apply({b: ONE}))
            j_xy = j.apply(g.bracket(a, b))
            if jx_y != j_xy or x_jy != j_xy:
                return {
                    "pass": False,
                    "check": "J-linearity",
                    "witness": [g.names[a], g.names[b]],
                }
    return {"pass": True, "witness": None}


def nijenhuis(g: LieSuperalgebra, j: JStructure, a: int, b: int) -> dict:
    """N(X_a, X_b) as a coefficient vector; zero iff no obstruction."""
    x, y = {a: ONE}, {b: ONE}
    jx, jy = j.apply(x), j.apply(y)
    term1 = g.bracket(a, b)
    term2 = j.apply(vec_add(g.bracket_vec(jx, y), g.bracket_vec(x, jy)))
    term3 = g.bracket_vec(jx, jy)
    return vec_add(vec_add(term1, term2), vec_scale(term3, gr(-1)))


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
            jv = j.apply({k: ONE})
            vec = vec_add({k: ONE}, vec_scale(jv, I * gr(-sign)))
            rows.append([vec.get(c, ZERO) for c in range(n)])
        red, pivots = rref(rows, ZERO)
        basis = []
        for r in range(len(pivots)):
            basis.append({c: red[r][c] for c in range(n) if not red[r][c].is_zero()})
        return basis

    plus = build(1)   # v - iJv, eigenvalue +i
    minus = build(-1)  # v + iJv, eigenvalue -i
    return plus, minus


def check_eigenspace_brackets(g: LieSuperalgebra, j: JStructure) -> dict:
    """All brackets between the two eigenfamilies must vanish.

    Also re-derives the vanishing mechanism: on eigenvectors J-linearity
    forces i[u,v] = [Ju,v] = [u,Jv] = -i[u,v], so the J-linearity of the
    bracket on the eigenbasis pairs is checked alongside the direct sweep.
    """
    plus, minus = eigen_split(g, j)
    for ui, u in enumerate(plus):
        for vi, v in enumerate(minus):
            if g.bracket_vec(u, v):
                return {
                    "pass": False,
                    "check": "cross-bracket",
                    "witness": {"plus": ui, "minus": vi},
                }
            ju_v = g.bracket_vec(j.apply(u), v)
            u_jv = g.bracket_vec(u, j.apply(v))
            if ju_v != u_jv:
                return {
                    "pass": False,
                    "check": "J-linearity-on-eigenvectors",
                    "witness": {"plus": ui, "minus": vi},
                }
    return {"pass": True, "witness": None}


# ---------------------------------------------------------------------------
# Complexification and restriction of scalars
# ---------------------------------------------------------------------------


@dataclass
class ComplexifiedPair:
    algebra: LieSuperalgebra
    ideal_basis: list = field(default_factory=list)
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
        rep = _jacobi_report(g)
        return ComplexifiedPair(g, [], list(range(n)), rep)

    rows = [[v.get(c, ZERO) for c in range(n)] for v in vectors]
    red, pivots = rref(rows, ZERO)
    basis = [
        {c: red[r][c] for c in range(n) if not red[r][c].is_zero()}
        for r in range(len(pivots))
    ]

    def reduce_mod(vec: dict) -> dict:
        out = dict(vec)
        for r, piv in enumerate(pivots):
            c = out.get(piv)
            if c is not None and not c.is_zero():
                out = vec_add(out, vec_scale(basis[r], -c))
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
        [g.names[i] for i in kept],
        [g.parities[i] for i in kept],
        table,
        meta={"quotient_of": g.meta.get("builder", "custom")},
    )
    rep = _jacobi_report(quotient)
    return ComplexifiedPair(quotient, basis, kept, rep)


def _jacobi_report(g: LieSuperalgebra) -> dict:
    from .liealg import check_jacobi

    return check_jacobi(g)


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
    real = LieSuperalgebra(names, parities, table, meta={"realified": True})
    jm = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        jm[n + k][k] = ONE      # J(V) = iV
        jm[k][n + k] = gr(-1)   # J(iV) = -V
    return real, JStructure(jm)
