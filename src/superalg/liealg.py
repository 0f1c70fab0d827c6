"""Finite-dimensional Lie superalgebras given by exact structure constants.

A LieSuperalgebra is an ordered basis with parities and a complete bracket
table over Q(i).  The gl(m|n) builder returns the algebra together with its
supertrace form and root decomposition; the basis is ordered

    negative root vectors < Cartan generators < positive root vectors

so that the enveloping-algebra normal form downstream can filter Cartan
monomials syntactically.

Vectors are sparse dicts {basis index: GaussianRational}; every sum of
them accumulates into one dict through linalg.add_term or add_scaled.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import DegenerateForm, ParseError
from .linalg import add_scaled, add_term, inv, rref
from .scalars import GaussianRational, ONE, ZERO, gr, json_fraction, json_int

EVEN, ODD = 0, 1

# Largest |entry| of a root weight a definition file may carry.  gl(m|n)
# weights are 0 and +-1; Ad eigenvalues raise coordinates to twice the
# weight, so an unbounded entry makes every torus computation explode.
MAX_ROOT_WEIGHT = 64


class LieSuperalgebra:
    """Basis with parities plus the full bracket table c[i][j].

    Its views right and structure are derived on first use and kept.
    load_definition checks a file's table with check_structure."""

    def __init__(self, names, parities, table, meta=None):
        self.names = tuple(names)
        self.parities = tuple(int(p) for p in parities)
        if len(self.names) != len(self.parities):
            raise ValueError("names/parities length mismatch")
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0 or 1")
        clean = {}
        for (i, j), vec in table.items():
            v = {k: c for k, c in vec.items() if not c.is_zero()}
            if v:
                clean[(i, j)] = v
        self.table = clean
        self.meta = dict(meta) if meta else {}

    @property
    def dim(self) -> int:
        return len(self.names)

    def bracket(self, i: int, j: int) -> dict:
        return self.table.get((i, j), {})

    @cached_property
    def right(self) -> dict:
        """right[x] = {k: [X_x, X_k]} over the k with a nonzero bracket, in k
        order; right[x].get(t) is bracket(x, t)."""
        right: dict = {}
        for x, k in sorted(self.table):
            right.setdefault(x, {})[k] = self.table[(x, k)]
        return right

    @cached_property
    def structure(self) -> dict:
        """check_structure's report, witness the first failing pair."""
        for i in range(self.dim):
            for j in range(self.dim):
                b_ij = self.bracket(i, j)
                want = (self.parities[i] + self.parities[j]) % 2
                for k in b_ij:
                    if self.parities[k] != want:
                        return {
                            "pass": False,
                            "check": "parity-closure",
                            "witness": f"[{self.names[i]},{self.names[j]}] hits {self.names[k]}",
                        }
                if b_ij != _mirrored(self.parities, j, i, self.bracket(j, i)):
                    return {
                        "pass": False,
                        "check": "super-antisymmetry",
                        "witness": f"({self.names[i]}, {self.names[j]})",
                    }
        return {"pass": True, "check": "structure", "witness": None}

    def bracket_vec(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for i, ci in u.items():
            for j, cj in v.items():
                for k, c in self.bracket(i, j).items():
                    add_term(out, k, ci * cj * c)
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """Generators and brackets.  An entry (i, j) with i > j is left out
        when super-antisymmetry fills it in from (j, i) on loading.  A table
        that breaks super-antisymmetry, which build loads unchecked, keeps
        every other entry, an empty one included, so it loads back as the
        same table."""
        brackets = []
        for (i, j) in sorted(set(self.table) | {(j, i) for i, j in self.table}):
            vec = self.bracket(i, j)
            if i > j and vec == _mirrored(self.parities, j, i, self.bracket(j, i)):
                continue
            entry = [[*c.to_json_pairs(), k] for k, c in sorted(vec.items())]
            brackets.append({"i": i, "j": j, "result": entry})
        return {
            "generators": [
                {"name": nm, "parity": p} for nm, p in zip(self.names, self.parities)
            ],
            "brackets": brackets,
        }

    @classmethod
    def from_json(cls, data: dict) -> "LieSuperalgebra":
        """The algebra a definition's generators and brackets give; ParseError
        when they are malformed or an ordered pair (i, j) is given twice."""
        try:
            gens = data["generators"]
            if not gens:
                raise ParseError("an algebra needs at least one generator")
            names = [g["name"] for g in gens]
            for k, nm in enumerate(names):
                if type(nm) is not str:
                    raise ValueError(f"generator name must be a JSON string, got {nm!r}")
                if nm in names[:k]:
                    raise ParseError(f"generator name {nm!r} is repeated")
            parities = [json_int(g["parity"]) for g in gens]
            n = len(names)
            table: dict = {}
            for ent in data.get("brackets", []):
                i, j = json_int(ent["i"]), json_int(ent["j"])
                if not (0 <= i < n and 0 <= j < n):
                    raise ParseError(f"bracket entry ({i},{j}) out of range")
                if (i, j) in table:
                    raise ParseError(f"bracket entry [{names[i]}, {names[j]}] is repeated")
                vec = {}
                for item in ent["result"]:
                    re_part, im_part, k = item
                    k = json_int(k)
                    if not 0 <= k < n:
                        raise ParseError(f"bracket target {k} out of range")
                    c = GaussianRational(_frac_load(re_part), _frac_load(im_part))
                    if not c.is_zero():
                        vec[k] = c
                table[(i, j)] = vec
            # fill mirror entries not present, using super-antisymmetry
            for (i, j) in list(table):
                if (j, i) not in table:
                    table[(j, i)] = _mirrored(parities, i, j, table[(i, j)])
            return cls(names, parities, table)
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed algebra definition: {exc}") from exc


def _mirrored(parities, i, j, vec: dict) -> dict:
    """The entry (j, i) that super-antisymmetry gives for vec = [X_i, X_j]:
    vec times -(-1)^{|i||j|}."""
    sign = 1 if (parities[i] and parities[j]) else -1
    return {k: c * sign for k, c in vec.items()}


def _frac_load(item):
    """A rational part of a bracket coefficient: an integer or [num, den]."""
    return Fraction(item) if type(item) is int else json_fraction(item)


class QuadraticForm:
    """Invariant supersymmetric even non-degenerate bilinear form, as a
    Gram matrix on the algebra basis; its inverse is kept on first use."""

    def __init__(self, gram):
        self.gram = tuple(tuple(row) for row in gram)
        n = len(self.gram)
        if any(len(r) != n for r in self.gram):
            raise ValueError("gram matrix must be square")

    @property
    def dim(self):
        return len(self.gram)

    def b(self, i: int, j: int) -> GaussianRational:
        return self.gram[i][j]

    @cached_property
    def gram_inverse(self):
        """The inverse of the Gram matrix; None when it is singular."""
        return inv([list(r) for r in self.gram])

    def validate(self, g: LieSuperalgebra) -> dict:
        """Check even / supersymmetric / invariant / non-degenerate; the
        witness of a failing check is its first pair or triple in index
        order.  Invariance, b([X_i, X_j], X_k) = b(X_i, [X_j, X_k]), is
        compared for all k of a pair (i, j) at once, on sparse vectors."""
        n = self.dim
        if n != g.dim:
            return {"pass": False, "witness": "dimension mismatch"}
        for i in range(n):
            for j in range(n):
                if g.parities[i] != g.parities[j] and not self.gram[i][j].is_zero():
                    return {
                        "pass": False,
                        "check": "even",
                        "witness": [g.names[i], g.names[j]],
                    }
                sign = -1 if (g.parities[i] and g.parities[j]) else 1
                if self.gram[i][j] != self.gram[j][i] * sign:
                    return {
                        "pass": False,
                        "check": "supersymmetric",
                        "witness": [g.names[i], g.names[j]],
                    }
        # b([X_i, X_j], X_k) and b(X_i, [X_j, X_k]) as sparse vectors in k:
        # the first from the nonzero Gram rows, the second from the k with
        # [X_j, X_k] != 0
        rows = [{k: c for k, c in enumerate(row) if not c.is_zero()} for row in self.gram]
        for i in range(n):
            row_i = rows[i]
            for j in range(n):
                lhs: dict = {}
                for t, c in g.bracket(i, j).items():
                    add_scaled(lhs, rows[t], c)
                rhs: dict = {}
                for k, vec in g.right.get(j, {}).items():
                    for t, c in vec.items():
                        b = row_i.get(t)
                        if b is not None:
                            add_term(rhs, k, c * b)
                if lhs != rhs:
                    k = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
                    return {
                        "pass": False,
                        "check": "invariant",
                        "witness": [g.names[i], g.names[j], g.names[k]],
                    }
        if self.gram_inverse is None:
            return {"pass": False, "check": "non-degenerate", "witness": None}
        return {"pass": True, "witness": None}

    def to_json(self):
        return [[c.to_json() for c in row] for row in self.gram]

    @classmethod
    def from_json(cls, data):
        return cls(
            [[GaussianRational.from_json(c) for c in row] for row in data]
        )


class Root(NamedTuple):
    weight: tuple  # integer vector in half-weight exponents, length t
    parity: int
    index: int  # basis index of the root vector


class RootSystem:
    """Even Cartan basis plus one-dimensional root spaces.

    Weights live in Z^t with the convention that the torus coordinate
    q_i = exp(y_i/2) acts on the root vector X_eps through the eigenvalue
    prod_i z_i^(2 eps_i), i.e. exp(eps(Y)): torus.TorusElement.ad(eps).

    After its two checks the constructor derives each view once: even_roots
    and odd_roots in roots order, even_positives and odd_positives in
    positives order, the Jacobian frame even_basis (Cartan, even roots) and
    odd_basis, weights (index -> weight) and the first root of each
    (weight, parity), which negative_of reads.  Pairing is not checked:
    negative_of raises ValueError on a root without an opposite.
    """

    def __init__(self, cartan, roots, positives):
        self.cartan = tuple(cartan)
        self.roots = tuple(roots)
        self.positives = tuple(positives)
        t = len(self.cartan)
        for r in self.roots:
            if len(r.weight) != t:
                raise ValueError("weight length must match Cartan rank")
        if not set(self.positives) <= set(range(len(self.roots))):
            raise ValueError("positives must index into roots")
        pos = [self.roots[i] for i in self.positives]
        self.even_roots = tuple(r for r in self.roots if r.parity == EVEN)
        self.odd_roots = tuple(r for r in self.roots if r.parity == ODD)
        self.even_positives = tuple(r for r in pos if r.parity == EVEN)
        self.odd_positives = tuple(r for r in pos if r.parity == ODD)
        self.even_basis = self.cartan + tuple(r.index for r in self.even_roots)
        self.odd_basis = tuple(r.index for r in self.odd_roots)
        self.weights = {r.index: r.weight for r in self.roots}
        self.weights.update((h, (0,) * t) for h in self.cartan)
        # reversed, so that the first root of each key is written last
        self._first = {(r.weight, r.parity): r for r in reversed(self.roots)}

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @property
    def simple_roots(self):
        """The positive roots that are not a sum of two positive roots."""
        pos = [self.roots[i] for i in self.positives]
        weights = {r.weight for r in pos}
        return [
            r
            for r in pos
            if not any(
                tuple(a - b for a, b in zip(r.weight, u.weight)) in weights for u in pos
            )
        ]

    def negative_of(self, root: Root) -> Root:
        """The first root of the opposite weight and the same parity; roots
        come in +/- pairs."""
        opposite = self._first.get((tuple(-w for w in root.weight), root.parity))
        if opposite is None:
            raise ValueError(f"no opposite for root {root}")
        return opposite

    def validate(self, g: LieSuperalgebra) -> dict:
        """Eigen-equations [H_c, X_eps] = eps_c X_eps for every root."""
        for pos, h in enumerate(self.cartan):
            for r in self.roots:
                got = g.bracket(h, r.index)
                want = {r.index: gr(r.weight[pos])} if r.weight[pos] else {}
                if got != want:
                    return {
                        "pass": False,
                        "witness": [g.names[h], g.names[r.index]],
                    }
        return {"pass": True, "witness": None}

    def to_json(self):
        return {
            "cartan": list(self.cartan),
            "roots": [
                {"weight": list(r.weight), "parity": r.parity, "index": r.index}
                for r in self.roots
            ],
            "positives": list(self.positives),
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            [json_int(h) for h in data["cartan"]],
            [
                Root(
                    tuple(json_int(w) for w in r["weight"]),
                    json_int(r["parity"]),
                    json_int(r["index"]),
                )
                for r in data["roots"]
            ],
            [json_int(p) for p in data["positives"]],
        )


# ---------------------------------------------------------------------------
# gl(m|n) builder
# ---------------------------------------------------------------------------


def build_gl(m: int, n: int):
    """gl(m|n) on elementary matrices E_ab, supertrace form, type I roots.

    Basis order: negative root vectors (a > b), then the diagonal Cartan
    E_aa, then positive root vectors (a < b); within each group by (a, b).
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    size = m + n

    def par(a):
        return EVEN if a < m else ODD

    negatives = [(a, b) for a in range(size) for b in range(size) if a > b]
    cartan_pairs = [(a, a) for a in range(size)]
    positives_p = [(a, b) for a in range(size) for b in range(size) if a < b]
    order = sorted(negatives) + cartan_pairs + sorted(positives_p)
    eidx = {ab: i for i, ab in enumerate(order)}
    sep = "" if size <= 9 else "_"
    names = [f"E{a + 1}{sep}{b + 1}" for a, b in order]
    parities = [(par(a) + par(b)) % 2 for a, b in order]

    # [E_ab, E_cd] = delta_bc E_ad - (-1)^{|ab||cd|} delta_da E_cb
    table: dict = {}
    for (a, b), i in eidx.items():
        for (c, d), j in eidx.items():
            vec: dict = {}
            if b == c:
                add_term(vec, eidx[(a, d)], ONE)
            if d == a:
                koszul = -1 if (parities[i] and parities[j]) else 1
                add_term(vec, eidx[(c, b)], gr(-koszul))
            if vec:
                table[(i, j)] = vec

    g = LieSuperalgebra(
        names,
        parities,
        table,
        meta={"builder": "gl", "m": m, "n": n, "eidx": eidx},
    )

    # supertrace form b(E_ab, E_cd) = delta_bc delta_da (-1)^{|a|}
    gram = [[ZERO] * len(order) for _ in order]
    for (a, b), i in eidx.items():
        for (c, d), j in eidx.items():
            if b == c and d == a:
                gram[i][j] = gr(1) if par(a) == EVEN else gr(-1)
    form = QuadraticForm(gram)

    cartan = [eidx[(a, a)] for a in range(size)]
    roots = []
    pos_ids = []
    for (a, b), i in eidx.items():
        if a == b:
            continue
        if a < b:
            pos_ids.append(len(roots))
        w = [0] * size
        w[a], w[b] = 1, -1
        roots.append(Root(tuple(w), parities[i], i))
    rs = RootSystem(cartan, roots, pos_ids)
    return g, form, rs


# ---------------------------------------------------------------------------
# Checks and torus action
# ---------------------------------------------------------------------------


def check_structure(g: LieSuperalgebra) -> dict:
    """Parity closure and super-antisymmetry of the table, kept on g."""
    return g.structure


def check_jacobi(g: LieSuperalgebra) -> dict:
    """Super Jacobi in derivation form:
    [X,[Y,Z]] = [[X,Y],Z] + (-1)^{|X||Y|} [Y,[X,Z]] for all basis triples.

    For each pair (i, j) the defects of every k are accumulated at once from
    the adjacency lists g.right, so only the k where some bracket is
    nonzero are visited.  Each defect receives its terms in the
    order a triple-at-a-time loop would add them, and the witness is the
    least failing k of the first failing pair.

    On a table that passes check_structure only the sorted triples
    i <= j <= k are visited.  There the Jacobiator J(x, y, z) is graded
    alternating (Kac 1977): super-antisymmetry gives
    J(y, x, z) = -(-1)^{|x||y|} J(x, y, z), and, as parity closure makes
    every bracket homogeneous, J(x, z, y) = -(-1)^{|y||z|} J(x, y, z).  So
    a triple fails exactly when its sorted permutation does, and the first
    failing triple of the scan over all ordered triples, the least in
    index order, is sorted: the witness, its indices and the order of its
    defect's terms are those of the full scan, and checked still counts
    the n^3 triples certified.  A table that fails check_structure, as a
    file given to build or check-jacobi may, is scanned over every ordered
    triple.  The structure report is g's, shared with every other reader."""
    n = g.dim
    right = g.right
    alternating = check_structure(g)["pass"]
    for i in range(n):
        right_i = right.get(i, {})
        for j in range(i if alternating else 0, n):
            low = j if alternating else 0
            right_j = right.get(j, {})
            sign = ONE if (g.parities[i] and g.parities[j]) else -ONE
            # defects[k] = [X_i,[X_j,X_k]] - [[X_i,X_j],X_k] - (-1)^{|i||j|} [X_j,[X_i,X_k]]
            defects: dict = {}
            for k, vec in right_j.items():
                if k >= low:
                    for t, c in vec.items():
                        if t in right_i:
                            add_scaled(defects.setdefault(k, {}), right_i[t], c)
            for t, c in right_i.get(j, {}).items():
                for k, vec in right.get(t, {}).items():
                    if k >= low:
                        add_scaled(defects.setdefault(k, {}), vec, -c)
            for k, vec in right_i.items():
                if k >= low:
                    for t, c in vec.items():
                        if t in right_j:
                            add_scaled(defects.setdefault(k, {}), right_j[t], c * sign)
            failing = [k for k, defect in defects.items() if defect]
            if failing:
                k = min(failing)
                return {
                    "pass": False,
                    "witness": {
                        "triple": [g.names[i], g.names[j], g.names[k]],
                        "indices": [i, j, k],
                        "defect": {g.names[t]: str(c) for t, c in defects[k].items()},
                    },
                    "checked": n * n * n,
                }
    return {"pass": True, "witness": None, "checked": n * n * n}


def generating_set(g: LieSuperalgebra, rs: RootSystem) -> tuple:
    """Basis indices that generate g as a Lie superalgebra: the root vectors
    of the simple roots, positive then negative, then the Cartan generators
    in index order that their closure (see generates) needs to span the
    Cartan; every index when the simple root vectors do not reach every
    root.  On gl(m|n) that is 2(m+n)-1 of the (m+n)^2 generators: the
    simple root vectors reach every root and the supertrace-zero part of
    the Cartan (Kac 1977), and E11 is added."""
    simple = rs.simple_roots
    gens = [r.index for r in simple] + [rs.negative_of(r).index for r in simple]
    reached, rows = _closure(g, rs, gens)
    if len(reached) < len(rs.roots):
        return tuple(range(g.dim))
    return tuple(gens) + _cartan_completion(rs, rows)


def generates(g: LieSuperalgebra, rs: RootSystem, gens) -> bool:
    """Whether the basis elements gens provably generate g: their closure
    reaches every root vector and spans the Cartan."""
    reached, rows = _closure(g, rs, gens)
    return len(reached) == len(rs.roots) and not _cartan_completion(rs, rows)


def _closure(g: LieSuperalgebra, rs: RootSystem, gens):
    """(root vectors reached, Cartan rows) of the bracket closure of gens.

    The closure is tracked on root indices.  A bracket of two reached root
    vectors that is a multiple of one root vector reaches that root; one
    that lies in the Cartan adds a row, a vector {column: coeff} over the
    Cartan generators in index order, as does each Cartan generator in
    gens.  Every other bracket is left out: a Cartan element brackets a
    root vector into its own line, and under the root grading (root spaces
    are one-dimensional, and super Jacobi with the eigen-equations makes
    [X_a, X_b] lie in weight a + b) nothing else remains.  Leaving a bracket
    out only shrinks what is recorded, so a closure that reaches every root
    and whose rows have rank t spans g whatever the table."""
    column = {h: c for c, h in enumerate(sorted(rs.cartan))}
    reached = [i for i in dict.fromkeys(gens) if i not in column]
    rows = [{column[i]: ONE} for i in dict.fromkeys(gens) if i in column]
    seen = set(reached)
    for k, x in enumerate(reached):  # reached grows while it is walked
        for y in reached[: k + 1]:
            vec = g.bracket(x, y)
            if not vec:
                continue
            if vec.keys() <= column.keys():
                rows.append({column[h]: c for h, c in vec.items()})
            elif len(vec) == 1:
                (z,) = vec
                if z not in seen:
                    seen.add(z)
                    reached.append(z)
    return reached, rows


def _cartan_completion(rs: RootSystem, rows) -> tuple:
    """The Cartan generators, in index order, that extend the span of rows
    to the whole Cartan: the pivot columns past the rows in one rref of the
    t x (len(rows) + t) matrix whose columns are the rows and then the unit
    vectors of the Cartan generators."""
    cartan = sorted(rs.cartan)
    n = len(rows)
    matrix = [
        [row.get(p, ZERO) for row in rows] + [ONE if q == p else ZERO for q in range(len(cartan))]
        for p in range(len(cartan))
    ]
    _, pivots = rref(matrix)
    return tuple(cartan[c - n] for c in pivots if c >= n)


def theta_dual(form: QuadraticForm) -> list:
    """Matrix M with theta(V_i) = sum_k M[k][i] V_k and b(theta(V_i), V_j) = delta_ij.

    M is the inverse transpose of the Gram matrix; DegenerateForm if singular.
    """
    gi = form.gram_inverse
    if gi is None:
        raise DegenerateForm("gram matrix is singular")
    n = form.dim
    return [[gi[i][k] for i in range(n)] for k in range(n)]  # transpose of inverse


# ---------------------------------------------------------------------------
# Algebra definition files
# ---------------------------------------------------------------------------


def dump_definition(g: LieSuperalgebra, form=None, rs=None, j_matrix=None) -> dict:
    data = g.to_json()
    if form is not None:
        data["form"] = form.to_json()
    if rs is not None:
        data["root_system"] = rs.to_json()
    if j_matrix is not None:
        data["J"] = [[c.to_json() for c in row] for row in j_matrix]
    return data


def load_definition(text_or_dict, validate=True):
    """Parse an algebra definition; returns dict with keys
    algebra, form (optional), root_system (optional), J (optional).
    Malformed input of any kind raises ParseError.  validate=False skips
    the two checks that build reports as rows instead: check_structure on
    the bracket table and the eigen-equations of the root system."""
    if isinstance(text_or_dict, str):
        try:
            data = json.loads(text_or_dict)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    else:
        data = text_or_dict
    if not isinstance(data, dict):
        raise ParseError("a definition is a JSON object")
    g = LieSuperalgebra.from_json(data)
    if validate and not check_structure(g)["pass"]:
        raise ParseError(
            f"malformed algebra definition: invalid structure table: {g.structure['witness']}"
        )
    out = {"algebra": g}
    try:
        if "form" in data:
            out["form"] = QuadraticForm.from_json(data["form"])
            if out["form"].dim != g.dim:
                raise ValueError(f"form must be {g.dim} x {g.dim}")
        if "root_system" in data:
            out["root_system"] = RootSystem.from_json(data["root_system"])
            _check_root_system(out["root_system"], g, validate)
        if "J" in data:
            out["J"] = [[GaussianRational.from_json(c) for c in row] for row in data["J"]]
            if len(out["J"]) != g.dim or any(len(row) != g.dim for row in out["J"]):
                raise ValueError(f"J must be square, {g.dim} x {g.dim}")
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed definition: {exc}") from exc
    return out


def _check_root_system(rs: RootSystem, g: LieSuperalgebra, validate=True) -> None:
    """The Cartan (even) and root-vector indices split the basis with its
    parities, roots come in +/- pairs of one parity, positives holds exactly
    one root of each pair and no root twice, every weight satisfies
    the eigen-equations (skipped when validate is False), no weight entry
    exceeds MAX_ROOT_WEIGHT in absolute value, and every bracket [X, Y]
    lies in weight w_X + w_Y; else ValueError."""
    parities = {h: EVEN for h in rs.cartan}
    parities.update((r.index, r.parity) for r in rs.roots)
    if len(rs.cartan) + len(rs.roots) != g.dim or parities != dict(enumerate(g.parities)):
        raise ValueError("root_system: Cartan and root indices must split the basis by parity")
    for r in rs.roots:
        rs.negative_of(r)
    positive_pairs = [_pair_of(rs.roots[p]) for p in rs.positives]
    for r in rs.roots:
        if positive_pairs.count(_pair_of(r)) != 1:
            raise ValueError(
                f"root_system: positives must hold exactly one of {g.names[r.index]} "
                "and its opposite"
            )
    if validate:
        eigen = rs.validate(g)
        if not eigen["pass"]:
            h, x = eigen["witness"]
            raise ValueError(
                f"root_system: weight of {x} contradicts the bracket [{h}, {x}]"
            )
    for r in rs.roots:
        if any(abs(w) > MAX_ROOT_WEIGHT for w in r.weight):
            raise ValueError(
                f"root_system: weight of {g.names[r.index]} has an entry beyond "
                f"+-{MAX_ROOT_WEIGHT}"
            )
    for (i, j), vec in g.table.items():
        w = tuple(a + b for a, b in zip(rs.weights[i], rs.weights[j]))
        if any(rs.weights[k] != w for k in vec):
            raise ValueError(f"root_system: [{g.names[i]}, {g.names[j]}] leaves weight {list(w)}")


def _pair_of(r: Root) -> tuple:
    """The +/- pair of r: its parity and the set {w, -w} of its weight."""
    return r.parity, frozenset((r.weight, tuple(-w for w in r.weight)))
