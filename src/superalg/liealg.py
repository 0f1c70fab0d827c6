"""Finite-dimensional Lie superalgebras given by exact structure constants.

A LieSuperalgebra is an ordered basis with parities and a complete bracket
table over Q(i).  The gl(m|n) builder returns the algebra together with its
supertrace form and root decomposition; the basis is ordered

    negative root vectors < Cartan generators < positive root vectors

so that the enveloping-algebra normal form downstream can filter Cartan
monomials syntactically.

Vectors are sparse dicts {basis index: GaussianRational}.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import DegenerateForm, ParseError, ZeroTorusCoordinate
from .linalg import add_term, inv
from .scalars import GaussianRational, ONE, ZERO, gr

EVEN, ODD = 0, 1


def vec_add(u: dict, v: dict) -> dict:
    out = dict(u)
    for k, c in v.items():
        add_term(out, k, c)
    return out


def vec_scale(u: dict, s) -> dict:
    if isinstance(s, GaussianRational) and s.is_zero():
        return {}
    return {k: c * s for k, c in u.items()}


def vec_is_zero(u: dict) -> bool:
    return all(c.is_zero() for c in u.values())


class LieSuperalgebra:
    """Basis with parities plus the full bracket table c[i][j]."""

    def __init__(self, names, parities, table, meta=None, validate=True):
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
        if validate:
            self._validate_structure()

    @property
    def dim(self) -> int:
        return len(self.names)

    def parity(self, i: int) -> int:
        return self.parities[i]

    def bracket(self, i: int, j: int) -> dict:
        return self.table.get((i, j), {})

    def bracket_vec(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for i, ci in u.items():
            for j, cj in v.items():
                for k, c in self.bracket(i, j).items():
                    add_term(out, k, ci * cj * c)
        return out

    def _validate_structure(self):
        rep = check_structure(self)
        if not rep["pass"]:
            raise ValueError(f"invalid structure table: {rep['witness']}")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        brackets = []
        for (i, j) in sorted(self.table):
            if i > j:
                continue  # the (j,i) entry is determined by antisymmetry
            entry = [
                [list(_frac_json(c.re)), list(_frac_json(c.im)), k]
                for k, c in sorted(self.table[(i, j)].items())
            ]
            brackets.append({"i": i, "j": j, "result": entry})
        return {
            "generators": [
                {"name": nm, "parity": p} for nm, p in zip(self.names, self.parities)
            ],
            "brackets": brackets,
        }

    @classmethod
    def from_json(cls, data: dict, validate=True) -> "LieSuperalgebra":
        try:
            gens = data["generators"]
            names = [g["name"] for g in gens]
            parities = [int(g["parity"]) for g in gens]
            n = len(names)
            table: dict = {}
            for ent in data.get("brackets", []):
                i, j = int(ent["i"]), int(ent["j"])
                if not (0 <= i < n and 0 <= j < n):
                    raise ParseError(f"bracket entry ({i},{j}) out of range")
                vec = {}
                for item in ent["result"]:
                    re_part, im_part, k = item
                    k = int(k)
                    if not 0 <= k < n:
                        raise ParseError(f"bracket target {k} out of range")
                    c = GaussianRational(_frac_load(re_part), _frac_load(im_part))
                    if not c.is_zero():
                        vec[k] = c
                table[(i, j)] = vec
            # fill mirror entries not present, using super-antisymmetry
            for (i, j) in list(table):
                if (j, i) not in table:
                    sign = 1 if (parities[i] and parities[j]) else -1
                    table[(j, i)] = {k: c * sign for k, c in table[(i, j)].items()}
            return cls(names, parities, table, validate=validate)
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed algebra definition: {exc}") from exc


def _frac_json(fr):
    return (fr.numerator, fr.denominator)


def _frac_load(item):
    from fractions import Fraction

    if isinstance(item, int):
        return Fraction(item)
    if isinstance(item, (list, tuple)) and len(item) == 2:
        return Fraction(int(item[0]), int(item[1]))
    raise ParseError(f"bad rational encoding: {item!r}")


class QuadraticForm:
    """Invariant supersymmetric even non-degenerate bilinear form, as a
    Gram matrix on the algebra basis."""

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

    def b_vec(self, u: dict, v: dict) -> GaussianRational:
        acc = ZERO
        for i, ci in u.items():
            for j, cj in v.items():
                acc = acc + ci * cj * self.gram[i][j]
        return acc

    def validate(self, g: LieSuperalgebra) -> dict:
        """Check even / supersymmetric / invariant / non-degenerate."""
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
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.b_vec(g.bracket(i, j), {k: ONE})
                    rhs = self.b_vec({i: ONE}, g.bracket(j, k))
                    if lhs != rhs:
                        return {
                            "pass": False,
                            "check": "invariant",
                            "witness": [g.names[i], g.names[j], g.names[k]],
                        }
        if inv([list(r) for r in self.gram], ZERO, ONE) is None:
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
    prod_i z_i^(2 eps_i), i.e. exp(eps(Y)).
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
        self._weight_of = {r.index: r for r in self.roots}

    @property
    def rank(self) -> int:
        return len(self.cartan)

    def root_of_index(self, idx: int) -> Root | None:
        return self._weight_of.get(idx)

    def _split(self, parity, positive_only):
        ids = self.positives if positive_only else range(len(self.roots))
        return [self.roots[i] for i in ids if self.roots[i].parity == parity]

    @property
    def even_roots(self):
        return self._split(EVEN, False)

    @property
    def odd_roots(self):
        return self._split(ODD, False)

    @property
    def even_positives(self):
        return self._split(EVEN, True)

    @property
    def odd_positives(self):
        return self._split(ODD, True)

    def negative_of(self, root: Root) -> Root:
        """The opposite root with the same parity; roots come in +/- pairs."""
        target = tuple(-w for w in root.weight)
        for r in self.roots:
            if r.weight == target and r.parity == root.parity:
                return r
        raise ValueError(f"no opposite for root {root}")

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
            [int(h) for h in data["cartan"]],
            [
                Root(tuple(int(w) for w in r["weight"]), int(r["parity"]), int(r["index"]))
                for r in data["roots"]
            ],
            [int(p) for p in data["positives"]],
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
    for (a, b), i in eidx.items():
        if a == b:
            continue
        w = [0] * size
        w[a], w[b] = 1, -1
        roots.append(Root(tuple(w), parities[i], i))
    pos_ids = [ri for ri, r in enumerate(roots) if _is_positive_gl(r, eidx)]
    rs = RootSystem(cartan, roots, pos_ids)
    return g, form, rs


def _is_positive_gl(root: Root, eidx) -> bool:
    for (a, b), i in eidx.items():
        if i == root.index:
            return a < b
    raise ValueError("root index not in basis")


# ---------------------------------------------------------------------------
# Checks and torus action
# ---------------------------------------------------------------------------


def check_structure(g: LieSuperalgebra) -> dict:
    """Parity closure and super-antisymmetry of the bracket table."""
    n = g.dim
    for i in range(n):
        for j in range(n):
            b_ij = g.bracket(i, j)
            want = (g.parities[i] + g.parities[j]) % 2
            for k in b_ij:
                if g.parities[k] != want:
                    return {
                        "pass": False,
                        "check": "parity-closure",
                        "witness": f"[{g.names[i]},{g.names[j]}] hits {g.names[k]}",
                    }
            sign = -1 if not (g.parities[i] and g.parities[j]) else 1
            flipped = {k: c * sign for k, c in g.bracket(j, i).items()}
            if b_ij != flipped:
                return {
                    "pass": False,
                    "check": "super-antisymmetry",
                    "witness": f"({g.names[i]}, {g.names[j]})",
                }
    return {"pass": True, "check": "structure", "witness": None}


def check_jacobi(g: LieSuperalgebra) -> dict:
    """Super Jacobi in derivation form:
    [X,[Y,Z]] = [[X,Y],Z] + (-1)^{|X||Y|} [Y,[X,Z]] for all basis triples."""
    n = g.dim
    for i in range(n):
        for j in range(n):
            sign = -1 if (g.parities[i] and g.parities[j]) else 1
            for k in range(n):
                lhs = g.bracket_vec({i: ONE}, g.bracket(j, k))
                t1 = g.bracket_vec(g.bracket(i, j), {k: ONE})
                t2 = g.bracket_vec({j: ONE}, g.bracket(i, k))
                rhs = vec_add(t1, vec_scale(t2, gr(sign)))
                defect = vec_add(lhs, vec_scale(rhs, gr(-1)))
                if defect:
                    return {
                        "pass": False,
                        "witness": {
                            "triple": [g.names[i], g.names[j], g.names[k]],
                            "indices": [i, j, k],
                            "defect": {g.names[t]: str(c) for t, c in defect.items()},
                        },
                        "checked": n * n * n,
                    }
    return {"pass": True, "witness": None, "checked": n * n * n}


def ad_eigenvalue(rs: RootSystem, coords, index: int) -> GaussianRational:
    """Eigenvalue of Ad(a) on basis vector `index`: 1 on the Cartan part,
    prod_i z_i^(2 eps_i) on the root vector of weight eps."""
    for z in coords:
        if z.is_zero():
            raise ZeroTorusCoordinate("torus coordinates must be nonzero")
    if index in rs.cartan:
        return ONE
    root = rs.root_of_index(index)
    if root is None:
        raise ValueError(f"basis index {index} is neither Cartan nor a root vector")
    val = ONE
    for z, e in zip(coords, root.weight):
        if e:
            val = val * z ** (2 * e)
    return val


def ad_torus(rs: RootSystem, coords, v: dict) -> dict:
    """Ad(a) acting on a vector in the Cartan + root basis."""
    out = {}
    for idx, c in v.items():
        scaled = c * ad_eigenvalue(rs, coords, idx)
        if not scaled.is_zero():
            out[idx] = scaled
    return out


def theta_dual(form: QuadraticForm) -> list:
    """Matrix M with theta(V_i) = sum_k M[k][i] V_k and b(theta(V_i), V_j) = delta_ij.

    M is the inverse transpose of the Gram matrix; DegenerateForm if singular.
    """
    gi = inv([list(r) for r in form.gram], ZERO, ONE)
    if gi is None:
        raise DegenerateForm("gram matrix is singular")
    n = form.dim
    return [[gi[i][k] for i in range(n)] for k in range(n)]  # transpose of inverse


def theta_vec(form: QuadraticForm, i: int) -> dict:
    m = theta_dual(form)
    return {k: m[k][i] for k in range(form.dim) if not m[k][i].is_zero()}


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


def load_definition(text_or_dict):
    """Parse an algebra definition; returns dict with keys
    algebra, form (optional), root_system (optional), J (optional).
    Malformed input of any kind raises ParseError."""
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
    out = {"algebra": g}
    try:
        if "form" in data:
            out["form"] = QuadraticForm.from_json(data["form"])
            if out["form"].dim != g.dim:
                raise ValueError(f"form must be {g.dim} x {g.dim}")
        if "root_system" in data:
            out["root_system"] = RootSystem.from_json(data["root_system"])
            _check_root_system(out["root_system"], g)
        if "J" in data:
            out["J"] = [[GaussianRational.from_json(c) for c in row] for row in data["J"]]
            if len(out["J"]) != g.dim or any(len(row) != g.dim for row in out["J"]):
                raise ValueError(f"J must be square, {g.dim} x {g.dim}")
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed definition: {exc}") from exc
    return out


def _check_root_system(rs: RootSystem, g: LieSuperalgebra) -> None:
    """The Cartan (even) and root-vector indices split the basis with its
    parities, roots come in +/- pairs of one parity, and every weight
    satisfies the eigen-equations of the bracket table; ValueError if not."""
    parities = {h: EVEN for h in rs.cartan}
    parities.update((r.index, r.parity) for r in rs.roots)
    if len(rs.cartan) + len(rs.roots) != g.dim or parities != dict(enumerate(g.parities)):
        raise ValueError("root_system: Cartan and root indices must split the basis by parity")
    for r in rs.roots:
        rs.negative_of(r)
    eigen = rs.validate(g)
    if not eigen["pass"]:
        h, x = eigen["witness"]
        raise ValueError(f"root_system: weight of {x} contradicts the bracket [{h}, {x}]")
