"""Universal enveloping algebra with Poincare-Birkhoff-Witt normal form.

Monomials are tuples of (generator index, power) pairs, strictly increasing
in the index, polynomial in even generators and multilinear in odd ones
(an odd square rewrites eagerly through xx = [x,x]/2).  Normalization swaps
adjacent out-of-order generators via

    X Y = (-1)^{|X||Y|} Y X + [X, Y]

until the word is sorted; the result is independent of the swap strategy,
which the test suite exercises by running two different ones.

Coefficients are Q(i) scalars in ordinary use; any commutative ring object
with the same operator surface (torus functions in particular) works too.
"""

from __future__ import annotations

from fractions import Fraction

from .liealg import LieSuperalgebra, QuadraticForm, RootSystem, theta_dual
from .linalg import add_term
from .scalars import GaussianRational, ONE, ZERO, gr

Monomial = tuple  # ((gen, power), ...)

HALF = Fraction(1, 2)


def word_of(mon: Monomial) -> tuple:
    """Expand ((g,p),...) into the flat generator sequence."""
    out = []
    for g, p in mon:
        out.extend([g] * p)
    return tuple(out)


def monomial_of_sorted_word(word, parities) -> Monomial:
    mon = []
    for g in word:
        if mon and mon[-1][0] == g:
            mon[-1] = (g, mon[-1][1] + 1)
        else:
            mon.append((g, 1))
    for g, p in mon:
        if parities[g] and p > 1:
            raise ValueError("odd generator with power > 1 escaped rewriting")
    return tuple(mon)


def monomial_parity(mon: Monomial, parities) -> int:
    return sum(parities[g] * p for g, p in mon) % 2


def monomial_degree(mon: Monomial) -> int:
    return sum(p for _, p in mon)


def _find_violation(word, parities, strategy):
    rng = range(len(word) - 1)
    if strategy == "rightmost":
        rng = reversed(rng)
    for k in rng:
        a, b = word[k], word[k + 1]
        if a > b or (a == b and parities[a]):
            return k
    return -1


def normalize_terms(alg: LieSuperalgebra, items, strategy="leftmost") -> dict:
    """Rewrite (word, coeff) pairs to normal form; returns {monomial: coeff}."""
    parities = alg.parities
    out: dict = {}
    stack = [(tuple(w), c) for w, c in items]
    while stack:
        word, coeff = stack.pop()
        k = _find_violation(word, parities, strategy)
        if k < 0:
            add_term(out, monomial_of_sorted_word(word, parities), coeff)
            continue
        a, b = word[k], word[k + 1]
        head, tail = word[:k], word[k + 2 :]
        if a == b:
            # odd square: xx = [x,x]/2
            for g2, c2 in alg.bracket(a, a).items():
                stack.append((head + (g2,) + tail, coeff * c2 * HALF))
        else:
            sign = -1 if (parities[a] and parities[b]) else 1
            stack.append((head + (b, a) + tail, coeff * sign))
            for g2, c2 in alg.bracket(a, b).items():
                stack.append((head + (g2,) + tail, coeff * c2))
    return out


class PBWElement:
    """Element of the enveloping algebra in normal form."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: LieSuperalgebra, terms: dict | None = None):
        clean = {}
        if terms:
            for mon, c in terms.items():
                if not c.is_zero():
                    clean[tuple(mon)] = c
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PBWElement is immutable")

    def __reduce__(self):
        return PBWElement, (self.alg, self.terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def unit(cls, alg, coeff=ONE) -> "PBWElement":
        return cls(alg, {(): coeff})

    @classmethod
    def generator(cls, alg, i: int) -> "PBWElement":
        return cls(alg, {((i, 1),): ONE})

    @classmethod
    def from_vector(cls, alg, vec: dict) -> "PBWElement":
        return cls(alg, {((i, 1),): c for i, c in vec.items()})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((monomial_degree(m) for m in self.terms), default=0)

    def is_homogeneous(self) -> tuple:
        ps = {monomial_parity(m, self.alg.parities) for m in self.terms}
        if len(ps) > 1:
            return False, None
        return True, (ps.pop() if ps else 0)

    # -- arithmetic ----------------------------------------------------------

    def _coerce_scalar(self, other):
        if isinstance(other, (int, Fraction)):
            return gr(other)
        if isinstance(other, GaussianRational):
            return other
        return None

    def __add__(self, other):
        if isinstance(other, PBWElement):
            if other.alg is not self.alg:
                raise ValueError("elements of different algebras")
            out = dict(self.terms)
            for m, c in other.terms.items():
                add_term(out, m, c)
            return PBWElement(self.alg, out)
        s = self._coerce_scalar(other)
        if s is None:
            return NotImplemented
        return self + PBWElement.unit(self.alg, s)

    __radd__ = __add__

    def __neg__(self):
        return PBWElement(self.alg, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, PBWElement):
            return self + (-other)
        s = self._coerce_scalar(other)
        if s is None:
            return NotImplemented
        return self + PBWElement.unit(self.alg, -s)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PBWElement):
            return multiply(self, other)
        s = self._coerce_scalar(other)
        if s is None:
            return NotImplemented
        if s.is_zero():
            return PBWElement(self.alg, {})
        return PBWElement(self.alg, {m: c * s for m, c in self.terms.items()})

    def __rmul__(self, other):
        s = self._coerce_scalar(other)
        if s is None:
            return NotImplemented
        return self * s

    def __eq__(self, other):
        if not isinstance(other, PBWElement):
            return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.alg.names
        bits = []
        for mon in sorted(self.terms):
            c = self.terms[mon]
            word = "*".join(
                f"{names[g]}^{p}" if p > 1 else names[g] for g, p in mon
            )
            bits.append(f"({c})" + (f"*{word}" if word else ""))
        return " + ".join(bits)

    def to_json(self) -> list:
        out = []
        for mon in sorted(self.terms):
            c = self.terms[mon]
            out.append({"monomial": [[g, p] for g, p in mon], "coeff": _coeff_json(c)})
        return out

    @classmethod
    def from_json(cls, alg, data) -> "PBWElement":
        terms = {}
        for ent in data:
            mon = tuple((int(g), int(p)) for g, p in ent["monomial"])
            terms[mon] = GaussianRational.from_json(ent["coeff"])
        return cls(alg, terms)


def _coeff_json(c):
    if isinstance(c, GaussianRational):
        return [
            [c.re.numerator, c.re.denominator],
            [c.im.numerator, c.im.denominator],
        ]
    raise TypeError("only Q(i) coefficients serialize to JSON")


def pbw_normalize(alg: LieSuperalgebra, word, coeff=ONE, strategy="leftmost") -> PBWElement:
    """Normal form of a single generator word with coefficient."""
    if isinstance(coeff, (int, Fraction)):
        coeff = gr(coeff)
    return PBWElement(alg, normalize_terms(alg, [(tuple(word), coeff)], strategy))


def multiply(x: PBWElement, y: PBWElement) -> PBWElement:
    if x.alg is not y.alg:
        raise ValueError("elements of different algebras")
    items = []
    for m1, c1 in x.terms.items():
        w1 = word_of(m1)
        for m2, c2 in y.terms.items():
            items.append((w1 + word_of(m2), c1 * c2))
    return PBWElement(x.alg, normalize_terms(x.alg, items))


def super_commutator(x: PBWElement, y: PBWElement) -> PBWElement:
    """[x, y] = xy - (-1)^{|x||y|} yx, taken termwise on monomial parities."""
    alg = x.alg
    out = PBWElement(alg, {})
    for m1, c1 in x.terms.items():
        p1 = monomial_parity(m1, alg.parities)
        for m2, c2 in y.terms.items():
            p2 = monomial_parity(m2, alg.parities)
            sign = -1 if (p1 and p2) else 1
            w1, w2 = word_of(m1), word_of(m2)
            part = normalize_terms(
                alg, [(w1 + w2, c1 * c2), (w2 + w1, c1 * c2 * (-sign))]
            )
            out = out + PBWElement(alg, part)
    return out


# ---------------------------------------------------------------------------
# Casimir and center
# ---------------------------------------------------------------------------


def casimir2(g: LieSuperalgebra, form: QuadraticForm) -> PBWElement:
    """Order-two Casimir: sum_{i,k} b(theta(V_i), theta(V_k)) V_k V_i.

    The product order is transposed against the form arguments.  With the
    order V_i V_k the element fails centrality already on gl(1|1) (the
    commutator with E21 is -4 E21 E11 - 4 E21 E22, checked by hand); the
    transposed order is central on every builder and coincides with the
    standard supertrace Casimir sum (-1)^{|b|} E_ab E_ba.  Only odd-odd
    coefficients are affected, so the even Cartan part is unchanged.
    """
    m = theta_dual(form)  # may raise DegenerateForm
    n = g.dim
    # b(theta(V_i), theta(V_k)) = (M^T G M)[i][k]
    items = []
    for i in range(n):
        for k in range(n):
            acc = ZERO
            for a in range(n):
                if m[a][i].is_zero():
                    continue
                for c in range(n):
                    acc = acc + m[a][i] * form.gram[a][c] * m[c][k]
            if not acc.is_zero():
                items.append(((k, i), acc))
    return PBWElement(g, normalize_terms(g, items))


def is_central(c: PBWElement, g: LieSuperalgebra) -> dict:
    """Check [c, X_i] = 0 for every basis generator; exact, with witness."""
    for i in range(g.dim):
        comm = super_commutator(c, PBWElement.generator(g, i))
        if not comm.is_zero():
            return {
                "pass": False,
                "witness": {"generator": g.names[i], "index": i, "value": repr(comm)},
            }
    return {"pass": True, "witness": None}


def gelfand_invariant(g: LieSuperalgebra, k: int) -> PBWElement:
    """Order-k Gelfand invariant of gl(m|n):

        sum (-1)^{|a_2|+...+|a_k|} E_{a1 a2} E_{a2 a3} ... E_{ak a1}

    Only builds the element; is_central certifies it.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    if g.meta.get("builder") != "gl":
        raise ValueError("gelfand invariants need a gl(m|n) builder output")
    m, n = g.meta["m"], g.meta["n"]
    size = m + n
    eidx = g.meta["eidx"]

    def par(a):
        return 0 if a < m else 1

    items = []
    idx = [0] * k
    while True:
        word = tuple(
            eidx[(idx[s], idx[(s + 1) % k])] for s in range(k)
        )
        sign = (-1) ** sum(par(a) for a in idx[1:])
        items.append((word, gr(sign)))
        # odometer over indices
        pos = k - 1
        while pos >= 0:
            idx[pos] += 1
            if idx[pos] < size:
                break
            idx[pos] = 0
            pos -= 1
        if pos < 0:
            break
    return PBWElement(g, normalize_terms(g, items))


def project_to_cartan(c: PBWElement, rs: RootSystem) -> dict:
    """Keep monomials supported on Cartan generators, as a commutative
    polynomial {exponent tuple over Cartan positions: coefficient}."""
    cartan_pos = {idx: pos for pos, idx in enumerate(rs.cartan)}
    t = rs.rank
    out: dict = {}
    for mon, coeff in c.terms.items():
        if all(g in cartan_pos for g, _ in mon):
            exps = [0] * t
            for g, p in mon:
                exps[cartan_pos[g]] += p
            add_term(out, tuple(exps), coeff)
    return out


def cartan_poly_eval(poly: dict, values) -> GaussianRational:
    """Evaluate a Cartan polynomial at scalar values (H_pos -> values[pos])."""
    total = ZERO
    for exps, c in poly.items():
        term = c
        for v, e in zip(values, exps):
            for _ in range(e):
                term = term * v
        total = total + term
    return total
