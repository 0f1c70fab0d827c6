"""The smash product of the torus group algebra with the enveloping algebra,
with its full Hopf-superalgebra structure.

Group support is the maximal torus only: Ad of a torus point acts on each
root vector by the exact scalar prod_i z_i^(2 eps_i) and fixes the Cartan,
so every operation below stays inside Q(i).

The product rule is (x1 # y1)(x2 # y2) = (x1 x2) # (Ad(x2^-1)(y1) y2);
the coproduct makes torus points group-like and algebra generators
primitive; the antipode is s(g # X) = -g^-1 # Ad(g)(X) on degree-one
tensors, s(g # 1) = g^-1 # 1, extended as an algebra antihomomorphism with
Koszul signs, which antipode evaluates in closed form.

The coproduct has two independent computations.  coproduct(u) is the
algebra-map definition, multiplied out factor by factor through
TensorElement products.  coproduct_leg expands one leg of a tensor by the
closed-form super-shuffle coproduct (_shuffle_split): binomials for the
powers of each letter, a Koszul sign for each odd letter sent left past an
odd letter sent right.  The coassociativity check applies the closed form
to each leg of the definition's Delta(u), so it compares the two.

Every key of every element holds a torus point, and every term of
Delta(a # m) carries the same point a on both legs, so the antipode axioms
meet one point, its inverse and their Ad eigenvalues once per term.  That
work is done once per point instead, and kept on the point
(torus.TorusElement): SmashAlgebra.ad_monomial looks up each letter's
weight w in the root system's weights, derived once when the root system
is built, and reads a.ad(w) off the point.

The product of two terms skips the work its trivial legs make redundant: no
Ad scalar for an identity point on the right or an empty monomial on the
left, no torus product with the identity, and no PBW rewriting when either
monomial is empty.

Conjugation is taken through the product as well (conjugation_pullback),
and jacobian_at reads the gamma oracle's Jacobian off it, so its Ad scalars
are those of the product rule that check_hopf_axioms certifies.

The antipode axioms m (Id x s) Delta(u) and m (s x Id) Delta(u) need the
same antipodes: Delta(a # m) splits m into complementary sub-monomials at
the one point a, so the left legs and the right legs of Delta(u) form one
set.  _antipode_convolutions builds the one-term element of each distinct
leg and its antipode once, and computes both sides from them.

SmashElement and TensorElement are linalg.SparseSum subclasses.  Sums of
elements (the coproduct, the antipode convolutions) accumulate into one
dict with linalg.add_term and wrap it in an element once.  The layer's own
results are wrapped unchecked, by linalg.wrap_terms: add_term drops every
zero sum and normalize_terms returns no zero coefficient, so the dicts
they build hold nothing that the checks of the public constructors would
remove.
"""

from __future__ import annotations

from math import comb

from .errors import DegenerateForm, DegreeTooHigh
from .liealg import LieSuperalgebra, QuadraticForm, RootSystem
from .linalg import SparseSum, add_term, inv, mat_mul, wrap_terms
from .pbw import (
    Monomial,
    monomial_degree,
    monomial_label,
    monomial_parity,
    normalize_terms,
    word_of,
)
from .scalars import GaussianRational, I, ONE, ZERO, gr
from .supermatrix import SuperMatrix
from .torus import TorusElement

_MINUS_ONE = gr(-1)


class SmashAlgebra:
    """Context object tying a type I algebra to its torus action.

    weights is the root system's own map RootSystem.weights, not a copy:
    each root vector's basis index to its weight, each Cartan generator's
    to the zero weight; nothing in the algebra changes after it is built."""

    def __init__(self, g: LieSuperalgebra, rs: RootSystem):
        self.g = g
        self.rs = rs
        self.t = rs.rank
        self.weights = rs.weights

    def unit(self) -> "SmashElement":
        return SmashElement(
            self, {(TorusElement.identity(self.t), ()): ONE}
        )

    def group_like(self, a: TorusElement) -> "SmashElement":
        return SmashElement(self, {(a, ()): ONE})

    def primitive(self, i: int) -> "SmashElement":
        e = TorusElement.identity(self.t)
        return SmashElement(self, {(e, ((i, 1),)): ONE})

    def element(self, a: TorusElement, mon: Monomial, coeff=ONE) -> "SmashElement":
        return SmashElement(self, {(a, tuple(mon)): coeff})

    def ad_monomial(self, a: TorusElement, mon: Monomial) -> GaussianRational:
        """Eigenvalue of Ad(a) on the PBW monomial (acts factorwise)."""
        val = ONE
        for gen, p in mon:
            w = self.weights.get(gen)
            if w is None:
                raise ValueError(f"basis index {gen} is neither Cartan nor a root vector")
            ev = a.ad(w)
            for _ in range(p):
                val = val * ev
        return val


class SmashElement(SparseSum):
    """Finite Q(i)-combination of torus-point # PBW-monomial tensors.
    Equality reads the terms alone, so it holds across a pickled
    SmashAlgebra.  The checked constructor refuses, with ValueError, a key
    whose torus point does not have the algebra's rank; wrap_terms does not
    check."""

    __slots__ = ("alg",)
    _context = ("alg",)

    def __init__(self, alg: SmashAlgebra, terms: dict | None = None):
        super().__init__((alg,), terms)

    def _key(self, key):
        a, mon = key
        if len(a.coords) != self.alg.t:
            raise ValueError(
                f"rank {self.alg.t} of the algebra does not match the rank "
                f"{len(a.coords)} of the torus point {a!r}"
            )
        return a, tuple(mon)

    def __mul__(self, other):
        if isinstance(other, SmashElement):
            return smash_multiply(self, other)
        return super().__mul__(other)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.alg.g.names
        bits = []
        for (a, mon) in sorted(self.terms, key=lambda k: (k[1], k[0].coords.__repr__())):
            bits.append(f"({self.terms[(a, mon)]})*{_term_label(names, a, mon)}")
        return " + ".join(bits)


def _term_label(names, a: TorusElement, mon) -> str:
    """A smash term a # monomial as text, e.g. (2, 1)#E12*E21^2."""
    return f"{a!r}#{monomial_label(names, mon) or '1'}"


def _term_product(alg: SmashAlgebra, t1, t2) -> dict:
    """Product of two single terms; returns {(torus, monomial): coeff}.

    (a1 # m1)(a2 # m2) = Ad(a2^-1)(m1) * (a1 a2) # m1 m2.  Trivial legs take
    a shortcut: an identity a2 or an empty m1 gives the scale ONE, an
    identity a1 gives the point a2, and an empty monomial on either side
    leaves the other one, which is already normal, so no rewriting runs.
    """
    (a1, m1), (a2, m2) = t1, t2
    if a2.is_identity():
        scale, point = ONE, a1
    else:
        scale = alg.ad_monomial(a2.inverse(), m1) if m1 else ONE
        point = a2 if a1.is_identity() else a1 * a2
    if not m1 or not m2:
        return {(point, m1 or m2): scale}
    prod = normalize_terms(alg.g, [(word_of(m1) + word_of(m2), scale)])
    return {(point, mon): c for mon, c in prod.items()}


def smash_multiply(u: SmashElement, v: SmashElement) -> SmashElement:
    if u.alg is not v.alg:
        raise ValueError("elements of different smash algebras")
    out: dict = {}
    for k1, c1 in u.terms.items():
        for k2, c2 in v.terms.items():
            for key, c in _term_product(u.alg, k1, k2).items():
                add_term(out, key, c1 * c2 * c)
    return wrap_terms(SmashElement, (u.alg,), out)


def term_parity(alg: SmashAlgebra, key) -> int:
    return monomial_parity(key[1], alg.g.parities)


# ---------------------------------------------------------------------------
# Tensor powers (for the coalgebra axioms)
# ---------------------------------------------------------------------------


class TensorElement(SparseSum):
    """Element of the n-fold tensor power; keys are tuples of smash keys.
    Equality compares the leg count and the terms."""

    __slots__ = ("alg", "legs")
    _context = ("alg", "legs")
    _same = ("legs",)
    _mixed = "tensors with different leg counts"

    def __init__(self, alg: SmashAlgebra, legs: int, terms: dict | None = None):
        super().__init__((alg, legs), terms)

    def _key(self, key):
        if len(key) != self.legs:
            raise ValueError("tensor key with wrong number of legs")
        return key

    def __mul__(self, other):
        """Graded product of two-leg tensors, (x1 x x2)(y1 x y2) =
        (-1)^{|x2||y1|} x1 y1 x x2 y2; other leg counts are NotImplemented."""
        if not isinstance(other, TensorElement):
            return super().__mul__(other)
        if self.legs != 2 or other.legs != 2:
            return NotImplemented
        alg = self.alg
        out: dict = {}
        for (x1, x2), c1 in self.terms.items():
            odd_x2 = term_parity(alg, x2)
            for (y1, y2), c2 in other.terms.items():
                sign = _MINUS_ONE if odd_x2 and term_parity(alg, y1) else ONE
                c = c1 * c2 * sign
                lefts = _term_product(alg, x1, y1)
                rights = _term_product(alg, x2, y2)
                for k1, l1 in lefts.items():
                    for k2, l2 in rights.items():
                        add_term(out, (k1, k2), c * l1 * l2)
        return wrap_terms(TensorElement, (alg, 2), out)


def coproduct(u: SmashElement) -> TensorElement:
    """Algebra-map coproduct: torus points are group-like, generators
    primitive, extended multiplicatively with Koszul signs.  Each
    generator's primitive tensor is built once per call."""
    alg = u.alg
    e = TorusElement.identity(alg.t)
    one = (e, ())
    prims: dict = {}
    total: dict = {}
    for (a, mon), c in u.terms.items():
        acc = wrap_terms(TensorElement, (alg, 2), {((a, ()), (a, ())): ONE})
        for gen in word_of(mon):
            prim = prims.get(gen)
            if prim is None:
                x = (e, ((gen, 1),))
                prim = prims[gen] = wrap_terms(
                    TensorElement, (alg, 2), {(x, one): ONE, (one, x): ONE}
                )
            acc = acc * prim
        for key, v in acc.terms.items():
            add_term(total, key, v * c)
    return wrap_terms(TensorElement, (alg, 2), total)


def _shuffle_split(mon: Monomial, parities) -> list:
    """Closed form of Delta(e # mon) = sum of k (e # left) x (e # right),
    as a list of (left, right, k) with k an int.

    Each letter X_i^{p_i} of the PBW monomial sends q_i of its copies to
    the left leg, in C(p_i, q_i) ways.  k is the product of the binomials
    times the Koszul sign: -1 for each odd letter sent left past an
    earlier odd letter sent right.  Odd letters occur at most once in a
    PBW monomial, and every sub-monomial of a PBW monomial is one, so no
    rewriting runs."""
    splits = [((), (), 1, 0)]  # left, right, k, odd letters sent right
    for gen, p in mon:
        odd = parities[gen]
        grown = []
        for left, right, k, n_right in splits:
            for q in range(p + 1):
                kq = k * comb(p, q)
                if odd and q and n_right % 2:
                    kq = -kq
                grown.append((
                    left + ((gen, q),) if q else left,
                    right + ((gen, p - q),) if q < p else right,
                    kq,
                    n_right + odd * (p - q),
                ))
        splits = grown
    return [(left, right, k) for left, right, k, _ in splits]


def coproduct_leg(t: TensorElement, leg: int) -> TensorElement:
    """Apply the coproduct to one leg of a tensor element (even map: no sign).

    A leg a # mon expands by the closed form _shuffle_split: torus points
    are group-like, so each split (left, right, k) gives the term
    k (a # left) x (a # right).  coassociativity compares these expansions
    of the two legs of coproduct(u), the algebra-map definition."""
    alg = t.alg
    parities = alg.g.parities
    out: dict = {}
    for key, c in t.terms.items():
        a, mon = key[leg]
        head, tail = key[:leg], key[leg + 1 :]
        for left, right, k in _shuffle_split(mon, parities):
            add_term(out, head + ((a, left), (a, right)) + tail, c if k == 1 else c * k)
    return wrap_terms(TensorElement, (alg, t.legs + 1), out)


def counit(u: SmashElement) -> GaussianRational:
    """Algebra map to scalars: eps(g # 1) = 1, eps vanishes in degree > 0."""
    acc = ZERO
    for (a, mon), c in u.terms.items():
        if not mon:
            acc = acc + c
    return acc


def antipode(u: SmashElement) -> SmashElement:
    """s(g#1) = g^-1 # 1, s(g#X) = -g^-1 # Ad(g)(X), antihomomorphic with
    Koszul signs, in closed form: s(g # X_1...X_k) is

        (-1)^k kappa ad_monomial(g, X_1...X_k) g^-1 # X_k...X_1,

    kappa = (-1)^(n(n-1)/2) the Koszul sign of reversing n odd letters.
    This equals the antihomomorphic extension whenever the brackets
    respect the root grading, as on gl(m|n) and every loaded root system:
    Ad(g) then scales every term of the rewritten word alike.  The reversed words at one torus
    point go through one normalize_terms call."""
    alg = u.alg
    parities = alg.g.parities
    by_point: dict = {}
    for (a, mon), c in u.terms.items():
        word = word_of(mon)
        n_odd = sum(parities[x] for x in word)
        c = c * alg.ad_monomial(a, mon)
        flips = len(word) + n_odd * (n_odd - 1) // 2
        by_point.setdefault(a, []).append((word[::-1], -c if flips % 2 else c))
    out: dict = {}
    for a, items in by_point.items():
        a_inv = a.inverse()
        for mon, c in normalize_terms(alg.g, items).items():
            out[(a_inv, mon)] = c
    return wrap_terms(SmashElement, (alg,), out)


# ---------------------------------------------------------------------------
# Hopf axiom verification
# ---------------------------------------------------------------------------


def _antipode_convolutions(delta: TensorElement) -> tuple:
    """(m (Id x s) Delta(u), m (s x Id) Delta(u)) from delta = Delta(u); both
    must equal the counit of u times the unit.

    Delta(a # m) is a sum of (a # l) x (a # r) over the splits of m into
    complementary sub-monomials l, r, and the complement of a sub-monomial
    is one, so the left legs and the right legs of Delta(u) are the same
    set.  The two sides therefore need the same antipodes: s(leg), and the
    one-term element of the leg it is taken of, are built once per distinct
    leg, a torus point and a monomial, and both sides read them.  Each term
    still costs one smash_multiply per side."""
    alg = delta.alg
    e: dict = {}  # {leg: e_leg}, the one-term element of the leg
    s: dict = {}  # {leg: s(e_leg)}
    right: dict = {}
    left: dict = {}
    for (k0, k1), c in delta.terms.items():
        for k in (k0, k1):
            if k not in s:
                e[k] = wrap_terms(SmashElement, (alg,), {k: ONE})
                s[k] = antipode(e[k])
        for out, x, y in ((right, e[k0], s[k1]), (left, s[k0], e[k1])):
            for key, v in smash_multiply(x, y).terms.items():
                add_term(out, key, v * c)
    return (
        wrap_terms(SmashElement, (alg,), right),
        wrap_terms(SmashElement, (alg,), left),
    )


def _counit_contract(t: TensorElement, leg: int) -> SmashElement:
    alg = t.alg
    out: dict = {}
    for key, c in t.terms.items():
        a, mon = key[leg]
        if mon:
            continue
        add_term(out, key[1 - leg], c)
    return SmashElement(alg, out)


def _twist(t: TensorElement) -> TensorElement:
    """Super flip on two legs: a x b -> (-1)^{|a||b|} b x a."""
    alg = t.alg
    out: dict = {}
    for (k1, k2), c in t.terms.items():
        sign = _MINUS_ONE if term_parity(alg, k1) and term_parity(alg, k2) else ONE
        add_term(out, (k2, k1), c * sign)
    return wrap_terms(TensorElement, (alg, 2), out)


def _first_difference(lhs, rhs) -> str:
    """The first term, by monomials and then torus points, whose coefficient
    differs between two smash or tensor elements, with both coefficients."""
    legs = (lambda key: (key,)) if isinstance(lhs, SmashElement) else (lambda key: key)
    key = min(
        (k for k in lhs.terms.keys() | rhs.terms.keys()
         if lhs.terms.get(k, ZERO) != rhs.terms.get(k, ZERO)),
        key=lambda k: tuple((mon, repr(a)) for a, mon in legs(k)),
    )
    names = lhs.alg.g.names
    term = " (x) ".join(_term_label(names, a, mon) for a, mon in legs(key))
    return f"{term}: {lhs.terms.get(key, ZERO)} vs {rhs.terms.get(key, ZERO)}"


def check_hopf_axioms(alg: SmashAlgebra, samples: int, seed: int, degree_cap: int = 2) -> dict:
    """Evaluate antipode identities, counit laws, coassociativity and super
    co-commutativity on seeded random elements; exact pass/fail.  failures
    holds the first failure of each failing check, in order of occurrence.
    Raises ValueError when samples < 1: a check of nothing does not pass."""
    from .sampling import rand_smash_element, rng

    if samples < 1:
        raise ValueError("samples must be at least 1")
    r = rng(seed)
    checks = {
        "antipode_right": 0,
        "antipode_left": 0,
        "counit_left": 0,
        "counit_right": 0,
        "coassociativity": 0,
        "super_cocommutativity": 0,
    }
    failures = []
    for trial in range(samples):
        u = rand_smash_element(alg, r, max_terms=3, degree_cap=degree_cap)
        unit_scaled = alg.unit().scale(counit(u))
        delta = coproduct(u)
        right, left = _antipode_convolutions(delta)
        sides = {
            "antipode_right": (right, unit_scaled),
            "antipode_left": (left, unit_scaled),
            "counit_left": (_counit_contract(delta, 0), u),
            "counit_right": (_counit_contract(delta, 1), u),
            "coassociativity": (coproduct_leg(delta, 0), coproduct_leg(delta, 1)),
            "super_cocommutativity": (_twist(delta), delta),
        }
        for name, (lhs, rhs) in sides.items():
            if lhs == rhs:
                checks[name] += 1
            elif checks[name] == trial:  # its first failure
                failures.append(
                    {"check": name, "trial": trial, "witness": repr(u),
                     "detail": _first_difference(lhs, rhs)}
                )
    return {
        "pass": not failures,
        "samples": samples,
        "seed": seed,
        "checks": checks,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Conjugation pullback and the Jacobian at (a, e)
# ---------------------------------------------------------------------------


def conjugation_pullback(
    alg: SmashAlgebra,
    a: TorusElement,
    mon_a: Monomial,
    b: TorusElement,
    mon_b: Monomial,
) -> SmashElement:
    """Pushforward of conjugation (first argument conjugated by the second)
    on tensors of degree <= 1, in the smash algebra: with x = a # X_a,

        (a # X_a, b # X_b) |-> (b # 1) [x, e # X_b] (b^-1 # 1)

    for X_b a generator, [x, y] = xy - (-1)^{|x||y|} yx, and
    (b # 1) x (b^-1 # 1) when X_b = 1.  Ad(e) = Id, so for b = e the middle
    factor is the result."""
    mon_a, mon_b = tuple(mon_a), tuple(mon_b)
    if monomial_degree(mon_a) > 1 or monomial_degree(mon_b) > 1:
        raise DegreeTooHigh("conjugation pullback takes monomials of degree <= 1")
    x = alg.element(a, mon_a)
    if mon_b:
        y = alg.primitive(mon_b[0][0])
        odd = monomial_parity(mon_a, alg.g.parities) and alg.g.parities[mon_b[0][0]]
        x = x * y + y * x if odd else x * y - y * x
    if b.is_identity():
        return x
    return alg.group_like(b) * x * alg.group_like(b.inverse())


def jacobian_at(alg: SmashAlgebra, a: TorusElement) -> SuperMatrix:
    """Linearization of conjugation at (a, e), read off conjugation_pullback
    in the frame rs.even_basis | rs.odd_basis: the column of a
    Cartan generator H is the image of (a # H, e # 1), that of a root
    vector X the image of (a # 1, e # X).  Each image is a sum of terms
    a # X' with X' a generator of the column's parity, so the columns fill
    the two dense even blocks."""
    e = TorusElement.identity(alg.t)
    blocks = []
    for ids in (alg.rs.even_basis, alg.rs.odd_basis):
        row = {idx: k for k, idx in enumerate(ids)}
        block = [[ZERO] * len(ids) for _ in ids]
        for col, idx in enumerate(ids):
            gen = ((idx, 1),)
            mon_a, mon_b = (gen, ()) if idx in alg.rs.cartan else ((), gen)
            image = conjugation_pullback(alg, a, mon_a, e, mon_b)
            for (_, mon), c in image.terms.items():
                block[row[mon[0][0]]][col] = c
        blocks.append(block)
    return SuperMatrix(*blocks)


def orthosymplectic_frame(rs: RootSystem, form: QuadraticForm):
    """Parity-preserving frame built from +/- root pairs.

    Even pairs contribute X_eps + X_-eps and i (X_eps - X_-eps); odd pairs
    form symplectic couples (X_beta, X_-beta / b(X_beta, X_-beta)).  The
    even vectors are left unnormalized: the normalizing constant would be a
    square root of 2 b(X_eps, X_-eps), which Q(i) does not contain.
    Returns (F_even, F_odd) as column matrices in the jacobian_at frame;
    DegenerateForm when an odd root pairs to zero with its opposite.
    """
    even_pos = {idx: k for k, idx in enumerate(rs.even_basis)}
    odd_pos = {idx: k for k, idx in enumerate(rs.odd_basis)}
    ne, no = len(even_pos), len(odd_pos)
    fe = [[ZERO] * ne for _ in range(ne)]
    fo = [[ZERO] * no for _ in range(no)]
    col = 0
    for h in rs.cartan:
        s = form.b(h, h)
        # scale by i when b(H,H) is a negative rational, pushing it to +
        vec = I if (s.is_real() and s.re < 0) else ONE
        fe[even_pos[h]][col] = vec
        col += 1
    for root in rs.even_positives:
        mate = rs.negative_of(root)
        u_col, v_col = col, col + 1
        fe[even_pos[root.index]][u_col] = ONE
        fe[even_pos[mate.index]][u_col] = ONE
        fe[even_pos[root.index]][v_col] = I
        fe[even_pos[mate.index]][v_col] = -I
        col += 2
    col = 0
    for root in rs.odd_positives:
        mate = rs.negative_of(root)
        pairing = form.b(root.index, mate.index)
        if pairing.is_zero():
            raise DegenerateForm("degenerate odd root pairing")
        fo[odd_pos[root.index]][col] = ONE
        fo[odd_pos[mate.index]][col + 1] = pairing.inverse()
        col += 2
    return fe, fo


def _gram_in_frame(form: QuadraticForm, ids, frame):
    """F^T B F: the form on the frame columns, B restricted to ids."""
    block = [[form.b(i, j) for j in ids] for i in ids]
    transposed = [list(col) for col in zip(*frame)]
    return mat_mul(mat_mul(transposed, block), frame)


def check_frame(rs: RootSystem, form: QuadraticForm) -> None:
    """Certify the orthosymplectic frame: both blocks are invertible, the
    form is diagonal with nonzero entries on the even columns, and a direct
    sum of [[0, 1], [-1, 0]] on the odd columns.  Raises DegenerateForm
    otherwise."""
    fe, fo = orthosymplectic_frame(rs, form)
    if inv(fe) is None or inv(fo) is None:
        raise DegenerateForm("frame construction failed")
    for i, row in enumerate(_gram_in_frame(form, rs.even_basis, fe)):
        for j, x in enumerate(row):
            if x.is_zero() == (i == j):
                raise DegenerateForm("frame does not diagonalize the even form")
    symplectic = [[ZERO] * len(fo) for _ in fo]
    for c in range(0, len(fo), 2):
        symplectic[c][c + 1], symplectic[c + 1][c] = ONE, -ONE
    if _gram_in_frame(form, rs.odd_basis, fo) != symplectic:
        raise DegenerateForm("frame does not make the odd form symplectic")


def gamma_via_sdet(alg: SmashAlgebra, a: TorusElement) -> GaussianRational:
    """Berezinian of the conjugation Jacobian at (a, e) in the Cartan +
    root-vector frame.  A change of frame is a similarity, which leaves the
    Berezinian unchanged, so no other frame gives a different value.

    Raises SingularOddBlock when some odd root has Ad eigenvalue 1 (the
    point lies outside the generic locus)."""
    return jacobian_at(alg, a).berezinian()
