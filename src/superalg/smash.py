"""The smash product of the torus group algebra with the enveloping algebra,
with its full Hopf-superalgebra structure.

Group support is the maximal torus only: Ad of a torus point acts on each
root vector by the exact scalar prod_i z_i^(2 eps_i) and fixes the Cartan,
so every operation below stays inside Q(i).

The product rule is (x1 # y1)(x2 # y2) = (x1 x2) # (Ad(x2^-1)(y1) y2);
the coproduct makes torus points group-like and algebra generators
primitive; the antipode is s(g # X) = -g^-1 # Ad(g)(X) on degree-one
tensors, s(g # 1) = g^-1 # 1, extended as an algebra antihomomorphism with
Koszul signs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateForm, DegreeTooHigh, ZeroTorusCoordinate
from .liealg import LieSuperalgebra, QuadraticForm, RootSystem, ad_eigenvalue
from .linalg import add_term, inv, mat_mul
from .pbw import (
    Monomial,
    monomial_degree,
    monomial_parity,
    normalize_terms,
    word_of,
)
from .scalars import GaussianRational, I, ONE, ZERO, gr
from .supermatrix import SuperMatrix


class TorusElement:
    """Point of the torus, coordinates z_i = value of exp(y_i/2)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        cs = tuple(
            c if isinstance(c, GaussianRational) else GaussianRational(c)
            for c in coords
        )
        for c in cs:
            if c.is_zero():
                raise ZeroTorusCoordinate("torus coordinates must be nonzero")
        object.__setattr__(self, "coords", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TorusElement is immutable")

    def __reduce__(self):
        return TorusElement, (self.coords,)

    @classmethod
    def identity(cls, t: int) -> "TorusElement":
        return cls((ONE,) * t)

    def __mul__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return TorusElement(tuple(a * b for a, b in zip(self.coords, other.coords)))

    def inverse(self) -> "TorusElement":
        return TorusElement(tuple(c.inverse() for c in self.coords))

    def is_identity(self) -> bool:
        return all(c.is_one() for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def to_json(self):
        return [c.to_json() for c in self.coords]

    @classmethod
    def from_json(cls, data):
        return cls(tuple(GaussianRational.from_json(c) for c in data))


class SmashAlgebra:
    """Context object tying a type I algebra to its torus action."""

    def __init__(self, g: LieSuperalgebra, rs: RootSystem):
        self.g = g
        self.rs = rs
        self.t = rs.rank

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
            ev = ad_eigenvalue(self.rs, a.coords, gen)
            for _ in range(p):
                val = val * ev
        return val


class SmashElement:
    """Finite Q(i)-combination of torus-point # PBW-monomial tensors."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: SmashAlgebra, terms: dict | None = None):
        clean = {}
        if terms:
            for (a, mon), c in terms.items():
                if not c.is_zero():
                    clean[(a, tuple(mon))] = c
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SmashElement is immutable")

    def __reduce__(self):
        return SmashElement, (self.alg, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, SmashElement):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return SmashElement(self.alg, out)

    def __neg__(self):
        return SmashElement(self.alg, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SmashElement):
            return NotImplemented
        return self + (-other)

    def scale(self, s) -> "SmashElement":
        if isinstance(s, (int, Fraction)):
            s = gr(s)
        return SmashElement(self.alg, {k: c * s for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SmashElement):
            return smash_multiply(self, other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, SmashElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.alg.g.names
        bits = []
        for (a, mon) in sorted(self.terms, key=lambda k: (k[1], k[0].coords.__repr__())):
            c = self.terms[(a, mon)]
            word = "*".join(f"{names[g]}^{p}" if p > 1 else names[g] for g, p in mon)
            bits.append(f"({c})*{a!r}#{word or '1'}")
        return " + ".join(bits)


def _term_product(alg: SmashAlgebra, t1, t2) -> dict:
    """Product of two single terms; returns {(torus, monomial): coeff}."""
    (a1, m1), (a2, m2) = t1, t2
    scale = alg.ad_monomial(a2.inverse(), m1)
    prod = normalize_terms(alg.g, [(word_of(m1) + word_of(m2), scale)])
    point = a1 * a2
    return {(point, mon): c for mon, c in prod.items()}


def smash_multiply(u: SmashElement, v: SmashElement) -> SmashElement:
    if u.alg is not v.alg:
        raise ValueError("elements of different smash algebras")
    out: dict = {}
    for k1, c1 in u.terms.items():
        for k2, c2 in v.terms.items():
            for key, c in _term_product(u.alg, k1, k2).items():
                add_term(out, key, c1 * c2 * c)
    return SmashElement(u.alg, out)


def term_parity(alg: SmashAlgebra, key) -> int:
    return monomial_parity(key[1], alg.g.parities)


# ---------------------------------------------------------------------------
# Tensor powers (for the coalgebra axioms)
# ---------------------------------------------------------------------------


class TensorElement:
    """Element of the n-fold tensor power; keys are tuples of smash keys."""

    __slots__ = ("alg", "legs", "terms")

    def __init__(self, alg: SmashAlgebra, legs: int, terms: dict | None = None):
        clean = {}
        if terms:
            for key, c in terms.items():
                if len(key) != legs:
                    raise ValueError("tensor key with wrong number of legs")
                if not c.is_zero():
                    clean[key] = c
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TensorElement is immutable")

    def __reduce__(self):
        return TensorElement, (self.alg, self.legs, self.terms)

    def __add__(self, other):
        if not isinstance(other, TensorElement) or other.legs != self.legs:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return TensorElement(self.alg, self.legs, out)

    def scale(self, s) -> "TensorElement":
        return TensorElement(
            self.alg, self.legs, {k: c * s for k, c in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.legs == other.legs and self.terms == other.terms

    def __mul__(self, other):
        """Graded tensor-power product: Koszul sign over crossing legs."""
        if not isinstance(other, TensorElement) or other.legs != self.legs:
            return NotImplemented
        alg = self.alg
        out: dict = {}
        for k1, c1 in self.terms.items():
            p1 = [term_parity(alg, leg) for leg in k1]
            for k2, c2 in other.terms.items():
                p2 = [term_parity(alg, leg) for leg in k2]
                # sign: each leg i of k1 crosses legs j < i of k2
                s = 0
                for i in range(self.legs):
                    for j in range(i):
                        s += p1[i] * p2[j]
                sign = gr(-1) if s % 2 else ONE
                # multiply legwise; each legwise product may have many terms
                legs_products = [
                    _term_product(alg, k1[i], k2[i]) for i in range(self.legs)
                ]
                combos = [((), c1 * c2 * sign)]
                for lp in legs_products:
                    new_combos = []
                    for key_prefix, coeff in combos:
                        for leg_key, leg_c in lp.items():
                            new_combos.append((key_prefix + (leg_key,), coeff * leg_c))
                    combos = new_combos
                for key, coeff in combos:
                    add_term(out, key, coeff)
        return TensorElement(alg, self.legs, out)


def coproduct(u: SmashElement) -> TensorElement:
    """Algebra-map coproduct: torus points are group-like, generators
    primitive, extended multiplicatively with Koszul signs."""
    alg = u.alg
    e = TorusElement.identity(alg.t)
    total = TensorElement(alg, 2, {})
    for (a, mon), c in u.terms.items():
        acc = TensorElement(alg, 2, {((a, ()), (a, ())): ONE})
        for gen in word_of(mon):
            prim = TensorElement(
                alg,
                2,
                {
                    ((e, ((gen, 1),)), (e, ())): ONE,
                    ((e, ()), (e, ((gen, 1),))): ONE,
                },
            )
            acc = acc * prim
        total = total + acc.scale(c)
    return total


def coproduct_leg(t: TensorElement, leg: int) -> TensorElement:
    """Apply the coproduct to one leg of a tensor element (even map: no sign)."""
    alg = t.alg
    out: dict = {}
    for key, c in t.terms.items():
        a, mon = key[leg]
        inner = coproduct(SmashElement(alg, {(a, mon): ONE}))
        for ikey, ic in inner.terms.items():
            add_term(out, key[:leg] + ikey + key[leg + 1 :], c * ic)
    return TensorElement(alg, t.legs + 1, out)


def counit(u: SmashElement) -> GaussianRational:
    """Algebra map to scalars: eps(g # 1) = 1, eps vanishes in degree > 0."""
    acc = ZERO
    for (a, mon), c in u.terms.items():
        if not mon:
            acc = acc + c
    return acc


def antipode(u: SmashElement) -> SmashElement:
    """s(g#1) = g^-1 # 1, s(g#X) = -g^-1 # Ad(g)(X), antihomomorphic with
    Koszul signs on higher monomials."""
    alg = u.alg
    out = SmashElement(alg, {})
    for (a, mon), c in u.terms.items():
        out = out + _antipode_term(alg, a, mon).scale(c)
    return out


def _antipode_term(alg: SmashAlgebra, a: TorusElement, mon: Monomial) -> SmashElement:
    if not mon:
        return SmashElement(alg, {(a.inverse(), ()): ONE})
    gen = mon[0][0]
    rest = ((mon[0][0], mon[0][1] - 1),) if mon[0][1] > 1 else ()
    rest = rest + mon[1:]
    # g # mon = (g # gen) * (e # rest); s(xy) = (-1)^{|x||y|} s(y) s(x)
    p_gen = alg.g.parities[gen]
    p_rest = monomial_parity(rest, alg.g.parities)
    sign = gr(-1) if (p_gen and p_rest) else ONE
    s_head = SmashElement(
        alg,
        {(a.inverse(), ((gen, 1),)): -ad_eigenvalue(alg.rs, a.coords, gen)},
    )
    if not rest:
        return s_head
    e = TorusElement.identity(alg.t)
    s_rest = _antipode_term(alg, e, rest)
    return smash_multiply(s_rest, s_head).scale(sign)


# ---------------------------------------------------------------------------
# Hopf axiom verification
# ---------------------------------------------------------------------------


def _antipode_convolution(u: SmashElement, side: str) -> SmashElement:
    """m (Id x s) Delta or m (s x Id) Delta, both of which must equal
    the counit composed with the unit."""
    alg = u.alg
    out = SmashElement(alg, {})
    for key, c in coproduct(u).terms.items():
        left = SmashElement(alg, {key[0]: ONE})
        right = SmashElement(alg, {key[1]: ONE})
        if side == "right":
            prod = smash_multiply(left, antipode(right))
        else:
            prod = smash_multiply(antipode(left), right)
        out = out + prod.scale(c)
    return out


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
        sign = (
            gr(-1)
            if term_parity(alg, k1) and term_parity(alg, k2)
            else ONE
        )
        add_term(out, (k2, k1), c * sign)
    return TensorElement(alg, 2, out)


def check_hopf_axioms(alg: SmashAlgebra, samples: int, seed: int, degree_cap: int = 2) -> dict:
    """Evaluate antipode identities, counit laws, coassociativity and super
    co-commutativity on seeded random elements; exact pass/fail."""
    from .sampling import rand_smash_element, rng

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
        eps_u = counit(u)
        unit_scaled = alg.unit().scale(eps_u)
        delta = coproduct(u)

        def fail(name, detail=""):
            failures.append({"check": name, "trial": trial, "witness": repr(u), "detail": detail})

        if _antipode_convolution(u, "right") == unit_scaled:
            checks["antipode_right"] += 1
        else:
            fail("antipode_right")
        if _antipode_convolution(u, "left") == unit_scaled:
            checks["antipode_left"] += 1
        else:
            fail("antipode_left")
        if _counit_contract(delta, 0) == u:
            checks["counit_left"] += 1
        else:
            fail("counit_left")
        if _counit_contract(delta, 1) == u:
            checks["counit_right"] += 1
        else:
            fail("counit_right")
        if coproduct_leg(delta, 0) == coproduct_leg(delta, 1):
            checks["coassociativity"] += 1
        else:
            fail("coassociativity")
        if _twist(delta) == delta:
            checks["super_cocommutativity"] += 1
        else:
            fail("super_cocommutativity")
    return {
        "pass": not failures,
        "samples": samples,
        "seed": seed,
        "checks": checks,
        "failures": failures[:5],
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
    on tensors of degree <= 1:

        (a # X_a, b # X_b) |->
            psi(a,b) # Ad(b)( X_a X_b - (-1)^{|X_a||X_b|} Ad(a^-1)(X_b) X_a )

    for X_b a generator, and psi(a,b) # Ad(b)(X_a) when X_b = 1.  On the
    torus psi(a,b) = b a b^-1 = a.
    """
    mon_a, mon_b = tuple(mon_a), tuple(mon_b)
    if monomial_degree(mon_a) > 1 or monomial_degree(mon_b) > 1:
        raise DegreeTooHigh("conjugation pullback takes monomials of degree <= 1")
    point = a  # torus is abelian
    g = alg.g
    if not mon_b:
        if not mon_a:
            return SmashElement(alg, {(point, ()): ONE})
        scale = alg.ad_monomial(b, mon_a)
        return SmashElement(alg, {(point, mon_a): scale})
    xb = mon_b[0][0]
    items = []
    # X_a X_b
    word1 = word_of(mon_a) + (xb,)
    items.append((word1, alg.ad_monomial(b, mon_a) * ad_eigenvalue(alg.rs, b.coords, xb)))
    # -(-1)^{|X_a||X_b|} Ad(a^-1)(X_b) X_a
    pa = monomial_parity(mon_a, g.parities)
    pb = g.parities[xb]
    sign = ONE if (pa and pb) else gr(-1)
    scale2 = (
        ad_eigenvalue(alg.rs, a.inverse().coords, xb)
        * ad_eigenvalue(alg.rs, b.coords, xb)
        * alg.ad_monomial(b, mon_a)
        * sign
    )
    word2 = (xb,) + word_of(mon_a)
    items.append((word2, scale2))
    prod = normalize_terms(g, items)
    return SmashElement(alg, {(point, mon): c for mon, c in prod.items()})


def _root_orders(rs: RootSystem):
    """Index lists defining the matrix frame: Cartan + even roots | odd roots."""
    even_ids = [r.index for r in rs.even_roots]
    odd_ids = [r.index for r in rs.odd_roots]
    return list(rs.cartan) + even_ids, odd_ids


def jacobian_at(rs: RootSystem, a: TorusElement) -> SuperMatrix:
    """Linearization of conjugation by the torus point a at (a, e), in the
    Cartan + root-vector frame: identity on the Cartan, 1 - Ad(a^-1)
    eigenvalue on each root line; off-diagonal blocks vanish."""
    even_ids, odd_ids = _root_orders(rs)
    ainv = a.inverse()
    evens = []
    for idx in even_ids:
        if idx in rs.cartan:
            evens.append(ONE)
        else:
            evens.append(ONE - ad_eigenvalue(rs, ainv.coords, idx))
    odds = [ONE - ad_eigenvalue(rs, ainv.coords, idx) for idx in odd_ids]
    return SuperMatrix.diagonal(evens, odds)


def orthosymplectic_frame(rs: RootSystem, form: QuadraticForm):
    """Parity-preserving frame built from +/- root pairs.

    Even pairs contribute X_eps + X_-eps and i (X_eps - X_-eps); odd pairs
    form symplectic couples (X_beta, X_-beta / b(X_beta, X_-beta)).  The
    even vectors are left unnormalized: the normalizing constant would be a
    square root of 2 b(X_eps, X_-eps), which Q(i) does not contain.
    Returns (F_even, F_odd) as column matrices in the jacobian_at frame;
    DegenerateForm when an odd root pairs to zero with its opposite.
    """
    even_ids, odd_ids = _root_orders(rs)
    even_pos = {idx: k for k, idx in enumerate(even_ids)}
    odd_pos = {idx: k for k, idx in enumerate(odd_ids)}
    ne, no = len(even_ids), len(odd_ids)
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
    return mat_mul(mat_mul(transposed, block, ZERO), frame, ZERO)


def check_frame(rs: RootSystem, form: QuadraticForm) -> None:
    """Certify the orthosymplectic frame: both blocks are invertible, the
    form is diagonal with nonzero entries on the even columns, and a direct
    sum of [[0, 1], [-1, 0]] on the odd columns.  Raises DegenerateForm
    otherwise."""
    fe, fo = orthosymplectic_frame(rs, form)
    if inv(fe, ZERO, ONE) is None or inv(fo, ZERO, ONE) is None:
        raise DegenerateForm("frame construction failed")
    even_ids, odd_ids = _root_orders(rs)
    for i, row in enumerate(_gram_in_frame(form, even_ids, fe)):
        for j, x in enumerate(row):
            if x.is_zero() == (i == j):
                raise DegenerateForm("frame does not diagonalize the even form")
    symplectic = [[ZERO] * len(fo) for _ in fo]
    for c in range(0, len(fo), 2):
        symplectic[c][c + 1], symplectic[c + 1][c] = ONE, -ONE
    if _gram_in_frame(form, odd_ids, fo) != symplectic:
        raise DegenerateForm("frame does not make the odd form symplectic")


def gamma_via_sdet(rs: RootSystem, a: TorusElement) -> GaussianRational:
    """Berezinian of the conjugation Jacobian at (a, e) in the Cartan +
    root-vector frame.  A change of frame is a similarity, which leaves the
    Berezinian unchanged, so no other frame gives a different value.

    Raises SingularOddBlock when some odd root has Ad eigenvalue 1 (the
    point lies outside the generic locus)."""
    return jacobian_at(rs, a).berezinian()
