"""Universal enveloping algebra with Poincare-Birkhoff-Witt normal form.

Monomials are tuples of (generator index, power) pairs, strictly increasing
in the index, polynomial in even generators and multilinear in odd ones
(an odd square rewrites eagerly through xx = [x,x]/2).  Normalization swaps
adjacent out-of-order generators via

    X Y = (-1)^{|X||Y|} Y X + [X, Y]

until the word is sorted.  The rewriter always swaps the leftmost
out-of-order pair; on a Lie superalgebra the normal form does not depend on
that order, which the test suite checks against a word-at-a-time oracle
that rewrites in both scan orders.

normalize_terms merges equal words before it rewrites them.  A swap keeps
a word's length and every bracket term is one generator shorter, so the
pending words are kept in one sparse dict per length and the longest
length goes first: each word is rewritten once, with its whole coefficient
already summed, and words that cancel are never rewritten.  With the swap
order fixed, the rewrite of a word is a fixed linear function of that word,
so merging first gives exactly the dict that rewriting every word on its
own and summing would give, for any bracket table (Jacobi or not) and any
coefficient ring.

Every sum accumulates into one sparse dict, through linalg.add_term or a
single normalize_terms call over all the words it needs, and becomes a
PBWElement, a linalg.SparseSum, once, at the end; no loop rebuilds an
element per term.  The words are only those the identity needs:
is_central feeds the derivation rule's words, one letter bracketed with
the generator, not the two products c X and X c whose terms mostly
cancel.

Coefficients are Q(i) scalars in ordinary use; any commutative ring object
with the same operator surface (torus functions in particular) works too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .liealg import LieSuperalgebra, QuadraticForm, RootSystem, generating_set, theta_dual
from .linalg import SparseSum, add_term
from .scalars import GaussianRational, ONE, gr
from .torus import LaurentPoly

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


def normalize_terms(alg: LieSuperalgebra, items) -> dict:
    """Rewrite (word, coeff) pairs to normal form; returns {monomial: coeff}.

    Each step rewrites the leftmost out-of-order pair of a word."""
    parities = alg.parities
    bracket = alg.bracket
    by_length: dict = {}
    for w, c in items:
        w = tuple(w)
        add_term(by_length.setdefault(len(w), {}), w, c)
    done: dict = {}
    while by_length:
        n = max(by_length)
        words = by_length.pop(n)
        if not words:
            continue
        if n < 2:
            for word, coeff in words.items():
                add_term(done, word, coeff)
            continue
        shorter = by_length.setdefault(n - 1, {})
        last = n - 2
        for word, coeff in words.items():
            # follow the word's chain of swaps to its sorted end; the pairs
            # left of k are in order, and a swap at k can only break the
            # pair just before it, so the scan resumes there
            w = list(word)
            neg = False
            k = 0
            while k <= last:
                a, b = w[k], w[k + 1]
                if a < b or (a == b and not parities[a]):
                    k += 1
                    continue
                brk = bracket(a, b)
                if brk:
                    cur = -coeff if neg else coeff
                    head, tail = tuple(w[:k]), tuple(w[k + 2 :])
                    for g2, c2 in brk.items():
                        c = cur * c2 * HALF if a == b else cur * c2
                        add_term(shorter, head + (g2,) + tail, c)
                if a == b:
                    break  # odd square: xx = [x,x]/2 and nothing else
                w[k], w[k + 1] = b, a
                if parities[a] and parities[b]:
                    neg = not neg
                k = max(k - 1, 0)
            else:
                add_term(done, tuple(w), -coeff if neg else coeff)
    out = {}
    for w, c in done.items():
        out[monomial_of_sorted_word(w, parities)] = c
    return out


def monomial_label(names, mon: Monomial) -> str:
    """A monomial as text, e.g. E12*E21^2; "" for the empty monomial."""
    return "*".join(f"{names[g]}^{p}" if p > 1 else names[g] for g, p in mon)


class PBWElement(SparseSum):
    """Element of the enveloping algebra in normal form.  Elements of two
    algebra objects are never equal, and adding them raises ValueError."""

    __slots__ = ("alg",)
    _context = _same = ("alg",)
    _mixed = "elements of different algebras"

    def __init__(self, alg: LieSuperalgebra, terms: dict | None = None):
        super().__init__((alg,), terms)

    def _key(self, mon):
        return tuple(mon)

    def _constant(self, s):
        return PBWElement.unit(self.alg, s)

    # -- constructors ------------------------------------------------------

    @classmethod
    def unit(cls, alg, coeff=ONE) -> "PBWElement":
        return cls(alg, {(): coeff})

    @classmethod
    def generator(cls, alg, i: int) -> "PBWElement":
        return cls(alg, {((i, 1),): ONE})

    # -- predicates ----------------------------------------------------------

    def degree(self) -> int:
        return max((monomial_degree(m) for m in self.terms), default=0)

    def is_homogeneous(self) -> tuple:
        ps = {monomial_parity(m, self.alg.parities) for m in self.terms}
        if len(ps) > 1:
            return False, None
        return True, (ps.pop() if ps else 0)

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, PBWElement):
            return multiply(self, other)
        return super().__mul__(other)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.alg.names
        bits = []
        for mon in sorted(self.terms):
            word = monomial_label(names, mon)
            bits.append(f"({self.terms[mon]})" + (f"*{word}" if word else ""))
        return " + ".join(bits)

    def to_json(self) -> list:
        """Terms in monomial order, each coefficient as a pair of [num, den]
        pairs; TypeError for a coefficient outside Q(i)."""
        out = []
        for mon in sorted(self.terms):
            c = self.terms[mon]
            if not isinstance(c, GaussianRational):
                raise TypeError("only Q(i) coefficients serialize to JSON")
            out.append({"monomial": [[g, p] for g, p in mon], "coeff": c.to_json_pairs()})
        return out


def pbw_normalize(alg: LieSuperalgebra, word, coeff=ONE) -> PBWElement:
    """Normal form of a single generator word with coefficient."""
    if isinstance(coeff, (int, Fraction)):
        coeff = gr(coeff)
    return PBWElement(alg, normalize_terms(alg, [(tuple(word), coeff)]))


def multiply(x: PBWElement, y: PBWElement) -> PBWElement:
    if x.alg is not y.alg:
        raise ValueError("elements of different algebras")
    items = []
    for m1, c1 in x.terms.items():
        w1 = word_of(m1)
        for m2, c2 in y.terms.items():
            items.append((w1 + word_of(m2), c1 * c2))
    return PBWElement(x.alg, normalize_terms(x.alg, items))


def _words(x: PBWElement) -> list:
    """(word, coefficient, parity) for every term of x."""
    parities = x.alg.parities
    return [(word_of(m), c, monomial_parity(m, parities)) for m, c in x.terms.items()]


def super_commutator(x: PBWElement, y: PBWElement) -> PBWElement:
    """[x, y] = xy - (-1)^{|x||y|} yx, taken termwise on monomial parities;
    both words of every term pair go into one normalize_terms call."""
    right = _words(y)
    items = []
    for w1, c1, p1 in _words(x):
        for w2, c2, p2 in right:
            c = c1 * c2
            items.append((w1 + w2, c))
            items.append((w2 + w1, c if (p1 and p2) else -c))
    return PBWElement(x.alg, normalize_terms(x.alg, items))


# ---------------------------------------------------------------------------
# Casimir and center
# ---------------------------------------------------------------------------


def casimir2(g: LieSuperalgebra, form: QuadraticForm) -> PBWElement:
    """Order-two Casimir: sum_{i,k} b(theta(V_i), theta(V_k)) V_k V_i.

    With M = theta_dual(form), b(theta(V_i), V_c) = delta_ic and b is linear
    in its second argument, so b(theta(V_i), theta(V_k)) = M[i][k]: the
    coefficients are read off M.

    The product order is transposed against the form arguments.  With the
    order V_i V_k the element fails centrality already on gl(1|1) (the
    commutator with E21 is -4 E21 E11 - 4 E21 E22); the injected-defect
    test TestCasimir.test_untransposed_word_order_is_not_central in
    tests/test_pbw.py builds that order and checks that is_central rejects
    it.  The transposed order is central on every builder and
    coincides with the standard supertrace Casimir sum (-1)^{|b|} E_ab E_ba.
    Only odd-odd coefficients are affected, so the even Cartan part is
    unchanged.
    """
    m = theta_dual(form)  # may raise DegenerateForm
    n = g.dim
    items = [
        ((k, i), m[i][k]) for i in range(n) for k in range(n) if not m[i][k].is_zero()
    ]
    return PBWElement(g, normalize_terms(g, items))


def is_central(c: PBWElement, g: LieSuperalgebra, rs: RootSystem | None = None) -> dict:
    """Check [c, X] = 0 for every X in g; exact, with witness.

    Each commutator is taken by the derivation rule

        [w_1 ... w_k, X] = sum_j (-1)^{|X|(|w_{j+1}| + ... + |w_k|)}
                           w_1 ... w_{j-1} [w_j, X] w_{j+1} ... w_k

    with one normalize_terms call per generator over the words of c with
    one letter bracketed, instead of normalizing w X and X w only to
    cancel them.  Both give the normal form of [c, X] wherever that normal
    form is unique: on a Lie superalgebra, a super-antisymmetric table that
    satisfies super Jacobi, which the CLI certifies before it asks.  The
    words of c, and the Koszul tail parities |w_{j+1}| + ... + |w_k| of
    each, are taken once, for all generators.

    Given the root system rs, c is first bracketed only with
    liealg.generating_set(g, rs), 2(m+n)-1 generators on gl(m|n).  That is
    exact on a Lie superalgebra: the commutator splits into the parts of
    even and of odd parity of c, which land in different parities, and by
    super Jacobi the X that super-commute with one parity part form a
    sub-superalgebra, so one that holds a generating set is all of g.
    When a generator of the set fails, every generator is scanned in index
    order, so the witness is the first failing generator of g, as without
    rs.  Without rs every generator is scanned."""
    alg = c.alg
    parities, bracket = alg.parities, alg.bracket
    words = []
    for w, coeff, _ in _words(c):
        tails, odd = [], 0
        for a in reversed(w):
            tails.append(odd)
            odd ^= parities[a]
        words.append((w, coeff, tails[::-1]))

    def commutator(i: int) -> PBWElement:
        odd_x = parities[i]
        items = []
        for w, coeff, tails in words:
            for j, a in enumerate(w):
                brk = bracket(a, i)
                if brk:
                    cj = -coeff if (odd_x and tails[j]) else coeff
                    head, tail = w[:j], w[j + 1 :]
                    for t, b in brk.items():
                        items.append((head + (t,) + tail, cj * b))
        return PBWElement(alg, normalize_terms(alg, items))

    if rs is not None and all(commutator(i).is_zero() for i in generating_set(g, rs)):
        return {"pass": True, "witness": None}
    for i in range(g.dim):
        comm = commutator(i)
        if not comm.is_zero():
            return {
                "pass": False,
                "witness": {"generator": g.names[i], "index": i, "value": repr(comm)},
            }
    return {"pass": True, "witness": None}


def gelfand_invariant(g: LieSuperalgebra, k: int) -> PBWElement:
    """Order-k Gelfand invariant of gl(m|n):

        sum (-1)^{|a_2|+...+|a_k|} E_{a1 a2} E_{a2 a3} ... E_{ak a1}

    The index tuples (a1, ..., ak) run over itertools.product(range(m + n),
    repeat=k), in lexicographic order.  Only builds the element;
    is_central certifies it.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    if g.meta.get("builder") != "gl":
        raise ValueError("gelfand invariants need a gl(m|n) builder output")
    m, n = g.meta["m"], g.meta["n"]
    eidx = g.meta["eidx"]
    items = []
    for idx in product(range(m + n), repeat=k):
        word = tuple(eidx[(idx[s], idx[(s + 1) % k])] for s in range(k))
        sign = (-1) ** sum(a >= m for a in idx[1:])  # odd indices are a >= m
        items.append((word, gr(sign)))
    return PBWElement(g, normalize_terms(g, items))


def project_to_cartan(c: PBWElement, rs: RootSystem) -> LaurentPoly:
    """Keep monomials supported on Cartan generators, as a commutative
    polynomial in rs.rank variables, one per Cartan position."""
    cartan_pos = {idx: pos for pos, idx in enumerate(rs.cartan)}
    t = rs.rank
    out: dict = {}
    for mon, coeff in c.terms.items():
        if all(g in cartan_pos for g, _ in mon):
            exps = [0] * t
            for g, p in mon:
                exps[cartan_pos[g]] += p
            add_term(out, tuple(exps), coeff)
    return LaurentPoly(t, out)
