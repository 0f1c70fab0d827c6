"""Radial-part calculus on the torus.

gamma is the superdeterminant of the conjugation Jacobian; its closed form
over a type I root system is

    gamma(exp Y) = 2^(|R0| - |R1|) i^|R0|
                   prod_{alpha in R0+} sinh^2(alpha(Y)/2)
                 / prod_{beta  in R1+} sinh^2(beta(Y)/2)

which is exact in half-weight coordinates because each sinh is a Laurent
binomial.  The Berezinian of the Jacobian in the Cartan + root-vector frame
equals this closed form times i^|R1|, which is +-1 because odd roots come
in +/- pairs; a change of frame is a similarity and cannot alter it.  The
Jacobian is read off conjugation in the smash algebra (smash.jacobian_at).

j is a scalar-free square root of gamma, taken term by term from its
numerator and denominator polynomials (torus.sqrt_scalar_free).  With
j = N / D and ' = d/dy_i, the eigenfunction identity L(j) = c j is
certified as the cleared-denominator Laurent identity

    sum_i c_i (N'' D^2 - 2 N' D' D - N D'' D + 2 N D'^2) = c N D^2,

with no gcd.  On the radial and gamma-check paths sympy is reached only
while gamma_closed_form builds gamma as a canonical TorusRational: one gcd
of the numerator and denominator polynomials (_polytools), which are
coprime.  It is proved a unit by the univariate gcd of their images on a
line, so sympy sees one variable, and dividing by the unit is a scaling
that never reaches sympy.  TorusLaplacian.apply and apply_radial_C2 work in
TorusRational and reach it as well.  Once L(j) = c j holds, the radial
part of the order-two Casimir acts as

    D f = j^-1 L(j f) - c f

so j D j^-1 = L - c on the torus function field, by field algebra alone.
L sends q^lam to (sum_i c_i lam_i^2 / 4) q^lam, hence the conjugated
operator is the constant-coefficient polynomial p(lam) = sum_i c_i
lam_i^2 / 4 - c in the momenta, read off the Laplacian symbol; its leading
part matches the Cartan projection of the Casimir under H_i -> lam_i / 2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod

from .errors import DegenerateForm, NotEigenfunction, SingularOddBlock
from .liealg import QuadraticForm, RootSystem
from .linalg import rref
from .pbw import casimir2, project_to_cartan
from .scalars import GaussianRational, I, ZERO, gr
from .smash import SmashAlgebra, check_frame, gamma_via_sdet
from .torus import LaurentPoly, TorusRational, sinh_binomial, sqrt_scalar_free


@lru_cache(maxsize=1)
def gamma_closed_form(rs: RootSystem) -> TorusRational:
    """The closed form above as an exact torus function: the prefactor
    times the even sinh^2 product, over the odd one, both built as Laurent
    polynomials and divided once.

    Cached for the last root system (RootSystem hashes by identity and
    TorusRational is immutable), so the gamma oracle and build_radial of
    one run share one build."""
    t = rs.rank
    r0 = rs.even_roots
    r1 = rs.odd_roots
    pref = gr(Fraction(2) ** (len(r0) - len(r1))) * I ** len(r0)
    num, den = LaurentPoly.const(t, pref), LaurentPoly.one(t)
    for root in rs.even_positives:
        s = sinh_binomial(t, root.weight)
        num = num * s * s
    for root in rs.odd_positives:
        s = sinh_binomial(t, root.weight)
        den = den * s * s
    return TorusRational(num) / TorusRational(den)


def check_gamma_oracle(alg: SmashAlgebra, form: QuadraticForm, points) -> dict:
    """Compare the closed form against the Jacobian superdeterminant at the
    given torus points; pass iff sdet = sign * closed at every regular
    point, where sign = i^|R1| = (-1)^|R1+| is the frame constant of the
    module docstring, read off the root system before any point is seen.

    The form enters once: the orthosymplectic frame must bring it to
    normal form (DegenerateForm otherwise).  The Berezinian itself is
    frame-independent, so each point is evaluated in the root frame.

    Points on the singular locus are skipped with a notice, and the two
    sides must agree on singularity (odd block singular exactly when the
    closed form's denominator vanishes).  Raises ValueError when points is
    empty, and fails when every point was skipped: a check of nothing does
    not pass."""
    if not points:
        raise ValueError("no points to check")
    rs = alg.rs
    check_frame(rs, form)
    gamma = gamma_closed_form(rs)
    sign = (-1) ** len(rs.odd_positives)
    entries = []
    for point in points:
        den_val = gamma.den.eval(point.coords)
        closed_singular = den_val.is_zero()
        try:
            sdet_val = gamma_via_sdet(alg, point)
        except SingularOddBlock:
            sdet_val = None
        ent = {"point": point.to_json(), "singular": closed_singular or sdet_val is None}
        if ent["singular"]:
            ent["agree"] = closed_singular == (sdet_val is None)
            if ent["agree"]:
                ent["notice"] = "skipped: singular point"
        else:
            closed_val = gamma.num.eval(point.coords) / den_val
            ent["closed"] = closed_val.to_json()
            ent["sdet"] = sdet_val.to_json()
            ent["agree"] = sdet_val == closed_val * sign
        entries.append(ent)
    skipped = sum(1 for e in entries if e.get("notice"))
    return {
        "pass": all(e["agree"] for e in entries) and skipped < len(entries),
        "sign": sign,
        "points": entries,
        "skipped": skipped,
    }


class TorusLaplacian:
    """Second-order operator sum_i c_i d^2/dy_i^2 on the Cartan directions,
    with c_i = b(theta(H_i), theta(H_i)) = 1 / b(H_i, H_i)."""

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_cartan(cls, rs: RootSystem, form: QuadraticForm) -> "TorusLaplacian":
        coeffs = []
        for pos, h in enumerate(rs.cartan):
            for other in rs.cartan[pos + 1 :]:
                if not form.b(h, other).is_zero():
                    raise DegenerateForm("Cartan basis is not b-orthogonal")
            diag = form.b(h, h)
            if diag.is_zero():
                raise DegenerateForm("Cartan direction with b(H,H) = 0")
            coeffs.append(diag.inverse())
        return cls(coeffs)

    @property
    def rank(self):
        return len(self.coeffs)

    def apply(self, f: TorusRational) -> TorusRational:
        total = TorusRational.zero(f.nvars)
        for i, c in enumerate(self.coeffs):
            total = total + f.derive(i).derive(i) * c
        return total

    def symbol(self) -> LaurentPoly:
        """L(q^lam) = s(lam) q^lam with s(lam) = sum_i c_i lam_i^2 / 4, as a
        polynomial in the weight."""
        quarter = gr(Fraction(1, 4))
        out = {}
        for i, c in enumerate(self.coeffs):
            e = [0] * self.rank
            e[i] = 2
            out[tuple(e)] = c * quarter
        return LaurentPoly(self.rank, out)


class RadialOperator:
    """j together with the certified eigenvalue c in L(j) = c j."""

    def __init__(self, j: TorusRational, laplacian: TorusLaplacian, eigenvalue_c: GaussianRational):
        self.j = j
        self.laplacian = laplacian
        self.eigenvalue_c = eigenvalue_c

    @classmethod
    def certify(cls, j: TorusRational, laplacian: TorusLaplacian) -> "RadialOperator":
        """Verify the exact field identity L(j) = c j; NotEigenfunction
        when no scalar c satisfies it.

        With j = N / D and ' = d/dy_i, d_i^2 (N / D) is
        (N'' D^2 - 2 N' D' D - N D'' D + 2 N D'^2) / D^3, so the identity
        is the Laurent-polynomial identity

            sum_i c_i (N'' D^2 - 2 N' D' D - N D'' D + 2 N D'^2) = c N D^2,

        summed over i before the products are taken.  c is the ratio of
        the two sides' coefficients at the lex-least exponent of N D^2,
        whose coefficient is nonzero; then the whole identity is compared.
        No gcd and no canonical form is needed.
        """
        if j.is_zero():
            raise NotEigenfunction("j must be nonzero")
        num, den = j.num, j.den
        n = j.nvars
        # sum_i c_i N'', sum_i c_i D'', sum_i c_i N' D', sum_i c_i D'^2
        l_num, l_den, cross, grad_sq = (LaurentPoly.zero(n) for _ in range(4))
        for i, ci in enumerate(laplacian.coeffs):
            dn, dd = num.derive_half(i), den.derive_half(i)
            l_num = l_num + dn.derive_half(i) * ci
            l_den = l_den + dd.derive_half(i) * ci
            cross = cross + dn * dd * ci
            grad_sq = grad_sq + dd * dd * ci
        lhs = (l_num * den - cross * 2 - num * l_den) * den + num * grad_sq * 2
        rhs = num * den * den
        least = rhs.lex_least()
        c = lhs.terms.get(least, ZERO) / rhs.terms[least]
        if lhs != rhs * c:
            raise NotEigenfunction("L(j) is not a scalar multiple of j")
        return cls(j, laplacian, c)


def build_radial(rs: RootSystem, form: QuadraticForm) -> RadialOperator:
    """Scalar-free square root of gamma, certified against the Laplacian."""
    gamma = gamma_closed_form(rs)
    j, _scale = sqrt_scalar_free(gamma)
    lap = TorusLaplacian.from_cartan(rs, form)
    return RadialOperator.certify(j, lap)


def apply_radial_C2(op: RadialOperator, f: TorusRational) -> TorusRational:
    """Radial part of the order-two Casimir: j^-1 L(j f) - c f."""
    return op.laplacian.apply(op.j * f) / op.j - f * op.eigenvalue_c


def default_weights(t: int, count: int):
    """The first count of a deterministic run of distinct integer weight
    vectors in t variables.  The run starts with the exponents of degree
    <= 2 (the origin, e_i, 2 e_i and e_i + e_j, in _quadratic_exponents
    order), which are unisolvent for degree-2 polynomial interpolation;
    the extras walk the cubes [-r, r]^t for r = 1, 2, ... in
    itertools.product order, skipping weights already taken."""
    out = _quadratic_exponents(t)[:count]
    taken = set(out)
    # for t >= 1 the cube [-count, count]^t alone holds more than count weights
    for r in range(1, count + 1):
        for w in product(range(-r, r + 1), repeat=t):
            if len(out) == count:
                return out
            if w not in taken:
                taken.add(w)
                out.append(w)
    return out


def weights_needed(t: int) -> int:
    """Fewest weights that determine a degree-2 polynomial in t variables."""
    return len(_quadratic_exponents(t))


def _quadratic_exponents(t: int):
    exps = [tuple(0 for _ in range(t))]
    for i in range(t):
        e = [0] * t
        e[i] = 1
        exps.append(tuple(e))
    for i in range(t):
        for j in range(i, t):
            e = [0] * t
            e[i] += 1
            e[j] += 1
            exps.append(tuple(e))
    return exps


def extract_P(op: RadialOperator, weights) -> tuple:
    """The constant-coefficient polynomial of the conjugated radial operator,
    read off the Laplacian symbol and checked on exponentials.

    j D j^-1 = L - c is an identity of the torus function field, so on q^lam
    it acts by p(lam) = s(lam) - c with s the symbol of L: p has c_i / 4 at
    exponent 2 e_i and -c at exponent 0.  Each weight checks
    L(q^lam) = (p(lam) + c) q^lam in Laurent arithmetic, with L applied
    through derive_half, so a wrong symbol fails at the first weight it
    misjudges.  Both sides are polynomials of degree <= 2 in lam; the weight
    set must be unisolvent for that space (the weight x quadratic-monomial
    matrix has full column rank, ValueError otherwise), and then agreement
    on the set proves the identity for every lam.

    Returns (poly, report) with poly a LaurentPoly in the weight variables.
    """
    lap = op.laplacian
    t = lap.rank
    lams = [tuple(int(x) for x in w) for w in weights]
    if any(len(lam) != t for lam in lams):
        raise ValueError("weight length must equal the Cartan rank")
    exps = _quadratic_exponents(t)
    rows = [[gr(prod(x**k for x, k in zip(lam, e))) for e in exps] for lam in lams]
    _, pivots = rref(rows)
    if len(pivots) < len(exps):
        raise ValueError(
            f"weights span rank {len(pivots)} of the {len(exps)} needed to "
            "determine a degree-2 polynomial"
        )
    c = op.eigenvalue_c
    poly = lap.symbol() - c
    for lam in lams:
        q_lam = LaurentPoly.monomial(t, lam)
        l_q = LaurentPoly.zero(t)
        for i, ci in enumerate(lap.coeffs):
            l_q = l_q + q_lam.derive_half(i).derive_half(i) * ci
        if l_q != q_lam * (poly.eval([gr(x) for x in lam]) + c):
            return poly, {
                "pass": False,
                "reason": f"weight {list(lam)}: L(q^lam) is not (P(lam) + c) q^lam",
            }
    degree = max((sum(e) for e in poly.terms), default=0)
    return poly, {
        "pass": True,
        "degree": degree,
        "coefficients": poly.to_json(),
        "weights_tested": len(lams),
    }


def _quadratic_part(poly: LaurentPoly) -> LaurentPoly:
    return LaurentPoly(poly.nvars, {e: c for e, c in poly.terms.items() if sum(e) == 2})


def leading_term_reference(g, form: QuadraticForm, rs: RootSystem) -> LaurentPoly:
    """Degree-two part of the Cartan projection of the order-two Casimir,
    rewritten in weight variables via H_i -> lam_i / 2."""
    proj = project_to_cartan(casimir2(g, form), rs)
    return _quadratic_part(proj).scale(gr(Fraction(1, 4)))


def leading_term_match(poly: LaurentPoly, g, form: QuadraticForm, rs: RootSystem) -> dict:
    """Compare the fitted quadratic part against the Casimir's Cartan
    projection; exact coefficient-by-coefficient equality."""
    fitted = _quadratic_part(poly)
    reference = leading_term_reference(g, form, rs)
    return {
        "pass": fitted == reference,
        "fitted": fitted.to_json(),
        "reference": reference.to_json(),
    }
