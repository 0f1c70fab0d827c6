"""Radial-part calculus on the torus.

gamma is the superdeterminant of the conjugation Jacobian; its closed form
over a type I root system is

    gamma(exp Y) = 2^(|R0| - |R1|) i^|R0|
                   prod_{alpha in R0+} sinh^2(alpha(Y)/2)
                 / prod_{beta  in R1+} sinh^2(beta(Y)/2)

which is exact in half-weight coordinates because each sinh is a Laurent
binomial.  The Berezinian of the Jacobian in the Cartan + root-vector frame
equals this closed form times i^|R1|, which is +-1 because odd roots come
in +/- pairs; a change of frame is a similarity and cannot alter it.

j is a scalar-free square root of gamma, taken term by term from its
numerator and denominator polynomials (torus.sqrt_scalar_free).  With
j = N / D and ' = d/dy_i, the eigenfunction identity L(j) = c j is
certified as the cleared-denominator Laurent identity

    sum_i c_i (N'' D^2 - 2 N' D' D - N D'' D + 2 N D'^2) = c N D^2,

with no gcd.  On the radial and gamma-check paths sympy is reached only
while gamma_closed_form builds gamma as a canonical TorusRational: a gcd
of two non-constant polynomials and the division by it (_polytools).
TorusLaplacian.apply and apply_radial_C2 work in TorusRational and reach
it as well.  Once L(j) = c j holds, the radial part of the order-two
Casimir acts as

    D f = j^-1 L(j f) - c f

so j D j^-1 = L - c on the torus function field, by field algebra alone.
L sends q^lam to (sum_i c_i lam_i^2 / 4) q^lam, hence the conjugated
operator is the constant-coefficient polynomial p(lam) = sum_i c_i
lam_i^2 / 4 - c in the momenta, read off the Laplacian symbol; its leading
part matches the Cartan projection of the Casimir under H_i -> lam_i / 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .errors import DegenerateForm, NotEigenfunction, SingularOddBlock, SingularPoint
from .liealg import QuadraticForm, RootSystem
from .linalg import rref
from .pbw import cartan_poly_eval, casimir2, project_to_cartan
from .scalars import GaussianRational, I, ZERO, gr
from .smash import TorusElement, check_frame, gamma_via_sdet
from .torus import LaurentPoly, TorusRational, sinh_half, sqrt_scalar_free


def gamma_closed_form(rs: RootSystem) -> TorusRational:
    """The closed form above as an exact torus function."""
    t = rs.rank
    r0 = rs.even_roots
    r1 = rs.odd_roots
    pref = gr(Fraction(2) ** (len(r0) - len(r1))) * I ** len(r0)
    gamma = TorusRational.const(t, pref)
    for root in rs.even_positives:
        s = sinh_half(t, root.weight)
        gamma = gamma * s * s
    for root in rs.odd_positives:
        s = sinh_half(t, root.weight)
        gamma = gamma / (s * s)
    return gamma


def eval_gamma(rs: RootSystem, point: TorusElement) -> GaussianRational:
    """Closed-form gamma at a torus point; SingularPoint on the bad locus."""
    gamma = gamma_closed_form(rs)
    den = gamma.den.eval(point.coords)
    if den.is_zero():
        raise SingularPoint("gamma has a pole at this torus point")
    return gamma.num.eval(point.coords) / den


def check_gamma_oracle(rs: RootSystem, form: QuadraticForm, points) -> dict:
    """Compare the closed form against the Jacobian superdeterminant at the
    given torus points; pass iff one global sign makes all pairs equal.

    The form enters once: the orthosymplectic frame must bring it to
    normal form (DegenerateForm otherwise).  The Berezinian itself is
    frame-independent, so each point is evaluated in the root frame.

    Points on the singular locus are skipped with a notice, and the two
    sides must agree on singularity (odd block singular exactly when the
    closed form's denominator vanishes)."""
    check_frame(rs, form)
    gamma = gamma_closed_form(rs)
    entries = []
    sign = None
    ok = True
    for a in points:
        coords = a.coords if isinstance(a, TorusElement) else tuple(a)
        point = TorusElement(coords)
        den_val = gamma.den.eval(point.coords)
        closed_singular = den_val.is_zero()
        try:
            sdet_val = gamma_via_sdet(rs, point)
            sdet_singular = False
        except SingularOddBlock:
            sdet_val = None
            sdet_singular = True
        ent = {
            "point": point.to_json(),
            "singular": closed_singular or sdet_singular,
        }
        if closed_singular != sdet_singular:
            ent["agree"] = False
            ok = False
            entries.append(ent)
            continue
        if closed_singular:
            ent["agree"] = True
            ent["notice"] = "skipped: singular point"
            entries.append(ent)
            continue
        closed_val = gamma.num.eval(point.coords) / den_val
        ent["closed"] = closed_val.to_json()
        ent["sdet"] = sdet_val.to_json()
        if closed_val.is_zero() and sdet_val.is_zero():
            ent["agree"] = True
            entries.append(ent)
            continue
        if sign is None:
            if closed_val == sdet_val:
                sign = 1
            elif closed_val == -sdet_val:
                sign = -1
            else:
                ok = False
                ent["agree"] = False
                entries.append(ent)
                continue
        agree = closed_val == (sdet_val if sign == 1 else -sdet_val)
        ent["agree"] = agree
        ok = ok and agree
        entries.append(ent)
    return {
        "pass": ok,
        "sign": sign,
        "points": entries,
        "skipped": sum(1 for e in entries if e.get("notice")),
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

    def symbol(self) -> dict:
        """L(q^lam) = s(lam) q^lam with s(lam) = sum_i c_i lam_i^2 / 4, as a
        {exponent tuple: coefficient} polynomial in the weight."""
        quarter = gr(Fraction(1, 4))
        out = {}
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                e = [0] * self.rank
                e[i] = 2
                out[tuple(e)] = c * quarter
        return out


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
    """Deterministic integer weight vectors whose leading block is
    unisolvent for degree-2 polynomial interpolation in t variables:
    the origin, e_i, 2 e_i, and e_i + e_j, followed by sign and scale
    variations as extras."""

    def unit(i, scale=1):
        w = [0] * t
        w[i] = scale
        return tuple(w)

    out = [(0,) * t]
    out += [unit(i) for i in range(t)]
    out += [unit(i, 2) for i in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            w = [0] * t
            w[i] = w[j] = 1
            out.append(tuple(w))
    extras = [unit(i, -1) for i in range(t)] + [unit(i, 3) for i in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            w = [0] * t
            w[i], w[j] = 1, -1
            extras.append(tuple(w))
        for j in range(i + 1, t):
            w = [0] * t
            w[i], w[j] = 2, 1
            extras.append(tuple(w))
    scale = 2
    while len(out) + len(extras) < count:
        extras += [unit(i, 2 * scale) for i in range(t)]
        scale += 1
    for w in extras:
        if w not in out:
            out.append(w)
    return out[:count]


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

    Returns (poly, report) with poly a {exponent tuple: coefficient} map in
    the weight variables.
    """
    lap = op.laplacian
    t = lap.rank
    lams = [tuple(int(x) for x in w) for w in weights]
    if any(len(lam) != t for lam in lams):
        raise ValueError("weight length must equal the Cartan rank")
    exps = _quadratic_exponents(t)
    rows = [[gr(prod(x**k for x, k in zip(lam, e))) for e in exps] for lam in lams]
    _, pivots = rref(rows, ZERO)
    if len(pivots) < len(exps):
        raise ValueError(
            f"weights span rank {len(pivots)} of the {len(exps)} needed to "
            "determine a degree-2 polynomial"
        )
    c = op.eigenvalue_c
    poly = lap.symbol()
    if not c.is_zero():
        poly[(0,) * t] = -c
    for lam in lams:
        q_lam = LaurentPoly.monomial(t, lam)
        l_q = LaurentPoly.zero(t)
        for i, ci in enumerate(lap.coeffs):
            l_q = l_q + q_lam.derive_half(i).derive_half(i) * ci
        if l_q != q_lam * (cartan_poly_eval(poly, [gr(x) for x in lam]) + c):
            return poly, {
                "pass": False,
                "reason": f"weight {list(lam)}: L(q^lam) is not (P(lam) + c) q^lam",
            }
    degree = max((sum(e) for e in poly), default=0)
    return poly, {
        "pass": True,
        "degree": degree,
        "coefficients": {str(list(e)): v.to_json() for e, v in sorted(poly.items())},
        "weights_tested": len(lams),
    }


def leading_term_reference(g, form: QuadraticForm, rs: RootSystem) -> dict:
    """Degree-two part of the Cartan projection of the order-two Casimir,
    rewritten in weight variables via H_i -> lam_i / 2."""
    proj = project_to_cartan(casimir2(g, form), rs)
    out = {}
    for e, c in proj.items():
        if sum(e) == 2:
            scaled = c * gr(Fraction(1, 4))
            if not scaled.is_zero():
                out[e] = scaled
    return out


def leading_term_match(poly: dict, g, form: QuadraticForm, rs: RootSystem) -> dict:
    """Compare the fitted quadratic part against the Casimir's Cartan
    projection; exact coefficient-by-coefficient equality."""
    fitted = {e: c for e, c in poly.items() if sum(e) == 2}
    reference = leading_term_reference(g, form, rs)
    return {
        "pass": fitted == reference,
        "fitted": {str(list(e)): c.to_json() for e, c in sorted(fitted.items())},
        "reference": {str(list(e)): c.to_json() for e, c in sorted(reference.items())},
    }
