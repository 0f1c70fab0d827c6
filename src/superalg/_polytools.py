"""Thin bridge to sympy's exact polynomial engine over Q(i).

sympy is reached for two services only: the gcd of two non-constant
polynomials, and exact division by a non-constant polynomial.  Both arise
in the canonical form of TorusRational (torus.py).  A gcd with a nonzero
constant operand is the unit 1, and a division by a constant is a
coefficient scaling, so both are answered here without sympy.  A real
multivariate gcd runs over QQ, any other over Z[i] (ZZ_I) with
denominators cleared: sympy's gcd over QQ_I crawls in three or more
variables.  Division has one sympy path, over QQ_I, and raises ValueError
on a remainder.
`poly_factors` (factorization into irreducibles) has no caller in the
package; it stays because the benchmark's tracer wraps it by name.
Everything else (Laurent arithmetic, canonical forms, derivations, square
roots) is implemented in this package.  Terms are exchanged as dicts
mapping exponent tuples (non-negative ints) to GaussianRational
coefficients.

Two coprime gcd operands reach sympy in one variable.  Let g_k be the gcd
of every exponent of x_k in both operands, and deflate each by x_k^g_k ->
x_k: gcd commutes with deflation (sympy's own gcd deflates first, by
`dmp_multi_deflate`).  Then map x_k to c_k y + d_k, with the fixed integer
table LINE, a ring map phi to one variable y.  Lemma: if deg phi(a) equals
the total degree of a, that is, if the top-degree part of a does not
vanish at c = (c_0, c_1, ...), then a constant gcd(phi(a), phi(b)) proves
gcd(a, b) = 1.  Proof: a common factor G of a and b has G_top(c) != 0,
since a_top = G_top H_top for a = G H; so deg phi(G) = deg G, and phi(G)
divides phi(a) and phi(b), hence their gcd; a constant gcd leaves deg G =
0.  The image is taken with integer arithmetic (`_image`), the real and
imaginary parts of the operands separately, and its gcd with one sympy
`Poly.gcd` in one generator, over QQ when both operands are real,
otherwise over QQ_I.  The answer is then the unit 1, exactly what the full
gcd returns for coprime operands.  When the degree condition fails, the
image gcd is not constant, or there are more variables than LINE has
lines, nothing is proved, and the operands take sympy's gcd in all n
variables.  So the certificate can cost time but never changes a result.

On the command line only gamma-check and radial reach sympy: each run
makes one gcd, of the coprime numerator N and denominator D inside
radial.gamma_closed_form, and no sympy division; every other gcd and
division on a command path has a constant operand.  The certificate holds
for N and D of every gl(m|n) up to gl(4|3) (gl(1|1) takes no gcd): each
run's one sympy gcd is univariate, over QQ.
"""

from __future__ import annotations

from math import gcd, lcm

from sympy import Poly, symbols
from sympy.polys.domains import QQ, QQ_I

from .scalars import ONE, GaussianRational, from_parts

_GENS = {}


def _gens(n: int):
    if n not in _GENS:
        _GENS[n] = symbols(f"q0:{n}") if n > 1 else (symbols("q0"),)
    return _GENS[n]


def _to_qqi(c: GaussianRational):
    a, b, d = c.parts()
    return QQ_I.new(QQ(a, d), QQ(b, d))


def _from_qqi(e) -> GaussianRational:
    xd, yd = int(e.x.denominator), int(e.y.denominator)
    return from_parts(int(e.x.numerator) * yd, int(e.y.numerator) * xd, xd * yd)


def _to_poly(terms: dict, n: int) -> Poly:
    return Poly.from_dict({k: _to_qqi(v) for k, v in terms.items()}, *_gens(n), domain=QQ_I)


def _from_poly(p: Poly) -> dict:
    out = {}
    for exps, c in p.rep.to_dict().items():
        g = _from_qqi(c)
        if not g.is_zero():
            out[tuple(int(e) for e in exps)] = g
    return out


def _is_real(terms: dict) -> bool:
    return all(c.is_real() for c in terms.values())


def _to_qq(c: GaussianRational):
    a, _, d = c.parts()
    return QQ(a, d)


def _to_poly_real(terms: dict, n: int) -> Poly:
    return Poly.from_dict(
        {k: _to_qq(v) for k, v in terms.items()},
        *_gens(n),
        domain=QQ,
    )


def _from_poly_real(p: Poly) -> dict:
    out = {}
    for exps, c in p.rep.to_dict().items():
        g = from_parts(int(c.numerator), 0, int(c.denominator))
        if not g.is_zero():
            out[tuple(int(e) for e in exps)] = g
    return out


def _unit_normalized(terms: dict) -> dict:
    """Divide by the lexicographically least coefficient.

    gcd is only defined up to a unit, so this is harmless, and it strips a
    global i-power, which moves the common case (real coefficients times a
    Q(i) unit) onto sympy's rational gcd path, faster than the Gaussian one.
    """
    c = terms[min(terms)]
    if c.is_one():
        return terms
    inv = c.inverse()
    return {e: v * inv for e, v in terms.items()}


# the line x_k = c_k y + d_k of the coprimality certificate, one (c_k, d_k)
# per variable; no structured table (small primes, c_k = k + 1) will do,
# since the gamma images are products of linear factors in y whose roots
# then collide
LINE = ((3, 7), (5, -2), (-4, 9), (7, 3), (2, -11), (-6, 5), (9, 4), (-5, -8), (11, 6), (8, -13))


def _image(terms: dict, g: list) -> list:
    """terms(x_k^(1/g_k) at x_k = c_k y + d_k), for integer terms whose
    exponents of x_k are multiples of g_k, as integer coefficients in y,
    lowest first, with no trailing zero.

    The image is evaluated at y = 2^bits, one variable after another
    through a table of the line's powers, and its coefficients are read
    back as signed base-2^bits digits.  Each |coefficient| is at most the
    sum of the |terms| times max(|c_k| + |d_k|) to the total degree, below
    2^(bits - 1), so no two digits overlap."""
    n = len(g)
    size = sum(abs(v) for v in terms.values())
    if not size:
        return []
    reach = max(abs(c) + abs(d) for c, d in LINE[:n])
    bits = (size * reach ** (max(map(sum, terms)) // min(g))).bit_length() + 1
    level = terms
    for k in reversed(range(n)):
        c, d = LINE[k]
        powers = [1, (c << bits) + d]
        out = {}
        for e, v in level.items():
            j = e[-1] // g[k]
            while len(powers) <= j:
                powers.append(powers[-1] * powers[1])
            prefix = e[:-1]
            out[prefix] = out.get(prefix, 0) + v * powers[j]
        level = out
    value, half, mask = level[()], 1 << (bits - 1), (1 << bits) - 1
    digits = []
    while value:
        r = value & mask
        if r >= half:
            r -= mask + 1
        digits.append(r)
        value = (value - r) >> bits
    return digits


def _images(terms: dict, g: list) -> tuple:
    """`_image` of the real and of the imaginary part of terms, both
    scaled by one common denominator."""
    parts = [c.parts() for c in terms.values()]
    den = lcm(*(d for _, _, d in parts))
    return tuple(_image({e: p[i] * (den // p[2]) for e, p in zip(terms, parts)}, g)
                 for i in (0, 1))


def _univariate(re: list, im: list, domain) -> Poly:
    """re + i im, coefficient lists lowest first, as a Poly in one
    generator over QQ (im then empty) or QQ_I."""
    if domain is QQ:
        return Poly.from_list(re[::-1], _gens(1)[0], domain=QQ)
    width = max(len(re), len(im))
    re, im = re + [0] * (width - len(re)), im + [0] * (width - len(im))
    return Poly.from_list([QQ_I(x, w) for x, w in zip(re[::-1], im[::-1])], _gens(1)[0],
                          domain=QQ_I)


def _coprime_by_image(a: dict, b: dict, n: int) -> bool:
    """True when one univariate image proves gcd(a, b) = 1 (see the module
    docstring); False proves nothing."""
    if n > len(LINE):
        return False
    g = [gcd(*(e[k] for terms in (a, b) for e in terms)) or 1 for k in range(n)]
    (a_re, a_im), (b_re, b_im) = _images(a, g), _images(b, g)
    top = max(sum(x // s for x, s in zip(e, g)) for e in a)
    if len(a_re) <= top and len(a_im) <= top:
        return False  # a's top-degree part vanishes at (c_0, ..., c_{n-1})
    domain = QQ_I if a_im or b_im else QQ
    image_gcd = _univariate(a_re, a_im, domain).gcd(_univariate(b_re, b_im, domain))
    return image_gcd.degree() == 0


def poly_gcd(a: dict, b: dict, n: int) -> dict:
    """gcd of two polynomial term-dicts, up to a unit; 1 when either is a
    nonzero constant.

    Two coprime operands are answered 1 by one univariate image gcd
    whenever the certificate of the module docstring holds; any other pair
    takes sympy's gcd in all n variables, over QQ when both are real,
    otherwise over Z[i]."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    if is_unit_dict(a) or is_unit_dict(b):
        return {(0,) * n: ONE}
    an, bn = _unit_normalized(a), _unit_normalized(b)
    if _coprime_by_image(an, bn, n):
        return {(0,) * n: ONE}
    if _is_real(an) and _is_real(bn):
        return _from_poly_real(_to_poly_real(an, n).gcd(_to_poly_real(bn, n)))
    # the gcd is up to a scalar, so clearing denominators changes nothing
    a_zi = _to_poly(an, n).clear_denoms(convert=True)[1]
    b_zi = _to_poly(bn, n).clear_denoms(convert=True)[1]
    return _from_poly(a_zi.gcd(b_zi))


def poly_div_exact(a: dict, b: dict, n: int) -> dict:
    """a / b, raising ValueError if the division is not exact."""
    if not a:
        return {}
    if is_unit_dict(b):
        c = next(iter(b.values()))
        if c.is_one():
            return dict(a)
        inv = c.inverse()
        return {e: v * inv for e, v in a.items()}
    q, r = _to_poly(a, n).div(_to_poly(b, n))
    if not r.is_zero:
        raise ValueError("polynomial division is not exact")
    return _from_poly(q)


def poly_factors(a: dict, n: int) -> list:
    """Irreducible factors of a over Q(i) as (term-dict, multiplicity) pairs.

    The scalar content is dropped; callers recover it by exact division.
    Factorization always runs over Q(i): a factor irreducible over the
    rationals may split further there, and square detection needs the
    finest splitting.
    """
    an = _unit_normalized(a)
    fl = _to_poly(an, n).factor_list()
    return [(_from_poly(f), int(m)) for f, m in fl[1]]


def is_unit_dict(a: dict) -> bool:
    """True when the term-dict is a nonzero constant."""
    return len(a) == 1 and not any(next(iter(a)))
