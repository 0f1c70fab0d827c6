from fractions import Fraction
from math import gcd, lcm

import pytest

from superalg.errors import NotAScalarSquare
from superalg.linalg import add_term
from superalg.sampling import rand_laurent, rand_scalar, rand_torus_rational, rng
from superalg.scalars import gr, ONE, ZERO
from superalg.torus import (
    LaurentPoly,
    _int_view,
    _poly_sqrt,
    TorusRational,
    cosh_half,
    sinh_half,
    sqrt_scalar_free,
)


def tr_const(c):
    return TorusRational.const(2, c)


class TestDerivation:
    def test_monomial_chain_rule(self):
        # q1^2 models exp(y1); its y1-derivative is itself
        f = TorusRational.monomial(2, (2, 0))
        assert f.derive(0) == f

    def test_constant(self):
        f = tr_const(5)
        for i in (0, 1):
            assert f.derive(i).is_zero()

    def test_sinh_derivative(self):
        # oracle: d/dy1 sinh((y1-y2)/2) = cosh((y1-y2)/2) / 2, by hand
        s = sinh_half(2, (1, -1))
        c = cosh_half(2, (1, -1))
        assert s.derive(0) == c * gr(Fraction(1, 2))
        assert s.derive(1) == c * gr(Fraction(-1, 2))

    def test_leibniz_on_random_pairs(self):
        r = rng(2024)
        checked = 0
        while checked < 100:
            f = rand_torus_rational(r, 2)
            g = rand_torus_rational(r, 2)
            for i in (0, 1):
                lhs = (f * g).derive(i)
                rhs = f.derive(i) * g + f * g.derive(i)
                assert lhs == rhs
            checked += 1

    def test_mixed_partials_commute(self):
        r = rng(77)
        for _ in range(40):
            f = rand_torus_rational(r, 2)
            assert f.derive(0).derive(1) == f.derive(1).derive(0)

    def test_quotient_rule_exactness(self):
        s = sinh_half(2, (1, -1))
        f = TorusRational.one(2) / s
        # d/dy1 (1/sinh) = -cosh/(2 sinh^2)
        want = -(cosh_half(2, (1, -1)) * gr(Fraction(1, 2))) / (s * s)
        assert f.derive(0) == want

    def test_index_validation(self):
        with pytest.raises(IndexError):
            tr_const(1).num.derive_half(5)


class TestCanonicalForm:
    def test_cancellation(self):
        num = LaurentPoly(2, {(2, 0): gr(1), (0, 2): gr(-1)})
        den = LaurentPoly(2, {(1, 0): gr(1), (0, 1): gr(-1)})
        q = TorusRational(num, den)
        assert q == TorusRational(LaurentPoly(2, {(1, 0): gr(1), (0, 1): gr(1)}))

    def test_idempotence(self):
        r = rng(5)
        for _ in range(50):
            f = rand_torus_rational(r, 2)
            again = TorusRational(f.num, f.den)
            assert again.num == f.num and again.den == f.den

    def test_denominator_normalization(self):
        # lexicographically least denominator term must have coefficient 1
        r = rng(6)
        for _ in range(50):
            f = rand_torus_rational(r, 2)
            if f.den.is_constant():
                assert f.den == LaurentPoly.one(2) or f.is_zero()
            else:
                assert f.den.terms[f.den.lex_least()].is_one()
                # denominator is a genuine polynomial, minimal exponent 0
                assert f.den.min_exps() == (0, 0)

    def test_equality_is_syntactic_on_canonical_form(self):
        s = sinh_half(2, (1, -1))
        a = (s * s * s) / s
        b = s * s
        assert a.num == b.num and a.den == b.den


def one_gcd(num, den=None):
    """The textbook canonical form of num / den: the checked constructor,
    which takes one gcd of the raw pair, den = 1 included."""
    return TorusRational(num, LaurentPoly.one(num.nvars) if den is None else den)


def assert_syntactically(f, want):
    assert (f.num, f.den) == (want.num, want.den)


def in_last_variable(p, nvars):
    """A one-variable Laurent polynomial as one in the last of nvars."""
    return LaurentPoly(nvars, {(0,) * (nvars - 1) + e: c for e, c in p.terms.items()})


class TestOneGcdOracle:
    """Every operation gives, term for term, the canonical form that one gcd
    of its raw textbook fraction gives.  The operands include pairs whose
    denominators share a factor, so Henrici's closing cancel has work, and
    k + m / v with m and v free of the first variable, so the second den
    copy of derive along it cancels."""

    # in three variables the one gcd of three-term numerators took up to a
    # minute, so they get two terms there
    @pytest.mark.parametrize("nvars, terms, seed", [(2, 3, 41), (3, 2, 42)])
    def test_operations_match_the_one_gcd_form(self, nvars, terms, seed):
        r = rng(seed)
        real = set()
        for _ in range(8):
            f, g = (rand_torus_rational(r, nvars, terms) for _ in "fg")
            m, v = (in_last_variable(rand_laurent(r, 1, nonzero=True), nvars) for _ in "mv")
            kmv = TorusRational(rand_laurent(r, nvars, terms)) + TorusRational(m, v)
            for x in (f, g, kmv):
                real.add(all(c.is_real() for c in (*x.num.terms.values(), *x.den.terms.values())))
            for x, y in ((f, g), (kmv, f), (f, g - f)):
                a, b, c, d = x.num, x.den, y.num, y.den
                assert_syntactically(x + y, one_gcd(a * d + c * b, b * d))
                assert_syntactically(x - y, one_gcd(a * d - c * b, b * d))
                if x is f and y is not g:
                    continue  # the one gcd of f * (g - f) can take seconds
                assert_syntactically(x * y, one_gcd(a * c, b * d))
                if not y.is_zero():
                    assert_syntactically(x / y, one_gcd(a * d, b * c))
            for x in (f, kmv):
                u, w = x.num, x.den
                for i in range(nvars):
                    raw = u.derive_half(i) * w - u * w.derive_half(i)
                    assert_syntactically(x.derive(i), one_gcd(raw, w * w))
                u2, w2 = u * u, w * w
                assert_syntactically(x ** 2, one_gcd(u2, w2))
                assert_syntactically(x ** 0, one_gcd(LaurentPoly.one(nvars)))
                if not x.is_zero():
                    assert_syntactically(x.inverse(), one_gcd(w, u))
                    assert_syntactically(x ** -2, one_gcd(w2, u2))
        assert real == {True, False}  # real and Gaussian coefficients both occurred

    def test_constructions_over_one_match_the_one_gcd_form(self):
        r = rng(43)
        for nvars in (2, 3):
            for _ in range(20):
                p = rand_laurent(r, nvars, max_terms=4)
                c = rand_scalar(r)
                e = tuple(r.randint(-3, 3) for _ in range(nvars))
                assert_syntactically(TorusRational(p), one_gcd(p))
                assert_syntactically(TorusRational.const(nvars, c),
                                     one_gcd(LaurentPoly.const(nvars, c)))
                assert_syntactically(TorusRational.monomial(nvars, e, c),
                                     one_gcd(LaurentPoly.monomial(nvars, e, c)))
            assert_syntactically(TorusRational.zero(nvars), one_gcd(LaurentPoly.zero(nvars)))
            assert_syntactically(TorusRational.one(nvars), one_gcd(LaurentPoly.one(nvars)))


class TestSquareTakesNoGcd:
    """A canonical pair is coprime, and so is its square: f * f and f ** 2
    build f's square with no sympy gcd, and f ** 3, which is f * f**2,
    equals f * f * f."""

    def test_square_matches_the_one_gcd_form(self, monkeypatch):
        from sympy import Poly

        calls, sympy_gcd = [], vars(Poly)["gcd"]

        def counting(poly, *args, **kwargs):
            calls.append(poly)
            return sympy_gcd(poly, *args, **kwargs)

        r = rng(44)
        fs = [rand_torus_rational(r, 2) for _ in range(6)]
        fs += [rand_torus_rational(r, 3, max_terms=2) for _ in range(3)]
        fs.append(TorusRational.zero(2))
        assert any(not f.den.is_constant() for f in fs)
        for f in fs:
            monkeypatch.setattr(Poly, "gcd", counting)
            calls.clear()
            square, power2 = f * f, f ** 2
            assert calls == []
            monkeypatch.undo()
            want = TorusRational(f.num * f.num, f.den * f.den)
            assert_syntactically(square, want)
            assert_syntactically(power2, want)
            assert_syntactically(f ** 3, f * f * f)

    @pytest.mark.parametrize("n", [0.5, 2.0, Fraction(1, 2), Fraction(-3, 2)])
    def test_power_of_a_non_integer_is_a_type_error(self, n):
        s = sinh_half(2, (1, -1))
        assert s.__pow__(n) is NotImplemented
        with pytest.raises(TypeError):
            s ** n


class TestArithmetic:
    def test_field_ops_random(self):
        r = rng(99)
        for _ in range(40):
            f = rand_torus_rational(r, 2)
            g = rand_torus_rational(r, 2)
            h = rand_torus_rational(r, 2)
            assert (f + g) + h == f + (g + h)
            assert f * (g + h) == f * g + f * h
            assert f + g == g + f
            if not g.is_zero():
                assert (f / g) * g == f

    def test_pow(self):
        s = sinh_half(2, (1, -1))
        assert s ** 3 == s * s * s
        assert s ** -2 == TorusRational.one(2) / (s * s)

    def test_eval(self):
        s = sinh_half(2, (1, -1))
        z = [gr(2), gr(1)]
        assert s.eval(z) == gr(Fraction(3, 4))
        with pytest.raises(ZeroDivisionError):
            (TorusRational.one(2) / s).eval([gr(1), gr(1)])

    def test_scalar_detection(self):
        assert tr_const(Fraction(5, 3)).is_scalar()
        assert tr_const(Fraction(5, 3)).scalar_value() == gr(Fraction(5, 3))
        assert not sinh_half(2, (1, -1)).is_scalar()


def eval_term_by_term(p, point):
    """The term-by-term evaluation LaurentPoly.eval replaced: z ** k for
    every term and coordinate, with a fresh inverse for each k < 0."""
    total = ZERO
    for e, c in p.terms.items():
        val = c
        for z, k in zip(point, e):
            if k:
                val = val * z ** k
        total = total + val
    return total


def nonzero_scalar(r):
    while True:
        z = rand_scalar(r)
        if not z.is_zero():
            return z


class TestEvalPowerTables:
    def test_matches_term_by_term_on_random_polynomials(self):
        r = rng(2026)
        negative = 0
        for nvars in (1, 2, 3, 4):
            for _ in range(60):
                p = rand_laurent(r, nvars, max_terms=12, max_exp=5)
                negative += any(k < 0 for e in p.terms for k in e)
                point = [nonzero_scalar(r) for _ in range(nvars)]
                assert p.eval(point) == eval_term_by_term(p, point)
        assert negative > 100  # negative exponents, and so inverses, occurred

    def test_zero_coordinate(self):
        r = rng(17)
        vanished = raised = 0
        for _ in range(200):
            p = rand_laurent(r, 3, max_terms=6, max_exp=3)
            point = [nonzero_scalar(r) for _ in range(3)]
            point[r.randrange(3)] = ZERO
            for f in (p, p * p):  # p * p: a product's terms, read through its view
                at_zero = [e[i] for e in f.terms for i, z in enumerate(point) if z.is_zero()]
                if any(k < 0 for k in at_zero):
                    raised += 1
                    with pytest.raises(ZeroDivisionError):
                        f.eval(point)
                    with pytest.raises(ZeroDivisionError):
                        eval_term_by_term(f, point)
                else:
                    vanished += any(k > 0 for k in at_zero)  # a term is 0 there
                    assert f.eval(point) == eval_term_by_term(f, point)
        assert raised > 20 and vanished > 20


def product_pair_by_pair(p, q):
    """The pair-by-pair product LaurentPoly.__mul__ replaced: one
    GaussianRational product per coefficient pair, through add_term."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return LaurentPoly(p.nvars, out)


def poly_of(r, nvars, terms, max_exp, complex_prob):
    """A Laurent polynomial with up to `terms` terms, exponents in
    [-max_exp, max_exp] and rand_scalar coefficients, whose denominators
    1..3 differ from term to term."""
    out = {}
    for _ in range(terms):
        c = rand_scalar(r, complex_prob)
        if not c.is_zero():
            out[tuple(r.randint(-max_exp, max_exp) for _ in range(nvars))] = c
    return LaurentPoly(nvars, out)


def assert_reduced(p):
    """Every coefficient is a nonzero, reduced triple."""
    for c in p.terms.values():
        a, b, d = c.parts()
        assert d > 0 and gcd(a, b, d) == 1 and (a or b)


class TestProductKernel:
    @pytest.mark.parametrize("complex_prob", [0.0, 1.0, 0.5], ids=["real", "complex", "mixed"])
    def test_matches_pair_by_pair(self, complex_prob):
        r = rng(31)
        cancelled = empty = 0
        for nvars in (0, 1, 2, 3, 4):
            for _ in range(40):
                a = poly_of(r, nvars, r.randint(0, 6), 3, complex_prob)
                b = poly_of(r, nvars, r.randint(0, 6), 3, complex_prob)
                # (a + b)(a - b) = a^2 - b^2: the cross terms cancel exactly
                p, q = a + b, a - b
                point = [nonzero_scalar(r) for _ in range(nvars)]
                for x, y in ((a, b), (a, a), (p, q)):
                    xy = x * y
                    assert xy == product_pair_by_pair(x, y)
                    assert_reduced(xy)
                    assert xy.eval(point) == eval_term_by_term(xy, point)
                    empty += xy.terms == {}
                sums = {tuple(map(sum, zip(e1, e2))) for e1 in p.terms for e2 in q.terms}
                cancelled += bool(sums - set((p * q).terms))
                assert p * q == a * a - b * b
        assert cancelled > 50 and empty > 20

    def test_product_of_a_product(self):
        r = rng(8)
        for _ in range(40):
            p, q, s = (poly_of(r, 3, 6, 3, 0.5) for _ in range(3))
            pq = p * q
            if pq.is_zero():
                continue
            expected = product_pair_by_pair(product_pair_by_pair(p, q), s)
            assert pq * s == expected
            assert pq._view is not None  # s * pq reads the view pq * s kept
            assert s * pq == expected
            assert_reduced(pq * s)
            point = [nonzero_scalar(r) for _ in range(3)]
            assert pq.eval(point) == eval_term_by_term(pq, point)

    def test_view_is_read_off_the_terms(self):
        # the common denominator is the lcm of the coefficients' own, and
        # a product's view is derived from its terms like any other
        r = rng(9)
        for _ in range(40):
            p = poly_of(r, 2, 6, 3, 0.5) * poly_of(r, 2, 6, 3, 0.5)
            if p.is_zero():
                continue
            assert p._view is None
            den, rows = _int_view(p)
            assert den == lcm(*(c.parts()[2] for c in p.terms.values()))
            assert [e for e, _, _ in rows] == list(p.terms)
            assert all(p.terms[e] == gr(Fraction(a, den), Fraction(b, den)) for e, a, b in rows)
            assert p._view == (den, rows)

    def test_huge_exponents_multiply_exactly(self):
        big = 1 << 62
        far = LaurentPoly(2, {(1, -big): gr(3), (big, 0): gr(0, 1)})
        near = LaurentPoly.monomial(2, (-1, big), gr(2))
        for x, y in ((far, far), (far, near), (near * far, far)):
            assert x * y == product_pair_by_pair(x, y)
        assert (near * far).terms == {(0, 0): gr(6), (big - 1, big): gr(0, 2)}


class TestSqrtScalarFree:
    def test_perfect_square(self):
        s = sinh_half(2, (1, -1))
        g, c = sqrt_scalar_free(s * s)
        assert g * g == c * (s * s)
        assert not c.is_zero()

    def test_scalar_multiple(self):
        h = TorusRational(LaurentPoly(2, {(1, 0): gr(1), (0, -1): gr(2)}))
        f = h * h * 4
        g, c = sqrt_scalar_free(f)
        assert g * g == c * f

    def test_gamma_shape_input(self):
        # 1/sinh^2 has square root 1/sinh up to scalar
        s = sinh_half(2, (1, -1))
        f = TorusRational.const(2, Fraction(1, 4)) / (s * s)
        g, c = sqrt_scalar_free(f)
        assert g * g == c * f
        # g is a scalar multiple of 1/sinh
        ratio = g * s
        assert ratio.is_scalar() and not ratio.scalar_value().is_zero()

    def test_zero(self):
        g, c = sqrt_scalar_free(TorusRational.zero(2))
        assert g.is_zero() and c == ONE

    def test_rejects_non_square(self):
        s = sinh_half(2, (1, -1))
        with pytest.raises(NotAScalarSquare):
            sqrt_scalar_free(s)
        with pytest.raises(NotAScalarSquare):
            sqrt_scalar_free(TorusRational.monomial(2, (1, 0)))


    # polynomial parts of sinh of half the weights (1, -1) and (1, 1)
    SW = LaurentPoly(2, {(2, 0): gr(Fraction(1, 2)), (0, 2): gr(Fraction(-1, 2))})
    SV = LaurentPoly(2, {(2, 2): gr(Fraction(1, 2)), (0, 0): gr(Fraction(-1, 2))})

    def test_poly_sqrt_recovers_a_repeated_factor(self):
        s = self.SW * self.SW * self.SV
        square = s * s * gr(3, -2)
        root, scale = _poly_sqrt(square.terms)
        r = LaurentPoly(2, root)
        assert r * r * scale == square
        lead = (6, 2)
        assert s == r * (s.terms[lead] / root[lead])
        f = TorusRational(square) / TorusRational(self.SV * self.SV)
        g, c = sqrt_scalar_free(f)
        assert g * g == c * f

    def test_poly_sqrt_rejects_non_squares(self):
        s = self.SW * self.SW * self.SV
        for bad in (self.SW * self.SW * self.SW, s * s + 1):
            with pytest.raises(NotAScalarSquare):
                _poly_sqrt(bad.terms)


class TestPickle:
    def test_round_trip_keeps_canonical_form(self):
        import pickle

        p = LaurentPoly(2, {(1, -1): gr(Fraction(1, 2)), (0, 2): gr(0, 3)})
        f = sinh_half(2, (1, -1)) / (cosh_half(2, (1, 1)) * 3)
        pp = p * p
        pp * p  # derives and keeps the integer view of pp
        assert pp._view is not None
        for x in (p, pp, f, TorusRational(p)):
            y = pickle.loads(pickle.dumps(x))
            assert y == x and hash(y) == hash(x)
        # the view is not pickled: pp pickles as its terms alone
        assert pickle.dumps(pp) == pickle.dumps(LaurentPoly(2, dict(pp.terms)))
        assert pickle.loads(pickle.dumps(pp))._view is None
        # canonicalizing the unpickled pair again changes nothing
        y = pickle.loads(pickle.dumps(f))
        again = TorusRational(y.num, y.den)
        assert (again.num, again.den) == (y.num, y.den)
