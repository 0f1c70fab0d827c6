from fractions import Fraction

import pytest

from superalg.errors import NotAScalarSquare
from superalg.sampling import rand_laurent, rand_scalar, rand_torus_rational, rng
from superalg.scalars import gr, ONE, ZERO
from superalg.torus import (
    LaurentPoly,
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
            at_zero = [e[i] for e in p.terms for i, z in enumerate(point) if z.is_zero()]
            if any(k < 0 for k in at_zero):
                raised += 1
                with pytest.raises(ZeroDivisionError):
                    p.eval(point)
                with pytest.raises(ZeroDivisionError):
                    eval_term_by_term(p, point)
            else:
                vanished += any(k > 0 for k in at_zero)  # a term is 0 there
                assert p.eval(point) == eval_term_by_term(p, point)
        assert raised > 20 and vanished > 20


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
        for x in (p, f, TorusRational(p)):
            y = pickle.loads(pickle.dumps(x))
            assert y == x and hash(y) == hash(x)
        # canonicalizing the unpickled pair again changes nothing
        y = pickle.loads(pickle.dumps(f))
        again = TorusRational(y.num, y.den)
        assert (again.num, again.den) == (y.num, y.den)
