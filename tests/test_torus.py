from fractions import Fraction

import pytest

from superalg.errors import NotAScalarSquare
from superalg.sampling import rand_torus_rational, rng
from superalg.scalars import gr, ONE
from superalg.torus import (
    LaurentPoly,
    _poly_sqrt,
    TorusRational,
    cosh_half,
    sinh_half,
    sqrt_scalar_free,
    torus_derive,
)


def tr_const(c):
    return TorusRational.const(2, c)


class TestDerivation:
    def test_monomial_chain_rule(self):
        # q1^2 models exp(y1); its y1-derivative is itself
        f = TorusRational.monomial(2, (2, 0))
        assert torus_derive(f, 0) == f

    def test_constant(self):
        f = tr_const(5)
        for i in (0, 1):
            assert torus_derive(f, i).is_zero()

    def test_sinh_derivative(self):
        # oracle: d/dy1 sinh((y1-y2)/2) = cosh((y1-y2)/2) / 2, by hand
        s = sinh_half(2, (1, -1))
        c = cosh_half(2, (1, -1))
        assert torus_derive(s, 0) == c * gr(Fraction(1, 2))
        assert torus_derive(s, 1) == c * gr(Fraction(-1, 2))

    def test_leibniz_on_random_pairs(self):
        r = rng(2024)
        checked = 0
        while checked < 100:
            f = rand_torus_rational(r, 2)
            g = rand_torus_rational(r, 2)
            for i in (0, 1):
                lhs = torus_derive(f * g, i)
                rhs = torus_derive(f, i) * g + f * torus_derive(g, i)
                assert lhs == rhs
            checked += 1

    def test_mixed_partials_commute(self):
        r = rng(77)
        for _ in range(40):
            f = rand_torus_rational(r, 2)
            assert torus_derive(torus_derive(f, 0), 1) == torus_derive(
                torus_derive(f, 1), 0
            )

    def test_quotient_rule_exactness(self):
        s = sinh_half(2, (1, -1))
        f = TorusRational.one(2) / s
        # d/dy1 (1/sinh) = -cosh/(2 sinh^2)
        want = -(cosh_half(2, (1, -1)) * gr(Fraction(1, 2))) / (s * s)
        assert torus_derive(f, 0) == want

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

    def test_json_roundtrip(self):
        r = rng(13)
        for _ in range(10):
            f = rand_torus_rational(r, 2)
            back = TorusRational.from_json(2, f.to_json())
            assert back == f


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
            assert y.to_json() == x.to_json()
        # canonicalizing the unpickled pair again changes nothing
        y = pickle.loads(pickle.dumps(f))
        again = TorusRational(y.num, y.den)
        assert (again.num, again.den) == (y.num, y.den)
