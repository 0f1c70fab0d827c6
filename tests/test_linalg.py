from fractions import Fraction

from superalg.linalg import add_term
from superalg.scalars import gr, ZERO
from superalg.torus import TorusRational, sinh_half


def test_add_term_accumulates():
    out = {}
    add_term(out, "x", gr(1))
    add_term(out, "x", gr(0, 2))
    assert out == {"x": gr(1, 2)}


def test_add_term_cancellation_removes_key():
    out = {"x": gr(Fraction(3, 2)), "y": gr(1)}
    add_term(out, "x", gr(Fraction(-3, 2)))
    assert out == {"y": gr(1)}


def test_add_term_zero_on_absent_key_stores_nothing():
    out = {}
    add_term(out, "x", ZERO)
    assert out == {}


def test_add_term_torus_coefficients():
    s = sinh_half(2, (1, -1))
    out = {}
    add_term(out, (0, 1), s)
    add_term(out, (0, 1), s * 2)
    assert out == {(0, 1): s * 3}
    add_term(out, (0, 1), -(s * 3))
    assert out == {}
    add_term(out, (1, 0), TorusRational.zero(2))
    assert out == {}
