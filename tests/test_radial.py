from fractions import Fraction
from math import prod

import pytest
from sympy import Poly

from superalg import _polytools, cli, torus
from superalg.errors import NotEigenfunction, SingularOddBlock
from superalg.liealg import Root, RootSystem, build_gl
from superalg.linalg import rref
from superalg.radial import (
    RadialOperator,
    TorusLaplacian,
    _quadratic_exponents,
    apply_radial_C2,
    build_radial,
    check_gamma_oracle,
    default_weights,
    extract_P,
    gamma_closed_form,
    leading_term_match,
    leading_term_reference,
    weights_needed,
)
from superalg.sampling import rand_torus_coords, regular_points, rng
from superalg.scalars import gr, I, ONE
from superalg.smash import SmashAlgebra, TorusElement, gamma_via_sdet
from superalg.torus import TorusRational, cosh_half, sinh_half, sqrt_scalar_free


class TestGammaClosedForm:
    def test_gl11(self, gl11):
        _, _, rs = gl11
        gamma = gamma_closed_form(rs)
        s = sinh_half(2, (1, -1))
        assert gamma == TorusRational.const(2, Fraction(1, 4)) / (s * s)
        assert gamma.eval((gr(2), gr(1))) == gr(Fraction(4, 9))

    def test_gl21(self, gl21):
        _, _, rs = gl21
        gamma = gamma_closed_form(rs)
        # 2^{2-4} i^2 sinh^2(a/2) / (sinh^2(b1/2) sinh^2(b2/2))
        sa = sinh_half(3, (1, -1, 0))
        s1 = sinh_half(3, (1, 0, -1))
        s2 = sinh_half(3, (0, 1, -1))
        want = (
            TorusRational.const(3, Fraction(1, 4))
            * (I * I)
            * sa
            * sa
            / (s1 * s1 * s2 * s2)
        )
        assert gamma == want

    def test_purely_even_synthetic(self):
        # regression for the formula plumbing: R1 empty, one positive even
        # root with its negative; gamma = 2^2 i^2 sinh^2(a/2)
        rs = RootSystem(
            cartan=(0, 1),
            roots=(Root((1, -1), 0, 2), Root((-1, 1), 0, 3)),
            positives=(0,),
        )
        gamma = gamma_closed_form(rs)
        s = sinh_half(2, (1, -1))
        assert gamma == s * s * gr(-4)

    def test_double_listed_root_parities(self):
        # a weight carried by both an even and an odd root vector counts
        # once in each family: the sinh factors cancel and only the
        # prefactor 2^{|R0|-|R1|} i^{|R0|} = -1 survives
        rs = RootSystem(
            cartan=(0, 1),
            roots=(
                Root((1, -1), 0, 2),
                Root((-1, 1), 0, 3),
                Root((1, -1), 1, 4),
                Root((-1, 1), 1, 5),
            ),
            positives=(0, 2),
        )
        assert gamma_closed_form(rs) == TorusRational.const(2, -1)

    def test_center_shift_invariance(self, gl21):
        # gamma only sees root directions: scaling every coordinate by s
        # leaves it unchanged, structurally and numerically
        _, _, rs = gl21
        gamma = gamma_closed_form(rs)
        # structurally: all monomials in the numerator share one total
        # degree, ditto the denominator, and the two degrees agree
        num_sums = {sum(e) for e in gamma.num.terms}
        den_sums = {sum(e) for e in gamma.den.terms}
        assert len(num_sums) == 1 and len(den_sums) == 1
        assert num_sums == den_sums
        r = rng(9)
        for _ in range(10):
            z = rand_torus_coords(r, 3)
            s = gr(Fraction(5, 3))
            scaled = tuple(c * s for c in z)
            try:
                v1 = gamma.eval(z)
                v2 = gamma.eval(scaled)
            except ZeroDivisionError:
                continue
            assert v1 == v2


def _record_sympy_gcds(monkeypatch, depth=None):
    """Wrap Poly.gcd, as the benchmark's tracer does, and return the list to
    which each call appends (its generator count, the poly_gcd depth)."""
    calls, gcd = [], vars(Poly)["gcd"]

    def counting(poly, *args, **kwargs):
        calls.append((len(poly.gens), depth[0] if depth else None))
        return gcd(poly, *args, **kwargs)

    monkeypatch.setattr(Poly, "gcd", counting)
    return calls


class TestGammaGcd:
    """N and D of the closed form are homogeneous, so their one sympy gcd
    runs on the root lattice, in rank - 1 generators."""

    @pytest.mark.parametrize("m, n", [(2, 1), (1, 2), (2, 2)])
    def test_the_gamma_gcd_drops_one_generator(self, m, n, monkeypatch):
        _, _, rs = build_gl(m, n)
        gamma_closed_form.cache_clear()
        calls = _record_sympy_gcds(monkeypatch)
        gamma_closed_form(rs)
        assert calls == [(rs.rank - 1, None)]

    def test_radial_pass_takes_one_sympy_gcd_inside_one_poly_gcd(self, monkeypatch, capsys):
        # every binding of poly_gcd is wrapped, so a poly_gcd that called
        # itself again would show as depth 2
        depth, spans, poly_gcd = [0], [], _polytools.poly_gcd

        def spanned(*args):
            depth[0] += 1
            spans.append(depth[0])
            try:
                return poly_gcd(*args)
            finally:
                depth[0] -= 1

        for module in (_polytools, torus):
            monkeypatch.setattr(module, "poly_gcd", spanned)
        calls = _record_sympy_gcds(monkeypatch, depth)
        gamma_closed_form.cache_clear()
        for algebra in ("gl:2,1", "gl:1,2"):
            argv = ["radial", "--algebra", algebra, "--points", "2", "--weights", "10",
                    "--seed", "1"]
            assert cli.main(argv) == 0
        capsys.readouterr()
        assert spans and set(spans) == {1}
        assert calls == [(2, 1), (2, 1)]

    @pytest.mark.parametrize("argv, rank", [
        (["gamma-check", "--algebra", "gl:2,2", "--points", "4", "--seed", "1"], 4),
        (["radial", "--algebra", "gl:3,2", "--points", "2", "--weights", "21", "--seed", "1"], 5),
    ], ids=["gamma-check", "radial"])
    def test_a_run_makes_one_sympy_gcd_and_no_sympy_division(self, argv, rank, monkeypatch,
                                                              capsys):
        # the gcd of the coprime N and D is a unit, so no division by it
        # reaches sympy
        seen = {"gcd": [], "div": []}
        for name, calls in seen.items():
            def counting(poly, *args, _method=vars(Poly)[name], _calls=calls, **kwargs):
                _calls.append((len(poly.gens), str(poly.domain)))
                return _method(poly, *args, **kwargs)

            monkeypatch.setattr(Poly, name, counting)
        gamma_closed_form.cache_clear()
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert seen == {"gcd": [(rank - 1, "QQ")], "div": []}


class TestGammaOracle:
    def test_gl11_points(self, gl11):
        g, form, rs = gl11
        pts = regular_points(rs, 20, seed=100)
        rep = check_gamma_oracle(SmashAlgebra(g, rs), form, pts)
        assert rep["pass"]
        assert rep["sign"] in (1, -1)

    def test_no_points_is_refused(self, gl11):
        g, form, rs = gl11
        for pts in ([], ()):
            with pytest.raises(ValueError):
                check_gamma_oracle(SmashAlgebra(g, rs), form, pts)

    def test_gl21_points(self, gl21):
        g, form, rs = gl21
        pts = regular_points(rs, 20, seed=101)
        rep = check_gamma_oracle(SmashAlgebra(g, rs), form, pts)
        assert rep["pass"]

    def test_global_sign_is_i_to_odd_count(self, gl11, gl21, gl22):
        # the closed form differs from the root-frame superdeterminant by
        # the frame constant i^|R1| (always +-1 since roots pair up):
        # closed/sdet = (-4)^{|R0+|} / (i^|R0| 2^|R0|) style bookkeeping
        # collapses to exactly that factor
        for bundle, seed in ((gl11, 31), (gl21, 32), (gl22, 33)):
            g, form, rs = bundle
            pts = regular_points(rs, 5, seed)
            rep = check_gamma_oracle(SmashAlgebra(g, rs), form, pts)
            assert rep["pass"]
            predicted = 1 if len(rs.odd_roots) % 4 == 0 else -1
            assert rep["sign"] == predicted

    def test_single_global_sign(self, gl11):
        g, form, rs = gl11
        alg = SmashAlgebra(g, rs)
        gamma = gamma_closed_form(rs)
        pts = regular_points(rs, 10, seed=7)
        sigma = None
        for a in pts:
            closed = gamma.eval(a.coords)
            sdet = gamma_via_sdet(alg, a)
            if closed.is_zero():
                continue
            this = closed / sdet
            sigma = sigma or this
            assert this == sigma
        assert sigma in (gr(1), gr(-1))

    def test_singular_point_skipped_with_notice(self, gl11):
        g, form, rs = gl11
        pts = [TorusElement((gr(2), gr(1))), TorusElement((gr(1), gr(1)))]
        rep = check_gamma_oracle(SmashAlgebra(g, rs), form, pts)
        assert rep["pass"]
        assert rep["skipped"] == 1
        assert rep["points"][1]["singular"]

    def test_every_point_skipped_fails(self, gl11):
        # (1, 1) and (-1, 1) give the odd roots Ad eigenvalue 1: nothing is compared
        g, form, rs = gl11
        pts = [TorusElement((gr(1), gr(1))), TorusElement((gr(-1), gr(1)))]
        rep = check_gamma_oracle(SmashAlgebra(g, rs), form, pts)
        assert rep["pass"] is False
        assert rep["skipped"] == 2 and rep["sign"] == -1
        assert all(e["agree"] for e in rep["points"])

    def test_negated_berezinian_fails(self, gl11, gl21, gl22, monkeypatch):
        # the sign is predicted, not read off the first point: a Berezinian
        # with the opposite global sign disagrees at every nonzero point
        import superalg.radial as radial

        real = radial.gamma_via_sdet
        monkeypatch.setattr(radial, "gamma_via_sdet", lambda alg, a: -real(alg, a))
        for bundle, seed in ((gl11, 31), (gl21, 32), (gl22, 33)):
            g, form, rs = bundle
            rep = check_gamma_oracle(SmashAlgebra(g, rs), form, regular_points(rs, 5, seed))
            assert rep["pass"] is False
            assert rep["sign"] == (-1) ** len(rs.odd_positives)
            # only the points on gamma's zero locus still agree, as 0 = -0
            assert all(e["agree"] == (e["closed"] == gr(0).to_json()) for e in rep["points"])
            assert not all(e["agree"] for e in rep["points"])

    def test_singular_locus_agreement(self, gl11, gl21):
        # points with an odd root eigenvalue 1: the superdeterminant raises
        # and the closed form's denominator vanishes, at every such point
        cases = []
        g1, _, rs1 = gl11
        alg1 = SmashAlgebra(g1, rs1)
        for t in (1, 2, 3, Fraction(1, 2), -1):
            cases.append((alg1, (gr(t), gr(t))))       # z1 = z2
            cases.append((alg1, (gr(t), gr(-t))))      # z1 = -z2
        g2, _, rs2 = gl21
        alg2 = SmashAlgebra(g2, rs2)
        for t in (2, 3):
            cases.append((alg2, (gr(t), gr(5), gr(t))))   # z1 = z3
            cases.append((alg2, (gr(7), gr(t), gr(t))))   # z2 = z3
        assert len(cases) >= 10
        for alg, coords in cases:
            gamma = gamma_closed_form(alg.rs)
            assert gamma.den.eval(coords).is_zero()
            with pytest.raises(SingularOddBlock):
                gamma_via_sdet(alg, TorusElement(coords))


class TestRadialOperator:
    def test_gl11_eigenvalue_zero(self, gl11):
        g, form, rs = gl11
        op = build_radial(rs, form)
        assert op.eigenvalue_c == gr(0)
        # j is a scalar multiple of 1/sinh((y1-y2)/2)
        s = sinh_half(2, (1, -1))
        assert (op.j * s).is_scalar()
        # the identity holds as an exact field identity
        assert op.laplacian.apply(op.j) == op.j * op.eigenvalue_c

    def test_gl21_eigenvalue_regression(self, gl21):
        # frozen on first computation: the supertrace-normalized gl(2|1)
        # half-density is harmonic (its rho pairs to zero norm)
        g, form, rs = gl21
        op = build_radial(rs, form)
        assert op.eigenvalue_c == gr(0)
        assert op.laplacian.apply(op.j) == TorusRational.zero(3)

    def test_laplacian_coefficients(self, gl21):
        _, form, rs = gl21
        lap = TorusLaplacian.from_cartan(rs, form)
        assert lap.coeffs == (ONE, ONE, gr(-1))

    def test_monomial_eigenfunction_certifies(self):
        lap = TorusLaplacian((ONE, gr(-1)))
        op = RadialOperator.certify(TorusRational.monomial(2, (1, 0)), lap)
        assert op.eigenvalue_c == gr(Fraction(1, 4))

    def test_non_eigenfunction_rejected(self):
        lap = TorusLaplacian((ONE, gr(-1)))
        bad = TorusRational.monomial(2, (1, 0)) + TorusRational.monomial(2, (2, 0))
        with pytest.raises(NotEigenfunction):
            RadialOperator.certify(bad, lap)

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
    def test_certified_c_matches_the_field_ratio(self, m, n):
        # independent oracle: L(j) / j through canonical TorusRational
        # arithmetic and its gcds
        _, form, rs = build_gl(m, n)
        j, _ = sqrt_scalar_free(gamma_closed_form(rs))
        lap = TorusLaplacian.from_cartan(rs, form)
        c = RadialOperator.certify(j, lap).eigenvalue_c
        assert c == (lap.apply(j) / j).scalar_value()
        bent = j * (TorusRational.monomial(rs.rank, (1,) + (0,) * (rs.rank - 1)) + 1)
        with pytest.raises(NotEigenfunction):
            RadialOperator.certify(bent, lap)


class TestApplyRadial:
    def test_annihilates_constants(self, gl11):
        _, form, rs = gl11
        op = build_radial(rs, form)
        assert apply_radial_C2(op, TorusRational.one(2)).is_zero()
        assert apply_radial_C2(op, TorusRational.const(2, Fraction(7, 3))).is_zero()

    def test_hand_expanded_oracle(self, gl11):
        # product rule by hand: D f = L f + 2 sum_i c_i (d_i j / j) d_i f
        _, form, rs = gl11
        op = build_radial(rs, form)
        cases = [
            TorusRational.monomial(2, (2, -2)),  # exp(y1 - y2)
            TorusRational.monomial(2, (2, 0)),   # exp(y1)
            sinh_half(2, (2, 0)),
            cosh_half(2, (1, 1)) * gr(Fraction(2, 3)),
            TorusRational.monomial(2, (1, 0)) + TorusRational.monomial(2, (0, -1)),
        ]
        for f in cases:
            got = apply_radial_C2(op, f)
            want = op.laplacian.apply(f)
            for i, c in enumerate(op.laplacian.coeffs):
                ratio = op.j.derive(i) / op.j
                want = want + f.derive(i) * ratio * c * 2
            assert got == want

    def test_function_of_root_direction_killed(self, gl11):
        # exp(y1 - y2) and every function of y1 - y2 is radial-harmonic for
        # gl(1|1): the Laplacian d1^2 - d2^2 cancels on such functions
        _, form, rs = gl11
        op = build_radial(rs, form)
        f = TorusRational.monomial(2, (2, -2))
        assert apply_radial_C2(op, f).is_zero()

    def test_linearity(self, gl11):
        _, form, rs = gl11
        op = build_radial(rs, form)
        r = rng(66)
        for _ in range(6):
            f = TorusRational.monomial(
                2, (r.randint(-2, 2), r.randint(-2, 2)), gr(Fraction(r.randint(1, 5), 2))
            )
            g2 = sinh_half(2, (r.randint(-1, 2), r.randint(-1, 1))) + gr(r.randint(0, 3))
            assert apply_radial_C2(op, f + g2) == apply_radial_C2(
                op, f
            ) + apply_radial_C2(op, g2)


class TestExtractP:
    def test_gl11_polynomial(self, gl11):
        g, form, rs = gl11
        op = build_radial(rs, form)
        poly, rep = extract_P(op, default_weights(2, 10))
        assert rep["pass"]
        # p(lam) = (lam1/2)^2 - (lam2/2)^2 - c with c = 0
        assert poly.terms == {(2, 0): gr(Fraction(1, 4)), (0, 2): gr(Fraction(-1, 4))}
        assert poly.eval([gr(0), gr(0)]) == -op.eigenvalue_c
        assert poly.eval([gr(2), gr(-2)]) == gr(0)

    def test_gl21_polynomial_and_leading_term(self, gl21):
        g, form, rs = gl21
        op = build_radial(rs, form)
        poly, rep = extract_P(op, default_weights(3, 12))
        assert rep["pass"]
        assert max(sum(e) for e in poly.terms) == 2
        quad = {e: c for e, c in poly.terms.items() if sum(e) == 2}
        assert quad == {
            (2, 0, 0): gr(Fraction(1, 4)),
            (0, 2, 0): gr(Fraction(1, 4)),
            (0, 0, 2): gr(Fraction(-1, 4)),
        }
        ltm = leading_term_match(poly, g, form, rs)
        assert ltm["pass"], ltm

    def test_leading_term_reference(self, gl11):
        g, form, rs = gl11
        ref = leading_term_reference(g, form, rs)
        assert ref.terms == {(2, 0): gr(Fraction(1, 4)), (0, 2): gr(Fraction(-1, 4))}

    def test_gl22_full_pipeline(self, gl22):
        # rank-4 torus: beyond the acceptance scale but exercises the
        # square-root and fit machinery on eight odd roots
        g, form, rs = gl22
        op = build_radial(rs, form)
        assert op.eigenvalue_c == gr(0)
        poly, rep = extract_P(op, default_weights(4, 16))
        assert rep["pass"]
        quad = {e: c for e, c in poly.terms.items() if sum(e) == 2}
        q = Fraction(1, 4)
        assert quad == {
            (2, 0, 0, 0): gr(q),
            (0, 2, 0, 0): gr(q),
            (0, 0, 2, 0): gr(-q),
            (0, 0, 0, 2): gr(-q),
        }
        assert leading_term_match(poly, g, form, rs)["pass"]

    def test_default_weights_are_distinct_and_sufficient(self):
        for t in (2, 3, 4):
            need = (t + 1) * (t + 2) // 2
            ws = default_weights(t, need + 4)
            assert len(set(ws)) == need + 4
        # the leading weights_needed(t) weights alone determine a degree-2
        # polynomial: full rank against the degree <= 2 monomials
        for t in range(1, 7):
            exps = _quadratic_exponents(t)
            ws = default_weights(t, weights_needed(t))
            rows = [[gr(prod(x**k for x, k in zip(w, e))) for e in exps] for w in ws]
            assert len(rref(rows)[1]) == len(exps) == weights_needed(t), t

    def test_underdetermined_weights_rejected(self, gl11):
        g, form, rs = gl11
        op = build_radial(rs, form)
        with pytest.raises(ValueError):
            extract_P(op, [(0, 0)] * 12)
        # distinct weights on one line: lam_2 never varies, so the
        # lam_2 and lam_1 lam_2 columns stay zero
        with pytest.raises(ValueError, match="rank 3 of the 6"):
            extract_P(op, [(k, 0) for k in range(12)])

    def test_polynomial_is_the_laplacian_symbol(self, gl21):
        # p(lam) = sum_i c_i lam_i^2 / 4 - c, for a nonzero c too
        _, form, rs = gl21
        lap = TorusLaplacian.from_cartan(rs, form)
        op = RadialOperator.certify(TorusRational.monomial(3, (1, 0, 0)), lap)
        assert op.eigenvalue_c == gr(Fraction(1, 4))
        poly, rep = extract_P(op, default_weights(3, 10))
        assert rep["pass"] and rep["weights_tested"] == 10 and rep["degree"] == 2
        assert poly.terms == {
            (2, 0, 0): gr(Fraction(1, 4)),
            (0, 2, 0): gr(Fraction(1, 4)),
            (0, 0, 2): gr(Fraction(-1, 4)),
            (0, 0, 0): gr(Fraction(-1, 4)),
        }

    def test_no_torus_rational_arithmetic(self, gl21, monkeypatch):
        # every TorusRational is built by __init__ or _make_reduced, and
        # every _polytools call comes from one
        import superalg.torus as torus

        _, form, rs = gl21
        op = build_radial(rs, form)

        def forbidden(*args, **kwargs):
            raise AssertionError("extract_P built a TorusRational")

        monkeypatch.setattr(torus.TorusRational, "__init__", forbidden)
        monkeypatch.setattr(torus, "_make_reduced", forbidden)
        assert extract_P(op, default_weights(3, 12))[1]["pass"]

    def test_wrong_symbol_fails_at_a_named_weight(self, gl11, monkeypatch):
        # injected defect: c_i / 2 in place of c_i / 4
        _, form, rs = gl11
        op = build_radial(rs, form)

        real = TorusLaplacian.symbol
        monkeypatch.setattr(TorusLaplacian, "symbol", lambda lap: real(lap).scale(2))
        poly, rep = extract_P(op, default_weights(2, 6))
        assert poly.terms[(2, 0)] == gr(Fraction(1, 2))
        assert rep["pass"] is False
        assert rep["reason"].startswith("weight [1, 0]:")

    def test_conjugation_is_scalar_on_exponentials(self, gl11):
        # the conjugated operator sends q^lam to a scalar multiple of
        # itself identically (the identity extract_P reads the symbol off);
        # spot-check the scalar against the closed expression
        # L(q^lam)/q^lam - c
        _, form, rs = gl11
        op = build_radial(rs, form)
        for lam in [(1, 0), (0, -3), (2, 2), (-1, 4)]:
            q_lam = TorusRational.monomial(2, lam)
            conj = op.j * apply_radial_C2(op, q_lam / op.j)
            ratio = conj / q_lam
            assert ratio.is_scalar()
            lap_eig = sum(
                (Fraction(x, 2) ** 2) * (1 if i == 0 else -1)
                for i, x in enumerate(lam)
            )
            assert ratio.scalar_value() == gr(lap_eig) - op.eigenvalue_c
