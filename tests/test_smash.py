from fractions import Fraction

import pytest

from superalg.errors import DegreeTooHigh, SingularOddBlock, ZeroTorusCoordinate
from superalg.linalg import inv, mat_mul
from superalg.pbw import pbw_normalize
from superalg.sampling import rand_smash_element, rand_torus_coords, rng
from superalg.scalars import gr, ONE, ZERO
from superalg.smash import (
    SmashAlgebra,
    SmashElement,
    TorusElement,
    antipode,
    check_hopf_axioms,
    conjugation_pullback,
    coproduct,
    counit,
    gamma_via_sdet,
    jacobian_at,
    orthosymplectic_frame,
    smash_multiply,
)
from superalg.supermatrix import SuperMatrix


def regular_points(rs, count, seed):
    from superalg.liealg import ad_eigenvalue

    r = rng(seed)
    out = []
    while len(out) < count:
        coords = rand_torus_coords(r, rs.rank)
        if all(ad_eigenvalue(rs, coords, root.index) != ONE for root in rs.odd_roots):
            out.append(TorusElement(coords))
    return out


def framed_berezinian(rs, form, a):
    """Berezinian of F^-1 J F, J the Jacobian at a and F the
    orthosymplectic frame."""
    jac = jacobian_at(rs, a)
    fe, fo = orthosymplectic_frame(rs, form)
    a_block = mat_mul(mat_mul(inv(fe, ZERO, ONE), [list(r) for r in jac.a], ZERO), fe, ZERO)
    d_block = mat_mul(mat_mul(inv(fo, ZERO, ONE), [list(r) for r in jac.d], ZERO), fo, ZERO)
    b_block = [[ZERO] * jac.q for _ in range(jac.p)]
    c_block = [[ZERO] * jac.p for _ in range(jac.q)]
    return SuperMatrix(jac.p, jac.q, a_block, b_block, c_block, d_block).berezinian()


@pytest.fixture(scope="module")
def alg11(gl11):
    g, _, rs = gl11
    return SmashAlgebra(g, rs)


@pytest.fixture(scope="module")
def alg21(gl21):
    g, _, rs = gl21
    return SmashAlgebra(g, rs)


class TestTorusElement:
    def test_group_law(self):
        a = TorusElement((gr(2), gr(3)))
        b = TorusElement((gr(Fraction(1, 2)), gr(Fraction(1, 3))))
        assert (a * b).is_identity()
        assert a.inverse() * a == TorusElement.identity(2)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ZeroTorusCoordinate):
            TorusElement((gr(0), gr(1)))


class TestSmashProduct:
    def test_unit(self, alg11):
        r = rng(4)
        e = alg11.unit()
        for _ in range(10):
            u = rand_smash_element(alg11, r)
            assert smash_multiply(e, u) == u
            assert smash_multiply(u, e) == u

    def test_ad_twist_example(self, alg11):
        g = alg11.g
        i12 = g.names.index("E12")
        a = TorusElement((gr(2), gr(1)))
        lhs = smash_multiply(alg11.primitive(i12), alg11.group_like(a))
        assert lhs == alg11.element(a, ((i12, 1),), gr(Fraction(1, 4)))

    def test_group_algebra_embeds(self, alg11):
        a = TorusElement((gr(2), gr(3)))
        b = TorusElement((gr(5), gr(Fraction(1, 3))))
        assert smash_multiply(
            alg11.group_like(a), alg11.group_like(b)
        ) == alg11.group_like(a * b)

    def test_enveloping_embeds(self, alg11):
        # e#x * e#y = e#(xy), so the smash restricts to the PBW product
        g = alg11.g
        r = rng(15)
        from superalg.sampling import rand_word

        e = TorusElement.identity(alg11.t)
        for _ in range(30):
            w1 = rand_word(r, g.dim, max_len=3)
            w2 = rand_word(r, g.dim, max_len=3)
            u1 = SmashElement(alg11, {(e, mon): c for mon, c in pbw_normalize(g, w1).terms.items()})
            u2 = SmashElement(alg11, {(e, mon): c for mon, c in pbw_normalize(g, w2).terms.items()})
            want = SmashElement(
                alg11, {(e, mon): c for mon, c in pbw_normalize(g, w1 + w2).terms.items()}
            )
            assert smash_multiply(u1, u2) == want

    def test_associativity_random(self, alg11):
        r = rng(23)
        for _ in range(100):
            u = rand_smash_element(alg11, r, max_terms=2, degree_cap=2)
            v = rand_smash_element(alg11, r, max_terms=2, degree_cap=2)
            w = rand_smash_element(alg11, r, max_terms=2, degree_cap=2)
            assert smash_multiply(smash_multiply(u, v), w) == smash_multiply(
                u, smash_multiply(v, w)
            )


class TestCoalgebra:
    def test_group_like(self, alg11):
        a = TorusElement((gr(2), gr(5)))
        d = coproduct(alg11.group_like(a))
        assert d.terms == {((a, ()), (a, ())): ONE}

    def test_primitive(self, alg11):
        g = alg11.g
        i12 = g.names.index("E12")
        e = TorusElement.identity(2)
        d = coproduct(alg11.primitive(i12))
        assert d.terms == {
            ((e, ((i12, 1),)), (e, ())): ONE,
            ((e, ()), (e, ((i12, 1),))): ONE,
        }

    def test_koszul_sign_on_odd_product(self, alg11):
        # Delta(XY) for odd X, Y carries (-1)^{|X||Y|} on the cross term;
        # oracle: multiply Delta(X) Delta(Y) in the tensor square
        g = alg11.g
        i12, i21 = g.names.index("E12"), g.names.index("E21")
        e = TorusElement.identity(2)
        xy = pbw_normalize(g, (i12, i21))
        u = SmashElement(alg11, {(e, mon): c for mon, c in xy.terms.items()})
        lhs = coproduct(u)
        rhs = coproduct(alg11.primitive(i12)) * coproduct(alg11.primitive(i21))
        assert lhs == rhs
        # the explicit cross terms: X x Y and -(Y x X) for these odd gens
        key_xy = ((e, ((i12, 1),)), (e, ((i21, 1),)))
        key_yx = ((e, ((i21, 1),)), (e, ((i12, 1),)))
        assert lhs.terms[key_xy] == ONE
        assert lhs.terms[key_yx] == gr(-1)

    def test_counit(self, alg11):
        a = TorusElement((gr(2), gr(1)))
        assert counit(alg11.group_like(a)) == ONE
        i12 = alg11.g.names.index("E12")
        assert counit(alg11.primitive(i12)) == ZERO


class TestAntipode:
    def test_group_like_inverse(self, alg11):
        a = TorusElement((gr(2), gr(7)))
        assert antipode(alg11.group_like(a)) == alg11.group_like(a.inverse())
        # involution on group-likes
        assert antipode(antipode(alg11.group_like(a))) == alg11.group_like(a)

    def test_unit_fixed(self, alg11):
        assert antipode(alg11.unit()) == alg11.unit()

    def test_primitive_with_ad_twist(self, alg11):
        g = alg11.g
        i12 = g.names.index("E12")
        a = TorusElement((gr(2), gr(1)))
        got = antipode(alg11.element(a, ((i12, 1),)))
        assert got == alg11.element(a.inverse(), ((i12, 1),), gr(-4))

    def test_axiom_on_group_like_and_primitive(self, alg11):
        # m (Id x s) Delta collapses to the counit times the unit already
        # on the two generating shapes
        from superalg.smash import _antipode_convolution

        a = TorusElement((gr(3), gr(Fraction(1, 2))))
        u = alg11.group_like(a)
        assert _antipode_convolution(u, "right") == alg11.unit()
        assert _antipode_convolution(u, "left") == alg11.unit()
        x = alg11.primitive(alg11.g.names.index("E12"))
        assert _antipode_convolution(x, "right").is_zero()
        assert _antipode_convolution(x, "left").is_zero()

    def test_hopf_axioms_random(self, alg11):
        rep = check_hopf_axioms(alg11, samples=100, seed=99)
        assert rep["pass"], rep["failures"]
        assert rep["checks"]["antipode_right"] == 100
        assert rep["checks"]["super_cocommutativity"] == 100

    def test_hopf_axioms_gl21(self, alg21):
        rep = check_hopf_axioms(alg21, samples=25, seed=5)
        assert rep["pass"], rep["failures"]


class TestConjugationPullback:
    def test_both_units(self, alg11):
        a = TorusElement((gr(2), gr(1)))
        b = TorusElement((gr(3), gr(5)))
        assert conjugation_pullback(alg11, a, (), b, ()) == alg11.element(a, ())

    def test_group_conjugates_primitive(self, alg11):
        g = alg11.g
        i12 = g.names.index("E12")
        a = TorusElement((gr(2), gr(1)))
        b = TorusElement((gr(3), gr(Fraction(1, 2))))
        got = conjugation_pullback(alg11, a, ((i12, 1),), b, ())
        assert got == alg11.element(a, ((i12, 1),), gr(36))

    def test_difference_display(self, alg11):
        g = alg11.g
        i12 = g.names.index("E12")
        a = TorusElement((gr(2), gr(1)))
        b = TorusElement((gr(3), gr(Fraction(1, 2))))
        got = conjugation_pullback(alg11, a, (), b, ((i12, 1),))
        # Ad(b)(X - Ad(a^-1)X) = 36 (1 - 1/4) E12 = 27 E12
        assert got == alg11.element(a, ((i12, 1),), gr(27))

    def test_general_display_consistency(self, alg11):
        # for X_a, X_b both primitive the general formula specializes to
        # Ad(b)(X_a X_b - (-1)^{|Xa||Xb|} Ad(a^-1)(X_b) X_a)
        g = alg11.g
        i12, i21 = g.names.index("E12"), g.names.index("E21")
        a = TorusElement((gr(2), gr(1)))
        b = TorusElement((gr(3), gr(1)))
        got = conjugation_pullback(alg11, a, ((i12, 1),), b, ((i21, 1),))
        adb_12, adb_21 = gr(9), gr(Fraction(1, 9))
        ada_inv_21 = gr(4)  # Ad(a^-1) on E21: (1/2)^(-2) = 4
        from superalg.pbw import normalize_terms

        items = [
            ((i12, i21), adb_12 * adb_21),
            ((i21, i12), ada_inv_21 * adb_21 * adb_12),  # sign +: both odd
        ]
        want_terms = normalize_terms(g, items)
        want = SmashElement(alg11, {(a, mon): c for mon, c in want_terms.items()})
        assert got == want

    def test_degree_cap(self, alg11):
        a = TorusElement((gr(2), gr(1)))
        i12, i21 = alg11.g.names.index("E12"), alg11.g.names.index("E21")
        with pytest.raises(DegreeTooHigh):
            conjugation_pullback(alg11, a, ((i21, 1), (i12, 1)), a, ())


class TestJacobian:
    def test_identity_point(self, gl11):
        _, _, rs = gl11
        e = TorusElement.identity(2)
        jac = jacobian_at(rs, e)
        assert jac.is_block_diagonal()
        assert all(jac.a[i][i] == ONE for i in range(jac.p))
        assert all(jac.d[i][i] == ZERO for i in range(jac.q))
        with pytest.raises(SingularOddBlock):
            gamma_via_sdet(rs, e)

    def test_gl11_example_point(self, gl11):
        _, form, rs = gl11
        a = TorusElement((gr(2), gr(1)))
        jac = jacobian_at(rs, a)
        odd_diag = {str(jac.d[i][i]) for i in range(jac.q)}
        assert odd_diag == {"-3", "3/4"}  # 1-4 and 1-1/4

    def test_block_diagonal_across_cartan_and_roots(self, gl21):
        g, form, rs = gl21
        r = rng(31)
        a = TorusElement(rand_torus_coords(r, 3))
        jac = jacobian_at(rs, a)
        assert jac.is_block_diagonal()
        # Cartan block is exactly the identity
        for i in range(rs.rank):
            for j in range(jac.p):
                want = ONE if i == j else ZERO
                assert jac.a[i][j] == want

    def test_cartan_orthogonal_to_root_spaces(self, gl21):
        # the gram matrix pairs the Cartan trivially with every root vector
        g, form, rs = gl21
        for h in rs.cartan:
            for root in rs.roots:
                assert form.b(h, root.index) == ZERO

    def test_full_rank_iff_no_unit_eigenvalue(self, gl21):
        from superalg.liealg import ad_eigenvalue

        g, form, rs = gl21
        r = rng(61)
        seen_regular = seen_singular = False
        for _ in range(60):
            coords = rand_torus_coords(r, 3)
            a = TorusElement(coords)
            unit_ev = any(
                ad_eigenvalue(rs, coords, root.index) == ONE for root in rs.roots
            )
            jac = jacobian_at(rs, a)
            from superalg.linalg import det

            full_rank = not det(jac.full(), ZERO).is_zero()
            assert full_rank == (not unit_ev)
            seen_regular |= full_rank
            seen_singular |= not full_rank
        assert seen_regular and seen_singular


class TestGammaSdet:
    def test_spot_value(self, gl11):
        _, _, rs = gl11
        val = gamma_via_sdet(rs, TorusElement((gr(2), gr(1))))
        assert val in (gr(Fraction(4, 9)), gr(Fraction(-4, 9)))

    def test_frame_is_symplectic_on_odd_part(self, gl21):
        g, form, rs = gl21
        fe, fo = orthosymplectic_frame(rs, form)
        # columns of fe are b-orthogonal and none is b-null
        even_ids = list(rs.cartan) + [r.index for r in rs.even_roots]
        cols = [
            {even_ids[k]: fe[k][c] for k in range(len(fe)) if not fe[k][c].is_zero()}
            for c in range(len(fe))
        ]
        for c, u in enumerate(cols):
            for d, v in enumerate(cols):
                assert form.b_vec(u, v).is_zero() == (c != d)
        # columns of fo pair odd roots into couples with b(u, v) = 1
        odd_ids = [r.index for r in rs.odd_roots]
        ncols = len(fo)
        for c in range(0, ncols, 2):
            u = {odd_ids[k]: fo[k][c] for k in range(ncols) if not fo[k][c].is_zero()}
            v = {
                odd_ids[k]: fo[k][c + 1]
                for k in range(ncols)
                if not fo[k][c + 1].is_zero()
            }
            assert form.b_vec(u, v) == ONE
            assert form.b_vec(v, u) == gr(-1)

    def test_antipode_involution_random(self, alg11):
        # super co-commutativity forces s(s(u)) = u; this exercises every
        # Koszul sign in the antihomomorphic extension at once
        r = rng(911)
        for _ in range(50):
            u = rand_smash_element(alg11, r, max_terms=3, degree_cap=3)
            assert antipode(antipode(u)) == u

    def test_matches_root_frame_determinants(self, gl21, gl22):
        # frame conjugation cannot change the Berezinian
        from superalg.linalg import det

        _, _, rs = gl21
        r = rng(41)
        for _ in range(10):
            a = TorusElement(rand_torus_coords(r, 3))
            jac = jacobian_at(rs, a)
            try:
                val = gamma_via_sdet(rs, a)
            except SingularOddBlock:
                continue
            det_odd = det([list(row) for row in jac.d], ZERO)
            det_even = det([list(row) for row in jac.a], ZERO)
            assert val == det_even / det_odd
        # the Berezinian of F^-1 J F in the orthosymplectic frame agrees
        for (_, form, rs), seed in ((gl21, 42), (gl22, 43)):
            for a in regular_points(rs, 10, seed):
                assert framed_berezinian(rs, form, a) == gamma_via_sdet(rs, a)


class TestPickle:
    def test_torus_element(self):
        import pickle

        a = TorusElement((gr(2), gr(Fraction(1, 3), -1)))
        back = pickle.loads(pickle.dumps(a))
        assert back == a and hash(back) == hash(a)

    def test_smash_and_tensor_elements(self, alg11):
        import pickle

        r = rng(17)
        for _ in range(5):
            u = rand_smash_element(alg11, r)
            back = pickle.loads(pickle.dumps(u))
            assert back.terms == u.terms
            assert back.alg.g.names == alg11.g.names
            t = coproduct(u)
            t_back = pickle.loads(pickle.dumps(t))
            assert t_back == t and t_back.legs == t.legs
