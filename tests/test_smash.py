import itertools
import json
import pickle
from fractions import Fraction

import pytest

import superalg.smash as smash_mod
from superalg.errors import (
    DegenerateForm,
    DegreeTooHigh,
    SingularOddBlock,
    ZeroTorusCoordinate,
)
from superalg.liealg import (
    QuadraticForm,
    RootSystem,
    build_gl,
    dump_definition,
    load_definition,
)
from superalg.linalg import add_term, inv, mat_mul, wrap_terms
from superalg.pbw import monomial_parity, normalize_terms, pbw_normalize, word_of
from superalg.sampling import (
    rand_monomial,
    rand_smash_element,
    rand_torus_coords,
    regular_points,
    rng,
)
from superalg.scalars import gr, ONE, ZERO
from superalg.smash import (
    SmashAlgebra,
    SmashElement,
    TensorElement,
    _antipode_convolutions,
    _shuffle_split,
    _term_product,
    antipode,
    check_frame,
    check_hopf_axioms,
    conjugation_pullback,
    coproduct,
    coproduct_leg,
    counit,
    gamma_via_sdet,
    jacobian_at,
    orthosymplectic_frame,
    smash_multiply,
)
from superalg.supermatrix import SuperMatrix
from superalg.torus import TorusElement


def ad_oracle(rs, coords, mon):
    """Ad of the point with these coordinates on a PBW monomial, written
    out apart from TorusElement.ad: 1 on the Cartan, prod_i z_i^(2 w_i) on
    the root vector of weight w, multiplied factorwise."""
    weights = {r.index: r.weight for r in rs.roots}
    val = ONE
    for gen, p in mon:
        if gen not in rs.cartan:
            for z, e in zip(coords, weights[gen]):
                val = val * z ** (2 * e * p)
    return val


def framed_berezinian(alg, form, a):
    """Berezinian of F^-1 J F, J the Jacobian at a and F the
    orthosymplectic frame."""
    jac = jacobian_at(alg, a)
    fe, fo = orthosymplectic_frame(alg.rs, form)
    a_block = mat_mul(mat_mul(inv(fe), jac.a), fe)
    d_block = mat_mul(mat_mul(inv(fo), jac.d), fo)
    return SuperMatrix(a_block, d_block).berezinian()


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

    def test_points_of_different_ranks_do_not_multiply(self):
        a, b = TorusElement((gr(2), gr(3), gr(5))), TorusElement((gr(5), gr(7)))
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="different ranks"):
                x * y

    def test_one_class_under_every_import_path(self):
        import superalg

        assert superalg.TorusElement is smash_mod.TorusElement is TorusElement

    def test_equal_points_hash_equally(self):
        # the hash is taken from the coordinates' integer triples; every way
        # of building the same point must land on the same one
        built = [
            TorusElement((2, -1, gr(Fraction(1, 3), 1))),
            TorusElement((Fraction(4, 2), Fraction(-3, 3), gr(Fraction(2, 6), 1))),
            TorusElement((4, 1, gr(1, 3)))
            * TorusElement((Fraction(1, 2), -1, Fraction(1, 3))),
            TorusElement((Fraction(1, 2), -1, gr(Fraction(3, 10), Fraction(-9, 10)))).inverse(),
        ]
        built.append(pickle.loads(pickle.dumps(built[0])))
        table = {built[0]: "point"}
        for a in built:
            assert a == built[0] and hash(a) == hash(built[0])
            assert table[a] == "point"
        assert TorusElement((2, 1, 1)) != TorusElement((2, 1, -1))

    def test_inverse_is_computed_once_and_linked_both_ways(self):
        a = TorusElement((gr(2), gr(Fraction(1, 3), -1), gr(-1)))
        assert a.inverse() is a.inverse()
        assert a.inverse().inverse() is a
        assert a.inverse() == TorusElement((gr(Fraction(1, 2)), gr(Fraction(3, 10), Fraction(9, 10)), gr(-1)))

    def test_product_with_the_inverse_is_the_identity(self):
        a = TorusElement((gr(3), gr(Fraction(1, 2), 2)))
        e = TorusElement.identity(2)
        for prod in (a * a.inverse(), a.inverse() * a):
            assert prod == e and hash(prod) == hash(e)
            assert prod.is_identity()
        assert e.is_identity() and not a.is_identity()
        # a point equal to the inverse but built apart multiplies out
        b = TorusElement(a.inverse().coords)
        assert (a * b).is_identity() and a * b == e

    def test_identity_is_one_shared_point_per_rank(self):
        ids = {}
        for t in (1, 2, 3, 4):
            e = TorusElement.identity(t)
            assert TorusElement.identity(t) is e
            assert e.inverse() is e and e * e is e
            assert e.is_identity() and e.coords == (ONE,) * t
            a = TorusElement(tuple(gr(Fraction(k + 2, 3), k - 1) for k in range(t)))
            assert a * a.inverse() is e
            assert a.inverse() * a is e
            ids[t] = e
        # no two ranks share an identity, and each product lands on its own rank
        assert len({id(e) for e in ids.values()}) == len(ids)
        b = TorusElement((gr(2), gr(5), gr(7)))
        assert len((b * b.inverse()).coords) == 3
        assert b * b.inverse() is ids[3] and b * b.inverse() is not ids[2]

    def test_immutable(self):
        a = TorusElement((gr(2), gr(3)))
        a.inverse()
        a.ad((1, 0))
        for name in ("coords", "_hash", "_is_e", "_inv", "_ad", "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)


class TestAdTables:
    def test_each_algebra_keeps_its_own_values_for_one_point(self, gl21):
        # gl(2|1) and gl(1|2) list their basis in the same order with the
        # same weights, so their Ad values agree; gl(1|2) with its Cartan
        # basis listed in reverse is a valid root system of rank 3 whose
        # weights, and so Ad values, differ.  A cache keyed on the point
        # and the generator alone would hand the first algebra's values to
        # the others.
        g12, _, rs12 = build_gl(1, 2)
        flipped = RootSystem(
            rs12.cartan[::-1],
            [r._replace(weight=r.weight[::-1]) for r in rs12.roots],
            rs12.positives,
        )
        assert flipped.validate(g12)["pass"]
        g21, _, rs21 = gl21
        algs = [SmashAlgebra(g21, rs21), SmashAlgebra(g12, rs12), SmashAlgebra(g12, flipped)]
        a = TorusElement((gr(2), gr(3), gr(Fraction(-1, 2), 1)))
        gens = range(g12.dim)
        want = [[ad_oracle(alg.rs, a.coords, ((i, 1),)) for i in gens] for alg in algs]
        assert want[2] != want[1]
        for _ in range(2):  # the second round reads the point's cache
            for alg, values in zip(algs, want):
                assert [alg.ad_monomial(a, ((i, 1),)) for i in gens] == values
                mon = ((1, 1), (6, 2), (8, 1))
                assert alg.ad_monomial(a, mon) == values[1] * values[6] ** 2 * values[8]

    def test_unknown_basis_index_raises_at_its_call(self, gl21):
        g, _, rs = gl21
        partial = RootSystem(rs.cartan, [r for r in rs.roots if r.index != 0], [])
        alg = SmashAlgebra(g, partial)
        a = TorusElement((gr(2), gr(3), gr(5)))
        assert alg.ad_monomial(a, ((1, 1),)) == ad_oracle(rs, a.coords, ((1, 1),))
        for _ in range(2):
            with pytest.raises(ValueError, match="neither Cartan nor a root"):
                alg.ad_monomial(a, ((1, 1), (0, 1)))

    def test_point_of_the_wrong_rank_raises(self, alg21):
        # a rank-2 point on gl(2|1), rank 3: the third weight entry was
        # once zipped away, giving 9/4, 1/4, 1/9, 4/9 on the first roots
        a = TorusElement((gr(2), gr(3)))
        for i in range(alg21.g.dim):
            with pytest.raises(ValueError, match="does not match the rank 2"):
                alg21.ad_monomial(a, ((i, 1),))
        with pytest.raises(ValueError, match="does not match the rank 2"):
            a.ad((0, 0, 0))
        assert a.ad((1, -1)) == gr(Fraction(4, 9))


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

    def test_term_at_a_point_of_the_wrong_rank_raises(self, alg21):
        # gl(2|1) has rank 3; the product once returned the rank-2 point
        # (10, 21), zipping the third coordinate away.  The checked
        # constructor refuses such a term, so v is wrapped unchecked here
        u = alg21.element(TorusElement((gr(2), gr(3), gr(5))), ((0, 1),))
        v = wrap_terms(SmashElement, (alg21,), {(TorusElement((gr(5), gr(7))), ()): ONE})
        for x, y in ((u, v), (v, u)):
            with pytest.raises(ValueError):
                smash_multiply(x, y)

    def test_key_of_the_wrong_rank_raises(self, alg21):
        # the rank-2 identity once multiplied silently: times E21 it gave
        # (1)*(1, 1)#E21 on gl(2|1), whose rank is 3
        for point in (TorusElement.identity(2), TorusElement((gr(2), gr(3)))):
            with pytest.raises(ValueError, match="rank 3 of the algebra does not match"):
                SmashElement(alg21, {(point, ()): ONE}) * alg21.primitive(0)
            with pytest.raises(ValueError, match="rank 3 of the algebra does not match"):
                alg21.element(point, ((0, 1),))

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


def _random_leg(alg, r, identity_point, empty_monomial):
    """A smash key (point, monomial) of the requested shape."""
    point = TorusElement.identity(alg.t)
    while not identity_point and point.is_identity():
        point = TorusElement(rand_torus_coords(r, alg.t))
    mon = rand_monomial(alg.g, r, degree_cap=0 if empty_monomial else 3)
    while mon == () and not empty_monomial:
        mon = rand_monomial(alg.g, r, degree_cap=3)
    return point, mon


class TestTermProduct:
    @pytest.mark.parametrize("algebra", ["gl11", "gl21"])
    def test_matches_general_rule_on_every_leg_shape(self, algebra, request):
        # reference: the product rule with no shortcut,
        # (a1 # m1)(a2 # m2) = (a1 a2) # Ad(a2^-1)(m1) m2
        g, _, rs = request.getfixturevalue(algebra)
        alg = SmashAlgebra(g, rs)
        r = rng(53)
        for shape in itertools.product([True, False], repeat=4):
            for _ in range(8):
                a1, m1 = _random_leg(alg, r, shape[0], shape[1])
                a2, m2 = _random_leg(alg, r, shape[2], shape[3])
                scale = alg.ad_monomial(a2.inverse(), m1)
                want = normalize_terms(g, [(word_of(m1) + word_of(m2), scale)])
                point = a1 * a2
                assert _term_product(alg, (a1, m1), (a2, m2)) == {
                    (point, mon): c for mon, c in want.items()
                }


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

    def test_only_two_leg_tensors_multiply(self, alg11):
        two = coproduct(alg11.primitive(alg11.g.names.index("E12")))
        one = TensorElement(alg11, 1, {(k1,): c for (k1, _), c in two.terms.items()})
        three = coproduct_leg(two, 0)
        assert three.legs == 3
        for x, y in ((one, one), (three, three), (two, three), (one, two)):
            assert x.__mul__(y) is NotImplemented
            with pytest.raises(TypeError):
                x * y

    def test_twist_keeps_the_coproduct_of_two_odd_letters(self, alg11):
        # Delta(e # X_b X_-b) on gl(1|1), written out by hand:
        # X_b X_-b = -X_-b X_b + [X_b, X_-b] in PBW order, [E12, E21] = E11 + E22,
        # and the cross terms X_b x X_-b - X_-b x X_b carry the Koszul sign
        g = alg11.g
        xb, xmb, h1, h2 = (g.names.index(n) for n in ("E12", "E21", "E11", "E22"))
        e = TorusElement.identity(2)
        one = (e, ())
        yx = (e, ((xmb, 1), (xb, 1)))
        cartan = [(e, ((h1, 1),)), (e, ((h2, 1),))]
        terms = {(yx, one): -ONE, (one, yx): -ONE}
        for h in cartan:
            terms[(h, one)] = terms[(one, h)] = ONE
        terms[((e, ((xb, 1),)), (e, ((xmb, 1),)))] = ONE
        terms[((e, ((xmb, 1),)), (e, ((xb, 1),)))] = -ONE
        delta = TensorElement(alg11, 2, terms)
        assert delta == coproduct(smash_multiply(alg11.primitive(xb), alg11.primitive(xmb)))
        assert smash_mod._twist(delta) == delta
        assert _twist_without_sign(delta) != delta

    def test_counit(self, alg11):
        a = TorusElement((gr(2), gr(1)))
        assert counit(alg11.group_like(a)) == ONE
        i12 = alg11.g.names.index("E12")
        assert counit(alg11.primitive(i12)) == ZERO


def _right_twisted_term_product(alg, t1, t2):
    """(a1 # m1)(a2 # m2) = Ad(a1)(m2) (a1 a2) # m1 m2: the right factor
    twisted by Ad(a1) in place of the left one by Ad(a2^-1)."""
    (a1, m1), (a2, m2) = t1, t2
    prod = normalize_terms(alg.g, [(word_of(m1) + word_of(m2), alg.ad_monomial(a1, m2))])
    return {(a1 * a2, mon): c for mon, c in prod.items()}


def _tensor_mul_without_sign(self, other):
    """TensorElement.__mul__ without the Koszul sign (-1)^{|x2||y1|}."""
    out: dict = {}
    for (x1, x2), c1 in self.terms.items():
        for (y1, y2), c2 in other.terms.items():
            for k1, l1 in smash_mod._term_product(self.alg, x1, y1).items():
                for k2, l2 in smash_mod._term_product(self.alg, x2, y2).items():
                    add_term(out, (k1, k2), c1 * c2 * l1 * l2)
    return TensorElement(self.alg, 2, out)


def _bialgebra_failures(alg):
    """(coproduct, counit) failure counts over 40 seeded pairs (u, v):
    pairs where Delta(uv) != Delta(u) Delta(v), and where
    eps(uv) != eps(u) eps(v)."""
    r = rng(7)
    delta = eps = 0
    for _ in range(40):
        u = rand_smash_element(alg, r, degree_cap=2)
        v = rand_smash_element(alg, r, degree_cap=2)
        uv = smash_multiply(u, v)
        delta += coproduct(uv) != coproduct(u) * coproduct(v)
        eps += counit(uv) != counit(u) * counit(v)
    return delta, eps


class TestBialgebra:
    """The coproduct and the counit are algebra maps."""

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
    def test_coproduct_and_counit_are_multiplicative(self, m, n):
        g, _, rs = build_gl(m, n)
        assert _bialgebra_failures(SmashAlgebra(g, rs)) == (0, 0)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize("mutant", [
        (smash_mod, "_term_product", _right_twisted_term_product),
        (TensorElement, "__mul__", _tensor_mul_without_sign),
    ], ids=["term-product-twists-the-right-factor", "tensor-mul-without-koszul-sign"])
    def test_mutant_breaks_coproduct_multiplicativity(self, mutant, m, n, monkeypatch):
        g, _, rs = build_gl(m, n)
        monkeypatch.setattr(*mutant)
        delta, _ = _bialgebra_failures(SmashAlgebra(g, rs))
        assert delta


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
        a = TorusElement((gr(3), gr(Fraction(1, 2))))
        right, left = _antipode_convolutions(coproduct(alg11.group_like(a)))
        assert right == alg11.unit()
        assert left == alg11.unit()
        x = alg11.primitive(alg11.g.names.index("E12"))
        right, left = _antipode_convolutions(coproduct(x))
        assert right.is_zero()
        assert left.is_zero()

    def test_hopf_axioms_random(self, alg11):
        rep = check_hopf_axioms(alg11, samples=100, seed=99)
        assert rep["pass"], rep["failures"]
        assert rep["checks"]["antipode_right"] == 100
        assert rep["checks"]["super_cocommutativity"] == 100

    def test_hopf_axioms_gl21(self, alg21):
        rep = check_hopf_axioms(alg21, samples=25, seed=5)
        assert rep["pass"], rep["failures"]

    def test_no_samples_is_refused(self, alg11):
        for samples in (0, -1):
            with pytest.raises(ValueError):
                check_hopf_axioms(alg11, samples=samples, seed=99)


def per_term_convolution(delta, side):
    """m (Id x s) Delta(u) (side "right") or m (s x Id) Delta(u) (side
    "left"), one antipode and one product per term of delta: the reference
    for smash._antipode_convolutions."""
    alg = delta.alg
    out: dict = {}
    for key, c in delta.terms.items():
        left = SmashElement(alg, {key[0]: ONE})
        right = SmashElement(alg, {key[1]: ONE})
        if side == "right":
            prod = smash_multiply(left, antipode(right))
        else:
            prod = smash_multiply(antipode(left), right)
        for k, v in prod.terms.items():
            add_term(out, k, v * c)
    return SmashElement(alg, out)


def _hopf_samples(alg, r, count, degree_cap):
    """Seeded elements as check_hopf_axioms draws them, each followed by
    its terms moved to the point of its first term, so that they share one
    point."""
    for _ in range(count):
        u = rand_smash_element(alg, r, max_terms=3, degree_cap=degree_cap)
        yield u
        for a, _ in list(u.terms)[:1]:
            yield SmashElement(alg, {(a, mon): c for (_, mon), c in u.terms.items()})


class TestAntipodeConvolutions:
    @pytest.mark.parametrize("cap", [2, 3, 4])
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_match_the_per_term_reference(self, m, n, cap, monkeypatch):
        g, _, rs = build_gl(m, n)
        alg = SmashAlgebra(g, rs)
        r = rng(300 + 10 * m + n + 100 * cap)
        calls = []
        real = smash_mod.antipode
        monkeypatch.setattr(smash_mod, "antipode", lambda u: calls.append(u) or real(u))
        terms = antipodes = 0
        for u in _hopf_samples(alg, r, 12, cap):
            delta = coproduct(u)
            want = (per_term_convolution(delta, "right"), per_term_convolution(delta, "left"))
            calls.clear()
            assert _antipode_convolutions(delta) == want, u
            legs = {leg for key in delta.terms for leg in key}
            assert len(calls) == len(legs)
            assert {next(iter(x.terms)) for x in calls} == legs
            terms += len(delta.terms)
            antipodes += len(calls)
        # the two sides share their legs: far fewer antipodes than one per
        # term and side
        assert antipodes < 2 * terms


class TestUncheckedConstructors:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_results_survive_the_checked_constructors(self, m, n):
        # the layer wraps its own results unchecked; none may hold a zero
        # coefficient, a non-tuple monomial or a key with the wrong leg count
        g, _, rs = build_gl(m, n)
        alg = SmashAlgebra(g, rs)
        r = rng(500 + 10 * m + n)
        for u in _hopf_samples(alg, r, 10, 3):
            v = rand_smash_element(alg, r, max_terms=3, degree_cap=2)
            delta = coproduct(u)
            smash_results = [antipode(u), smash_multiply(u, v), *_antipode_convolutions(delta)]
            tensor_results = [
                delta,
                coproduct_leg(delta, 0),
                coproduct_leg(delta, 1),
                smash_mod._twist(delta),
                delta * coproduct(v),
            ]
            for x in smash_results:
                assert SmashElement(x.alg, x.terms).terms == x.terms
            for t in tensor_results:
                assert TensorElement(t.alg, t.legs, t.terms).terms == t.terms


def _double_nontrivial_leg1(real):
    """coproduct_leg whose leg-1 expansion doubles every term that is not
    group-like in all legs."""

    def defect(t, leg):
        out = real(t, leg)
        if leg != 1:
            return out
        return TensorElement(
            out.alg,
            out.legs,
            {k: c * 2 if any(mon for _, mon in k) else c for k, c in out.terms.items()},
        )

    return defect


def _drop_one_sided(real, empty_leg):
    """coproduct without its g#1 (x) X terms (empty_leg 0) or its
    X (x) g#1 terms (empty_leg 1)."""

    def defect(u):
        d = real(u)
        return TensorElement(
            d.alg,
            2,
            {
                k: c
                for k, c in d.terms.items()
                if k[empty_leg][1] or not k[1 - empty_leg][1]
            },
        )

    return defect


def _antipode_as_homomorphism(real):
    """s(g # X) = s(g) s(X): the factors in the wrong order."""

    def defect(u):
        alg = u.alg
        e = TorusElement.identity(alg.t)
        out = SmashElement(alg, {})
        for (a, mon), c in u.terms.items():
            s_x = real(SmashElement(alg, {(e, mon): ONE}))
            out = out + smash_multiply(alg.group_like(a.inverse()), s_x).scale(c)
        return out

    return defect


def _twist_without_sign(t):
    return TensorElement(t.alg, 2, {(k2, k1): c for (k1, k2), c in t.terms.items()})


def _split_without_sign(real):
    """_shuffle_split with every Koszul sign dropped."""
    return lambda mon, parities: [(l, r, abs(k)) for l, r, k in real(mon, parities)]


def _split_without_binomial(real):
    """_shuffle_split that counts each split of a power once."""
    return lambda mon, parities: [
        (l, r, 1 if k > 0 else -1) for l, r, k in real(mon, parities)
    ]


_HOPF_DEFECTS = {
    "coproduct_leg-doubles-leg-1": (
        "coproduct_leg", _double_nontrivial_leg1, {"coassociativity"},
    ),
    "coproduct-drops-1xX": (
        "coproduct",
        lambda real: _drop_one_sided(real, 0),
        {"counit_left", "antipode_right", "antipode_left", "coassociativity",
         "super_cocommutativity"},
    ),
    "coproduct-drops-Xx1": (
        "coproduct",
        lambda real: _drop_one_sided(real, 1),
        {"counit_right", "antipode_right", "antipode_left", "coassociativity",
         "super_cocommutativity"},
    ),
    "antipode-as-homomorphism": (
        "antipode", _antipode_as_homomorphism, {"antipode_right", "antipode_left"},
    ),
    # coproduct_leg expands by the closed form and coproduct by the
    # definition, so only coassociativity sees the split
    "split-without-koszul-sign": (
        "_shuffle_split", _split_without_sign, {"coassociativity"},
    ),
    "split-without-binomial": (
        "_shuffle_split", _split_without_binomial, {"coassociativity"},
    ),
    # odd (x) odd terms are rare among the samples: 6 of 100 at seed 7
    "twist-without-sign": (
        "_twist", lambda real: _twist_without_sign, {"super_cocommutativity"},
    ),
}


def recursive_antipode(u):
    """The antipode as its antihomomorphic extension, one generator at a
    time: the differential oracle for the closed form in smash.antipode."""
    alg = u.alg
    out: dict = {}
    for (a, mon), c in u.terms.items():
        for key, v in _antipode_term(alg, a, mon).terms.items():
            add_term(out, key, v * c)
    return SmashElement(alg, out)


def _antipode_term(alg, a, mon):
    if not mon:
        return SmashElement(alg, {(a.inverse(), ()): ONE})
    gen = mon[0][0]
    rest = ((mon[0][0], mon[0][1] - 1),) if mon[0][1] > 1 else ()
    rest = rest + mon[1:]
    # g # mon = (g # gen) * (e # rest); s(xy) = (-1)^{|x||y|} s(y) s(x)
    p_gen = alg.g.parities[gen]
    p_rest = monomial_parity(rest, alg.g.parities)
    sign = gr(-1) if (p_gen and p_rest) else ONE
    s_head = SmashElement(
        alg,
        {(a.inverse(), ((gen, 1),)): -ad_oracle(alg.rs, a.coords, ((gen, 1),))},
    )
    if not rest:
        return s_head
    e = TorusElement.identity(alg.t)
    s_rest = _antipode_term(alg, e, rest)
    return smash_multiply(s_rest, s_head).scale(sign)


class TestAntipodeOracle:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
    def test_closed_form_matches_the_recursion(self, m, n):
        g, _, rs = build_gl(m, n)
        alg = SmashAlgebra(g, rs)
        r = rng(40 + 10 * m + n)
        for _ in range(300):
            u = rand_smash_element(alg, r, max_terms=3, degree_cap=4)
            assert antipode(u) == recursive_antipode(u), u
            # all terms at one point share one rewrite
            for a, _ in list(u.terms)[:1]:
                v = SmashElement(alg, {(a, mon): c for (_, mon), c in u.terms.items()})
                assert antipode(v) == recursive_antipode(v), v

    def test_odd_words_of_every_length(self, alg21):
        # reversing k odd letters costs the Koszul sign (-1)^(k(k-1)/2)
        g = alg21.g
        odd = [i for i, p in enumerate(g.parities) if p]
        a = TorusElement((gr(2), gr(3), gr(Fraction(1, 5))))
        for k in range(len(odd) + 1):
            for gens in itertools.combinations(odd, k):
                u = alg21.element(a, tuple((x, 1) for x in gens), gr(3))
                assert antipode(u) == recursive_antipode(u)


class TestCoproductClosedForm:
    """coproduct_leg expands a leg by the closed form _shuffle_split;
    coproduct is the algebra-map definition.  They must agree."""

    def test_split_of_two_odd_letters_and_an_even_square(self, alg11):
        g = alg11.g
        i11, i12, i21 = (g.names.index(x) for x in ("E11", "E12", "E21"))
        # E21 sent left crosses E12 sent right: the one Koszul sign
        assert sorted(_shuffle_split(((i12, 1), (i21, 1)), g.parities)) == sorted([
            ((), ((i12, 1), (i21, 1)), 1),
            (((i12, 1),), ((i21, 1),), 1),
            (((i21, 1),), ((i12, 1),), -1),
            (((i12, 1), (i21, 1)), (), 1),
        ])
        assert sorted(_shuffle_split(((i11, 2),), g.parities)) == sorted([
            ((), ((i11, 2),), 1),
            (((i11, 1),), ((i11, 1),), 2),
            (((i11, 2),), (), 1),
        ])

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
    def test_one_leg_expansion_equals_the_coproduct(self, m, n):
        g, _, rs = build_gl(m, n)
        alg = SmashAlgebra(g, rs)
        r = rng(70 + 10 * m + n)
        powers = odd_pairs = 0
        for _ in range(200):
            u = rand_smash_element(alg, r, max_terms=3, degree_cap=5)
            one_leg = TensorElement(alg, 1, {(key,): c for key, c in u.terms.items()})
            assert coproduct_leg(one_leg, 0) == coproduct(u), u
            for _, mon in u.terms:
                powers += any(p >= 2 for _, p in mon)
                odd_pairs += sum(g.parities[x] for x, _ in mon) >= 2
        assert powers and odd_pairs


class TestHopfChecksCatchDefects:
    """Each of the six Hopf checks fails on some injected defect."""

    @pytest.mark.parametrize("defect", sorted(_HOPF_DEFECTS))
    def test_defect_fails_exactly_its_checks(self, defect, alg11, monkeypatch):
        name, make, want_failing = _HOPF_DEFECTS[defect]
        monkeypatch.setattr(smash_mod, name, make(getattr(smash_mod, name)))
        rep = check_hopf_axioms(alg11, samples=100, seed=7)
        failing = {k for k, n in rep["checks"].items() if n < rep["samples"]}
        assert failing == want_failing
        assert not rep["pass"]
        assert rep["failures"][0]["witness"]

    def test_every_failing_cli_row_has_a_witness(self, capsys, monkeypatch):
        # with both defects, the antipode checks fail from trial 0 and
        # super_cocommutativity first at trial 7, after the run's first five
        # failures, all antipode ones: each failing row still names its own
        from superalg.cli import main

        for defect in ("antipode-as-homomorphism", "twist-without-sign"):
            name, make, _ = _HOPF_DEFECTS[defect]
            monkeypatch.setattr(smash_mod, name, make(getattr(smash_mod, name)))
        argv = ["hopf-check", "--algebra", "gl:1,1", "--samples", "60", "--seed", "1"]
        assert main(argv) == 1
        rep = json.loads(capsys.readouterr().out)
        failing = {r["check"]: r["witness"] for r in rep["results"] if not r["pass"]}
        assert set(failing) == {"antipode_left", "antipode_right", "super_cocommutativity"}
        for check, witness in failing.items():
            assert witness is not None and witness["check"] == check, check
        assert failing["super_cocommutativity"]["trial"] == 7

    def test_failures_hold_the_first_of_each_check(self, alg11, monkeypatch):
        name, make, _ = _HOPF_DEFECTS["antipode-as-homomorphism"]
        monkeypatch.setattr(smash_mod, name, make(getattr(smash_mod, name)))
        monkeypatch.setattr(smash_mod, "_twist", _twist_without_sign)
        rep = check_hopf_axioms(alg11, samples=60, seed=1)
        assert [(f["check"], f["trial"]) for f in rep["failures"]] == [
            ("antipode_right", 0), ("antipode_left", 0), ("super_cocommutativity", 7),
        ]

    def test_every_check_has_a_defect(self, alg11):
        names = set(check_hopf_axioms(alg11, samples=1, seed=0)["checks"])
        caught = set().union(*(fails for _, _, fails in _HOPF_DEFECTS.values()))
        assert caught == names


# The hand-derived conjugation_pullback that the smash-product commutator
# replaced, kept as the oracle: Ad scalars and the Koszul sign written out.


def hand_conjugation_pullback(alg, a, mon_a, b, mon_b):
    """psi(a,b) # Ad(b)(X_a X_b - (-1)^{|X_a||X_b|} Ad(a^-1)(X_b) X_a) for
    X_b a generator, psi(a,b) # Ad(b)(X_a) when X_b = 1; psi(a,b) = a."""
    g, rs = alg.g, alg.rs
    if not mon_b:
        if not mon_a:
            return SmashElement(alg, {(a, ()): ONE})
        return SmashElement(alg, {(a, mon_a): ad_oracle(rs, b.coords, mon_a)})
    xb = mon_b[0][0]
    ad_b_xb = ad_oracle(rs, b.coords, mon_b)
    ad_b_xa = ad_oracle(rs, b.coords, mon_a)
    sign = ONE if monomial_parity(mon_a, g.parities) and g.parities[xb] else gr(-1)
    items = [
        (word_of(mon_a) + (xb,), ad_b_xa * ad_b_xb),
        ((xb,) + word_of(mon_a),
         ad_oracle(rs, a.inverse().coords, mon_b) * ad_b_xb * ad_b_xa * sign),
    ]
    prod = normalize_terms(g, items)
    return SmashElement(alg, {(a, mon): c for mon, c in prod.items()})


def diagonal_jacobian(rs, a):
    """The hand-written Jacobian that jacobian_at replaced, kept as the
    oracle: 1 on the Cartan, 1 - Ad(a^-1) on each root line, exact zeros
    off the diagonal, in the frame Cartan + even roots | odd roots."""
    ainv = a.inverse().coords
    evens = [ONE] * rs.rank + [ONE - ad_oracle(rs, ainv, ((r.index, 1),)) for r in rs.even_roots]
    odds = [ONE - ad_oracle(rs, ainv, ((r.index, 1),)) for r in rs.odd_roots]
    return SuperMatrix(
        [[v if i == j else ZERO for j in range(len(evens))] for i, v in enumerate(evens)],
        [[v if i == j else ZERO for j in range(len(odds))] for i, v in enumerate(odds)],
    )


def singular_points(rs, a):
    """Points on root loci made from a: the identity, z_1 = z_last (the odd
    root eps_1 - delta_n of gl(m|n) has eigenvalue 1) and, when there are
    even roots, z_1 = z_2 (so has the root of weight e_1 - e_2)."""
    z = list(a.coords)
    out = [TorusElement.identity(rs.rank), TorusElement(z[:-1] + z[:1])]
    if rs.even_roots:
        out.append(TorusElement(z[:1] + z[:1] + z[2:]))
    return out


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

    @pytest.mark.parametrize("mn", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_matches_the_hand_derived_map(self, mn):
        # every pair of degree <= 1 arguments, at three seeded (a, b) pairs
        # and at b = e, where the middle factor is returned
        g, _, rs = build_gl(*mn)
        alg = SmashAlgebra(g, rs)
        mons = [()] + [((i, 1),) for i in range(g.dim)]
        r = rng(700 + 10 * mn[0] + mn[1])
        pairs = [
            (TorusElement(rand_torus_coords(r, rs.rank)), TorusElement(rand_torus_coords(r, rs.rank)))
            for _ in range(3)
        ]
        pairs.append((pairs[0][0], TorusElement.identity(rs.rank)))
        for a, b in pairs:
            for mon_a in mons:
                for mon_b in mons:
                    assert conjugation_pullback(alg, a, mon_a, b, mon_b) == (
                        hand_conjugation_pullback(alg, a, mon_a, b, mon_b)
                    ), (a, mon_a, b, mon_b)


class TestJacobian:
    @pytest.mark.parametrize("mn", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2), "file"])
    def test_matches_the_diagonal_oracle(self, mn):
        # the gl(2|1) definition file reads its tables back from JSON
        if mn == "file":
            loaded = load_definition(json.dumps(dump_definition(*build_gl(2, 1))))
            g, rs = loaded["algebra"], loaded["root_system"]
        else:
            g, _, rs = build_gl(*mn)
        alg = SmashAlgebra(g, rs)
        regular = regular_points(rs, 3, seed=17)
        for a in regular + singular_points(rs, regular[0]):
            assert jacobian_at(alg, a) == diagonal_jacobian(rs, a), a

    def test_identity_point(self, alg11):
        e = TorusElement.identity(2)
        jac = jacobian_at(alg11, e)
        assert all(jac.a[i][i] == ONE for i in range(jac.p))
        assert all(jac.d[i][i] == ZERO for i in range(jac.q))
        with pytest.raises(SingularOddBlock):
            gamma_via_sdet(alg11, e)

    def test_gl11_example_point(self, alg11):
        a = TorusElement((gr(2), gr(1)))
        jac = jacobian_at(alg11, a)
        odd_diag = {str(jac.d[i][i]) for i in range(jac.q)}
        assert odd_diag == {"-3", "3/4"}  # 1-4 and 1-1/4

    def test_block_diagonal_across_cartan_and_roots(self, alg21):
        r = rng(31)
        a = TorusElement(rand_torus_coords(r, 3))
        jac = jacobian_at(alg21, a)
        rs = alg21.rs
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

    def test_full_rank_iff_no_unit_eigenvalue(self, alg21):
        rs = alg21.rs
        r = rng(61)
        seen_regular = seen_singular = False
        for _ in range(60):
            coords = rand_torus_coords(r, 3)
            a = TorusElement(coords)
            unit_ev = any(
                ad_oracle(rs, coords, ((root.index, 1),)) == ONE for root in rs.roots
            )
            jac = jacobian_at(alg21, a)
            from superalg.linalg import det

            full_rank = not (det(jac.a) * det(jac.d)).is_zero()
            assert full_rank == (not unit_ev)
            seen_regular |= full_rank
            seen_singular |= not full_rank
        assert seen_regular and seen_singular


def _unscaled_term_product(real):
    """_term_product with its Ad scale forced to ONE: the product taken at
    the identity on the right, then moved to the true point."""

    def product(alg, t1, t2):
        (a1, m1), (a2, m2) = t1, t2
        out = real(alg, (a1, m1), (TorusElement.identity(alg.t), m2))
        return {(a1 * a2, mon): c for (_, mon), c in out.items()}

    return product


def _drop_cartan_column(real):
    """conjugation_pullback returning 0 on the first Cartan generator, so
    the Jacobian loses that column."""

    def pullback(alg, a, mon_a, b, mon_b):
        if tuple(mon_a) == ((alg.rs.cartan[0], 1),) and not mon_b:
            return SmashElement(alg, {})
        return real(alg, a, mon_a, b, mon_b)

    return pullback


class TestGammaOracleCatchesDefects:
    """Each injected defect in the Jacobian fails check_gamma_oracle.

    An inverted Ad, Ad(a) where the product rule has Ad(a^-1), cannot fail
    here: roots come in +/- pairs, so the eigenvalues of Ad(a) and Ad(a^-1)
    on the root lines are the same multiset, and so are the Berezinians.
    A representation-side check is where it becomes visible."""

    def _reports(self, bundles):
        from superalg.radial import check_gamma_oracle

        for g, form, rs in bundles:
            yield check_gamma_oracle(SmashAlgebra(g, rs), form, regular_points(rs, 5, seed=3))

    def test_unscaled_product_makes_every_odd_block_singular(self, gl11, gl21, monkeypatch):
        monkeypatch.setattr(smash_mod, "_term_product", _unscaled_term_product(smash_mod._term_product))
        for rep in self._reports((gl11, gl21)):
            assert rep["pass"] is False
            assert all(e["singular"] and not e["agree"] for e in rep["points"])

    def test_dropped_cartan_column(self, gl11, gl21, monkeypatch):
        monkeypatch.setattr(
            smash_mod, "conjugation_pullback", _drop_cartan_column(smash_mod.conjugation_pullback)
        )
        for rep in self._reports((gl11, gl21)):
            assert rep["pass"] is False
            assert all(e["sdet"] == gr(0).to_json() for e in rep["points"])

    def test_odd_root_in_the_even_block(self, gl11, gl21, monkeypatch):
        # only the Jacobian's frame moves; check_frame keeps the true one
        real_jacobian = smash_mod.jacobian_at

        def jacobian(alg, a):
            rs = alg.rs
            with monkeypatch.context() as m:
                m.setattr(rs, "even_basis", rs.even_basis + rs.odd_basis[:1])
                m.setattr(rs, "odd_basis", rs.odd_basis[1:])
                return real_jacobian(alg, a)

        monkeypatch.setattr(smash_mod, "jacobian_at", jacobian)
        for rep in self._reports((gl11, gl21)):
            assert rep["pass"] is False
            assert not any(e["singular"] for e in rep["points"])


def _ad_without_the_factor_two(self, w):
    """TorusElement.ad giving prod_i z_i^(w_i) for prod_i z_i^(2 w_i)."""
    val = ONE
    for z, e in zip(self.coords, w):
        val = val * z ** e
    return val


def _ad_one_value_per_point(real):
    """TorusElement.ad keyed on the point alone: the value of the first
    weight asked for answers every later weight."""
    seen = {}

    def ad(self, w):
        if self not in seen:
            seen[self] = real(self, w)
        return seen[self]

    return ad


class TestAdCharacterDefects:
    """Each injected defect in TorusElement.ad fails exactly the checks
    named here.  Ad without the factor 2 is still a character of the torus
    scaling each root vector by its weight, so it is still an action by
    automorphisms and the smash product is still a Hopf superalgebra: no
    hopf-check can fail on it.  Only the gamma oracle, whose closed form
    fixes Ad(exp Y) = exp(eps(Y)), sees it."""

    @pytest.mark.parametrize("bundle", ["gl11", "gl21", "gl22"])
    def test_ad_without_the_factor_two_fails_the_gamma_oracle_only(self, bundle, request, monkeypatch):
        from superalg.radial import check_gamma_oracle

        g, form, rs = request.getfixturevalue(bundle)
        points = regular_points(rs, 5, seed=3)
        monkeypatch.setattr(TorusElement, "ad", _ad_without_the_factor_two)
        alg = SmashAlgebra(g, rs)
        assert check_gamma_oracle(alg, form, points)["pass"] is False
        assert check_hopf_axioms(alg, samples=40, seed=7)["pass"]

    @pytest.mark.parametrize("bundle", ["gl11", "gl21", "gl22"])
    def test_one_value_per_point_fails_the_left_antipode_and_the_gamma_oracle(
        self, bundle, request, monkeypatch
    ):
        from superalg.radial import check_gamma_oracle

        g, form, rs = request.getfixturevalue(bundle)
        points = regular_points(rs, 5, seed=3)
        monkeypatch.setattr(TorusElement, "ad", _ad_one_value_per_point(TorusElement.ad))
        alg = SmashAlgebra(g, rs)
        rep = check_hopf_axioms(alg, samples=40, seed=7)
        assert {k for k, n in rep["checks"].items() if n < rep["samples"]} == {"antipode_left"}
        assert check_gamma_oracle(alg, form, points)["pass"] is False


class TestGammaSdet:
    def test_spot_value(self, alg11):
        val = gamma_via_sdet(alg11, TorusElement((gr(2), gr(1))))
        assert val in (gr(Fraction(4, 9)), gr(Fraction(-4, 9)))

    def test_point_of_the_wrong_rank_raises(self, alg21):
        # a rank-2 point on gl(2|1) once gave the Berezinian -25/576
        with pytest.raises(ValueError, match="does not match the rank 2"):
            gamma_via_sdet(alg21, TorusElement((gr(2), gr(3))))

    def test_frame_is_symplectic_on_odd_part(self, gl21, b_vec):
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
                assert b_vec(form, u, v).is_zero() == (c != d)
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
            assert b_vec(form, u, v) == ONE
            assert b_vec(form, v, u) == gr(-1)

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

        g, _, rs = gl21
        alg = SmashAlgebra(g, rs)
        r = rng(41)
        for _ in range(10):
            a = TorusElement(rand_torus_coords(r, 3))
            jac = jacobian_at(alg, a)
            try:
                val = gamma_via_sdet(alg, a)
            except SingularOddBlock:
                continue
            det_odd = det(jac.d)
            det_even = det(jac.a)
            assert val == det_even / det_odd
        # the Berezinian of F^-1 J F in the orthosymplectic frame agrees
        for (g, form, rs), seed in ((gl21, 42), (gl22, 43)):
            alg = SmashAlgebra(g, rs)
            for a in regular_points(rs, 10, seed):
                assert framed_berezinian(alg, form, a) == gamma_via_sdet(alg, a)


class TestCheckFrame:
    def test_accepts_the_supertrace_form(self, gl21, gl22):
        for _, form, rs in (gl21, gl22):
            check_frame(rs, form)

    @pytest.mark.parametrize(
        "defect", ["odd-pairing-zero", "mate-pairing-doubled", "cartan-null"]
    )
    def test_refuses_a_form_without_a_root_frame(self, defect, gl11):
        g, form, rs = gl11
        i12, i21 = g.names.index("E12"), g.names.index("E21")  # X_beta, X_-beta
        gram = [list(row) for row in form.gram]
        if defect == "odd-pairing-zero":
            gram[i12][i21] = gram[i21][i12] = gr(0)
        elif defect == "mate-pairing-doubled":
            gram[i21][i12] = gram[i21][i12] * 2
        else:
            gram[g.names.index("E11")][g.names.index("E11")] = gr(0)
        with pytest.raises(DegenerateForm):
            check_frame(rs, QuadraticForm(gram))


class TestPickle:
    def test_torus_element(self):
        import pickle

        a = TorusElement((gr(2), gr(Fraction(1, 3), -1)))
        back = pickle.loads(pickle.dumps(a))
        assert back == a and hash(back) == hash(a)

    def test_identity(self):
        e = TorusElement.identity(3)
        back = pickle.loads(pickle.dumps(e))
        assert back == e and hash(back) == hash(e)
        assert back.is_identity() and back.inverse() == e

    def test_torus_element_pickles_without_its_inverse(self):
        a = TorusElement((gr(2), gr(Fraction(1, 3), -1)))
        before = pickle.dumps(a)
        a_inv = a.inverse()
        assert pickle.dumps(a) == before
        back = pickle.loads(pickle.dumps(a))
        assert back == a and hash(back) == hash(a)
        assert back.inverse() == a_inv and back.inverse().inverse() is back

    def test_torus_element_pickles_without_its_ad_cache(self):
        a = TorusElement((gr(2), gr(Fraction(1, 3), -1)))
        before = pickle.dumps(a)
        weights = [(1, -1), (-1, 1), (0, 0), (2, 1)]
        values = [a.ad(w) for w in weights]
        assert a._ad == dict(zip(weights, values))
        assert pickle.dumps(a) == before
        back = pickle.loads(pickle.dumps(a))
        assert back._ad is None
        assert [back.ad(w) for w in weights] == values

    def test_smash_algebra_pickles_by_default(self, alg11):
        a = TorusElement((gr(2), gr(3)))
        back = pickle.loads(pickle.dumps(alg11))
        assert back.g.names == alg11.g.names and back.t == alg11.t
        assert back.weights == alg11.weights
        r = rng(19)
        for _ in range(20):
            mon = rand_monomial(alg11.g, r, degree_cap=4)
            assert back.ad_monomial(a, mon) == alg11.ad_monomial(a, mon)

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
