import pytest

from superalg.errors import DegenerateForm
from superalg.liealg import LieSuperalgebra, QuadraticForm, build_gl
from superalg.pbw import (
    PBWElement,
    casimir2,
    cartan_poly_eval,
    gelfand_invariant,
    is_central,
    monomial_parity,
    multiply,
    normalize_terms,
    pbw_normalize,
    project_to_cartan,
    super_commutator,
)
from superalg.sampling import rand_pbw_element, rand_word, rng
from superalg.scalars import gr, ONE, ZERO


class TestNormalize:
    def test_sorted_word_fixed_point(self, gl11):
        g, _, _ = gl11
        # global order: negatives < Cartan < positives
        word = tuple(range(g.dim))
        nf = pbw_normalize(g, word)
        mon = tuple((i, 1) for i in range(g.dim))
        assert nf.terms == {mon: ONE}

    def test_single_swap_with_bracket(self, gl11):
        g, _, _ = gl11
        i12, i21 = g.names.index("E12"), g.names.index("E21")
        i11, i22 = g.names.index("E11"), g.names.index("E22")
        # E12 E21 = -E21 E12 + [E12, E21], sign (-1)^{1*1}
        nf = pbw_normalize(g, (i12, i21))
        assert nf.terms == {
            ((i21, 1), (i12, 1)): gr(-1),
            ((i11, 1),): ONE,
            ((i22, 1),): ONE,
        }

    def test_odd_square_rewrites(self, gl11):
        g, _, _ = gl11
        i12 = g.names.index("E12")
        assert pbw_normalize(g, (i12, i12)).is_zero()

    def test_confluence_two_strategies(self, gl21):
        # normalization result must not depend on the reduction order
        g, _, _ = gl21
        r = rng(1234)
        for _ in range(200):
            w = rand_word(r, g.dim, max_len=5)
            a = normalize_terms(g, [(w, ONE)], "leftmost")
            b = normalize_terms(g, [(w, ONE)], "rightmost")
            assert a == b, w

    def test_normalize_of_concat_is_product(self, gl11):
        g, _, _ = gl11
        r = rng(88)
        for _ in range(60):
            w1 = rand_word(r, g.dim, max_len=4)
            w2 = rand_word(r, g.dim, max_len=4)
            lhs = pbw_normalize(g, w1 + w2)
            rhs = multiply(pbw_normalize(g, w1), pbw_normalize(g, w2))
            assert lhs == rhs


class TestMultiply:
    def test_unit(self, gl11):
        g, _, _ = gl11
        r = rng(3)
        one = PBWElement.unit(g)
        for _ in range(10):
            y = rand_pbw_element(g, r)
            assert multiply(one, y) == y
            assert multiply(y, one) == y

    def test_associativity_random(self, gl21):
        g, _, _ = gl21
        r = rng(7)
        for _ in range(100):
            x = rand_pbw_element(g, r, max_terms=2, max_len=3)
            y = rand_pbw_element(g, r, max_terms=2, max_len=3)
            z = rand_pbw_element(g, r, max_terms=2, max_len=3)
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))

    def test_commutator_reproduces_structure(self, gl22):
        g, _, _ = gl22
        for i in range(g.dim):
            for j in range(g.dim):
                got = super_commutator(
                    PBWElement.generator(g, i), PBWElement.generator(g, j)
                )
                assert got == PBWElement.from_vector(g, g.bracket(i, j))

    @pytest.mark.parametrize("mn", [(1, 1), (2, 1)])
    def test_commutator_of_random_elements(self, mn):
        # [x, y] summed over the parity-homogeneous parts x_p, y_q as
        # x_p y_q - (-1)^{pq} y_q x_p, with the products from multiply
        g, _, _ = build_gl(*mn)

        def parts(x):
            out = {}
            for m, c in x.terms.items():
                out.setdefault(monomial_parity(m, g.parities), {})[m] = c
            return {p: PBWElement(g, t) for p, t in out.items()}

        r = rng(23)
        mixed = odd_pairs = 0
        for _ in range(40):
            x = rand_pbw_element(g, r, max_terms=4, max_len=3)
            y = rand_pbw_element(g, r, max_terms=4, max_len=3)
            xs, ys = parts(x), parts(y)
            mixed += len(xs) == 2
            odd_pairs += 1 in xs and 1 in ys
            want = PBWElement(g, {})
            for p, xp in xs.items():
                for q, yq in ys.items():
                    sign = -1 if p and q else 1
                    want = want + multiply(xp, yq) - multiply(yq, xp) * sign
            assert super_commutator(x, y) == want
        assert mixed >= 10 and odd_pairs >= 10

    def test_parity_bookkeeping(self, gl11):
        g, _, _ = gl11
        r = rng(17)
        for _ in range(50):
            w1 = rand_word(r, g.dim, max_len=3)
            w2 = rand_word(r, g.dim, max_len=3)
            p1 = sum(g.parities[i] for i in w1) % 2
            p2 = sum(g.parities[i] for i in w2) % 2
            prod = pbw_normalize(g, w1 + w2)
            for mon in prod.terms:
                assert monomial_parity(mon, g.parities) == (p1 + p2) % 2


class TestCasimir:
    def test_purely_even_abelian_orthonormal(self):
        g = LieSuperalgebra(["A", "B"], [0, 0], {})
        form = QuadraticForm([[ONE, ZERO], [ZERO, ONE]])
        c2 = casimir2(g, form)
        assert c2.terms == {((0, 2),): ONE, ((1, 2),): ONE}

    @pytest.mark.parametrize("mn", [(1, 1), (2, 1), (2, 2)])
    def test_casimir2_central(self, mn):
        g, form, _ = build_gl(*mn)
        c2 = casimir2(g, form)
        ok, parity = c2.is_homogeneous()
        assert ok and parity == 0
        assert c2.degree() == 2
        assert is_central(c2, g)["pass"]

    def test_degenerate_form_raises(self):
        g = LieSuperalgebra(["A", "B"], [0, 0], {})
        form = QuadraticForm([[ONE, ZERO], [ZERO, ZERO]])
        with pytest.raises(DegenerateForm):
            casimir2(g, form)

    def test_is_central_unit_and_witness(self, gl11):
        g, _, _ = gl11
        assert is_central(PBWElement.unit(g), g)["pass"]
        i12, i21 = g.names.index("E12"), g.names.index("E21")
        rep = is_central(PBWElement.generator(g, i12), g)
        assert not rep["pass"]
        assert rep["witness"]["generator"] == g.names[i21]


class TestGelfand:
    def test_k1_is_trace_element(self, gl11):
        g, _, _ = gl11
        i11, i22 = g.names.index("E11"), g.names.index("E22")
        g1 = gelfand_invariant(g, 1)
        assert g1.terms == {((i11, 1),): ONE, ((i22, 1),): ONE}
        assert is_central(g1, g)["pass"]

    @pytest.mark.parametrize("mn", [(1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_centrality(self, mn, k):
        g, _, _ = build_gl(*mn)
        gi = gelfand_invariant(g, k)
        assert is_central(gi, g)["pass"]

    def test_k2_relation_to_casimir2(self, gl11):
        # both are central; their difference is central too and the
        # difference of the degree-2 parts vanishes after symmetrization
        g, form, _ = gl11
        c2 = casimir2(g, form)
        g2 = gelfand_invariant(g, 2)
        assert is_central(c2 - g2, g)["pass"]

    def test_requires_gl_builder(self):
        g = LieSuperalgebra(["A"], [0], {})
        with pytest.raises(ValueError):
            gelfand_invariant(g, 2)


class TestCartanProjection:
    def test_pure_cartan_unchanged(self, gl11):
        g, _, rs = gl11
        i11, i22 = g.names.index("E11"), g.names.index("E22")
        elem = PBWElement(g, {((i11, 2),): gr(3), ((i11, 1), (i22, 1)): gr(-2)})
        proj = project_to_cartan(elem, rs)
        # Cartan positions follow rs.cartan order: (E11, E22)
        assert proj == {(2, 0): gr(3), (1, 1): gr(-2)}

    def test_reordering_feeds_cartan_part(self, gl11):
        g, _, rs = gl11
        i12, i21 = g.names.index("E12"), g.names.index("E21")
        proj = project_to_cartan(pbw_normalize(g, (i12, i21)), rs)
        assert proj == {(1, 0): ONE, (0, 1): ONE}

    def test_c2_leading_term_is_gram_inverse(self, gl11):
        g, form, rs = gl11
        proj = project_to_cartan(casimir2(g, form), rs)
        lead = {e: c for e, c in proj.items() if sum(e) == 2}
        # supertrace normalization: sum_a (-1)^{|a|} H_a^2
        assert lead == {(2, 0): ONE, (0, 2): gr(-1)}

    def test_eval(self):
        poly = {(2, 0): ONE, (0, 1): gr(-3)}
        assert cartan_poly_eval(poly, [gr(2), gr(5)]) == gr(4 - 15)


def test_torus_valued_coefficients(gl11):
    # the rewriting engine is generic over the coefficient ring: torus
    # functions can ride along (used for symbolic torus points)
    from superalg.torus import TorusRational, sinh_half

    g, _, _ = gl11
    i12, i21 = g.names.index("E12"), g.names.index("E21")
    s = sinh_half(2, (1, -1))
    out = normalize_terms(g, [((i12, i21), s)])
    i11, i22 = g.names.index("E11"), g.names.index("E22")
    minus_s = TorusRational.zero(2) - s
    assert out == {
        ((i21, 1), (i12, 1)): minus_s,
        ((i11, 1),): s,
        ((i22, 1),): s,
    }


def test_json_roundtrip(gl11):
    g, form, _ = gl11
    c2 = casimir2(g, form)
    data = c2.to_json()
    # schema: list of {monomial: [[generator, power]], coeff: rational pair}
    for ent in data:
        assert set(ent) == {"monomial", "coeff"}
        for gen, power in ent["monomial"]:
            assert 0 <= gen < g.dim and power >= 1
    back = PBWElement.from_json(g, json_round(data))
    assert back == c2


def json_round(data):
    import json

    return json.loads(json.dumps(data))


def test_pickle_round_trip(gl11):
    import pickle

    g, form, _ = gl11
    c2 = casimir2(g, form)
    back = pickle.loads(pickle.dumps(c2))
    # == compares the algebra by identity, and unpickling builds a new one
    assert back.terms == c2.terms
    assert back.alg.names == c2.alg.names
    with pytest.raises(AttributeError):
        back.terms = {}
