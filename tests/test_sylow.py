import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabparts import (
    PermGroup,
    Permutation,
    all_sylows,
    find_sylow,
    format_cycles,
    frattini_center_element,
    group_from_document,
    is_elementary_abelian,
    named_group,
    normalizer,
    p_part,
    parse_cycles,
    prop_certificate,
)
from stabparts.fields import prime_divisors
from stabparts.sylow import _least_p_element, frattini_subgroup, normal_closure
from strategies import closure, small_groups


class TestPPart:
    @pytest.mark.parametrize("n,p,expected", [
        (168, 3, 3), (36, 2, 4), (1, 5, 1), (168, 2, 8), (168, 7, 7),
        (28224, 3, 9), (432, 3, 27),
    ])
    def test_values(self, n, p, expected):
        assert p_part(n, p) == expected

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            p_part(24, 4)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            p_part(0, 2)


class TestFindSylow:
    def test_j_sylow3(self):
        assert find_sylow(named_group("J"), 3).order == 3

    def test_s4_sylow2(self):
        assert find_sylow(named_group("Sym(4)"), 2).order == 8

    def test_d6xd6_sylow2(self):
        P = find_sylow(named_group("Product(D6,D6)"), 2)
        assert P.order == 4
        assert is_elementary_abelian(P, 2)

    def test_p_not_dividing(self):
        with pytest.raises(ValueError):
            find_sylow(named_group("C4"), 3)

    def test_no_least_p_element(self):
        with pytest.raises(ValueError, match="5 does not divide"):
            _least_p_element(named_group("D6"), 5)

    def test_order_matches_p_part(self, zoo):
        for name, G in zoo.items():
            for p in prime_divisors(G.order):
                assert find_sylow(G, p).order == p_part(G.order, p), (name, p)


def _base_and_table(G):
    return [lvl.base_point for lvl in G.chain.levels], G.elements.tolist()


def test_sylow_grown_in_place_equals_rebuilt(zoo):
    for name, G in zoo.items():
        for p in prime_divisors(G.order):
            P = find_sylow(G, p)
            assert _base_and_table(P) == _base_and_table(PermGroup(G.degree, P.generators))


@settings(max_examples=40, deadline=None)
@given(small_groups(max_order=720))
def test_sylow_grown_in_place_equals_rebuilt_on_small_groups(G):
    for p in prime_divisors(G.order):
        P = find_sylow(G, p)
        assert _base_and_table(P) == _base_and_table(PermGroup(G.degree, P.generators))


class TestAllSylows:
    def test_j_has_28(self):
        data = all_sylows(named_group("J"), 3)
        assert data.count == 28
        assert data.to_json()["normalizer_index"] == 28

    def test_jxj_has_784(self, jxj):
        data = all_sylows(jxj, 3)
        assert data.count == 784 == 28**2
        assert data.representative.order == 9

    def test_jxj_at_7(self, jxj):
        assert all_sylows(jxj, 7).count == 64 == 8**2

    def test_jxj_at_2_is_normal(self, jxj):
        # the translations V x V form the unique Sylow 2-subgroup
        data = all_sylows(jxj, 2)
        assert data.count == 1
        assert data.representative.order == 64

    def test_self_sylow(self):
        data = all_sylows(named_group("C4"), 2)
        assert data.count == 1

    def test_count_matches_normalizer_index(self, zoo):
        for name, G in zoo.items():
            if G.order > 1000:
                continue
            for p in prime_divisors(G.order):
                data = all_sylows(G, p)
                N = normalizer(G, data.representative)
                assert data.count == G.order // len(N)

    def test_sylow_axioms(self, zoo):
        for name, G in zoo.items():
            for p in prime_divisors(G.order):
                data = all_sylows(G, p)
                assert data.count % p == 1, (name, p)
                assert G.order % data.count == 0, (name, p)

    def test_conjugates_pairwise_conjugate(self, zoo):
        # the count is the number of distinct element sets g^-1 P g over all g
        cases = [(named_group("Sym(4)"), 2)] + [
            (G, p) for G in zoo.values() if G.order <= 1000
            for p in prime_divisors(G.order)
        ]
        for G, p in cases:
            data = all_sylows(G, p)
            P = list(data.representative.iter_elements())
            conjugates = {
                frozenset((g.inverse() * h * g)._key for h in P)
                for g in G.iter_elements()
            }
            assert len(conjugates) == data.count, (G.name, p)
            assert frozenset(h._key for h in P) in conjugates


class TestElementaryAbelian:
    def test_d6xd6_sylow2_true(self):
        P = find_sylow(named_group("Product(D6,D6)"), 2)
        assert is_elementary_abelian(P, 2)

    def test_s4_sylow2_false(self):
        assert not is_elementary_abelian(find_sylow(named_group("Sym(4)"), 2), 2)

    def test_cyclic_p_true(self):
        C3 = PermGroup.from_cycles(3, ["(0 1 2)"])
        assert is_elementary_abelian(C3, 3)

    def test_jxj_sylow3_true(self, jxj):
        assert is_elementary_abelian(find_sylow(jxj, 3), 3)

    def test_not_p_group_rejected(self):
        with pytest.raises(ValueError):
            is_elementary_abelian(named_group("D6"), 2)

    def test_zoo_sylows_match_element_definition(self, zoo):
        for name, G in zoo.items():
            for p in prime_divisors(G.order):
                P = find_sylow(G, p)
                assert is_elementary_abelian(P, p) == _elementary_abelian_by_elements(P, p), (
                    name, p)


def _elementary_abelian_by_elements(P, p):
    """Every non-identity element has order p and every pair commutes."""
    elems = list(P.iter_elements())
    return (all(g.is_identity() or g.order() == p for g in elems)
            and all(g * h == h * g for g in elems for h in elems))


@settings(max_examples=40, deadline=None)
@given(small_groups(max_order=720))
def test_elementary_abelian_matches_element_definition(G):
    # Sylow subgroups at each prime, under the generators find_sylow picks and
    # under all their elements as generators; and G itself when it is a p-group
    for p in prime_divisors(G.order):
        P = find_sylow(G, p)
        expected = _elementary_abelian_by_elements(P, p)
        assert is_elementary_abelian(P, p) == expected
        assert is_elementary_abelian(G.subgroup(P.iter_elements()), p) == expected
        if P.order == G.order:
            assert is_elementary_abelian(G, p) == expected


def test_sylow_path_builds_no_row_subgroup(zoo, setwise_calls):
    # normalizers and centers are read as row sets, never built as subgroups
    for name, G in zoo.items():
        for p in prime_divisors(G.order):
            data = all_sylows(G, p)
            assert data.count % p == 1, (name, p)
            if not is_elementary_abelian(data.representative, p):
                assert frattini_center_element(data.representative, p).order() == p
    assert setwise_calls == []


class TestFrattiniCenterElement:
    def test_d8_in_s4(self):
        S4 = named_group("Sym(4)")
        P = S4.subgroup([parse_cycles("(0 1 2 3)", 4), parse_cycles("(1 3)", 4)])
        assert P.order == 8
        z = frattini_center_element(P, 2)
        assert format_cycles(z) == "(0 2)(1 3)"

    def test_c4(self):
        z = frattini_center_element(named_group("C4"), 2)
        assert format_cycles(z) == "(0 2)(1 3)"

    def test_c9(self):
        C9 = PermGroup.from_cycles(9, ["(0 1 2 3 4 5 6 7 8)"])
        z = frattini_center_element(C9, 3)
        g = parse_cycles("(0 1 2 3 4 5 6 7 8)", 9)
        assert z in (g**3, g**6)
        assert z.order() == 3

    def test_elementary_abelian_gives_none(self):
        P = find_sylow(named_group("Product(D6,D6)"), 2)
        assert frattini_center_element(P, 2) is None

    def test_z_is_central_of_order_p(self, zoo):
        for name, G in zoo.items():
            for p in prime_divisors(G.order):
                P = find_sylow(G, p)
                if is_elementary_abelian(P, p):
                    continue
                z = frattini_center_element(P, p)
                assert z.order() == p
                assert all((z * h) == (h * z) for h in P.iter_elements())

    def test_zoo_frattini_matches_element_definition(self, zoo):
        for name, G in zoo.items():
            for p in prime_divisors(G.order):
                _check_frattini(find_sylow(G, p), p)

    @pytest.mark.parametrize("degree, gens, p", [
        # the generators' p-th powers and commutators generate a subgroup that
        # is not normal (order 8 and 3), so Phi (order 16 and 9) needs the closure
        (8, ["(0 6 2 5)(1 7 3 4)", "(0 1)(2 3)(6 7)"], 2),
        (9, ["(0 8 5)(1 6 3)(2 7 4)", "(3 4 5)(6 7 8)", "(0 6 4)(1 7 5)(2 8 3)"], 3),
        # C4 x C2: the least central involution, (4 5), lies outside Phi
        (6, ["(0 1 2 3)", "(4 5)"], 2),
    ])
    def test_frattini_edge_cases_match_element_definition(self, degree, gens, p):
        _check_frattini(PermGroup.from_cycles(degree, gens), p)


def _frattini_by_elements(P, p):
    """Phi(P) and z from their definitions over all elements of P.

    Phi(P) is generated by g^p and [a, b] for all g, a, b in P, closed by
    breadth-first search; z is the least element of Phi(P) of order p that
    commutes with every element of P, or None.
    """
    elems = list(P.iter_elements())
    gens = {g**p for g in elems} | {a.inverse() * b.inverse() * a * b
                                    for a in elems for b in elems}
    phi = closure(PermGroup(P.degree, gens))
    for x in phi:  # sorted, so the first hit is the least
        g = Permutation(x)
        if g.order() == p and all(g * h == h * g for h in elems):
            return phi, x
    return phi, None


def _check_frattini(P, p):
    phi, z = _frattini_by_elements(P, p)
    assert [tuple(row) for row in frattini_subgroup(P, p).elements.tolist()] == phi
    got = frattini_center_element(P, p)
    assert (got is None) == (z is None) == is_elementary_abelian(P, p)
    assert got is None or tuple(got.images.tolist()) == z


@settings(max_examples=40, deadline=None)
@given(small_groups(max_order=720))
def test_frattini_matches_element_definition(G):
    # Sylow subgroups at each prime, under the generators find_sylow picks and
    # under all their elements as generators
    for p in prime_divisors(G.order):
        P = find_sylow(G, p)
        _check_frattini(P, p)
        _check_frattini(G.subgroup(P.iter_elements()), p)


@settings(max_examples=40, deadline=None)
@given(small_groups(max_order=720), st.lists(st.integers(0, 10**6), max_size=3),
       st.integers(1, 720))
@example(PermGroup.from_cycles(4, ["(0 1 2 3)", "(0 1)"]), [7], 4)  # V4 in Sym(4), at the bound
@example(PermGroup.from_cycles(4, ["(0 1 2 3)", "(0 1)"]), [5], 23)  # all of Sym(4), past it
def test_normal_closure_is_the_closure_of_all_conjugates(G, indices, bound):
    elems = list(G.iter_elements())
    gens = [elems[i % len(elems)] for i in indices]
    conjugates = [x.inverse() * h * x for h in gens for x in elems]
    expected = closure(PermGroup(G.degree, conjugates))
    assert closure(normal_closure(G, gens)) == expected
    bounded = normal_closure(G, gens, bound=bound)
    assert (bounded is None) == (len(expected) > bound)
    assert bounded is None or closure(bounded) == expected


def test_frattini_subgroup_rejects_a_non_p_group():
    with pytest.raises(ValueError, match="not a p-group"):
        frattini_subgroup(named_group("Sym(4)"), 2)


# AGL(4,2), |G| = 322560: GL(4,2) from a transvection and a 4-cycle of coordinates
AGL42 = {"affine": {"p": 2, "k": 1, "dim": 4, "generators": [
    {"matrix": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    {"matrix": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]},
]}}


def test_agl42_sylow2_known_values():
    G = group_from_document(AGL42)
    data = all_sylows(G, 2)
    P = data.representative
    assert (G.order, P.order, data.count) == (322560, 1024, 315)
    assert frattini_subgroup(P, 2).order == 64
    cert = prop_certificate(G, 2)
    assert format_cycles(cert.z) == "".join(f"({2 * i} {2 * i + 1})" for i in range(8))
    assert (cert.fixed_points, cert.sylow_norm_index, cert.verdict) == (0, 315, False)


def _normalizer_by_conjugation(G, H):
    """N_G(H) with no orbit prefilter: conjugate the rows of G's table by
    each generator of H in turn, keeping those whose conjugate lies in H."""
    E = G.elements
    key = np.dtype((np.void, E.dtype.itemsize * G.degree))
    hkeys = np.ascontiguousarray(H.elements).view(key).ravel()
    keep = np.arange(E.shape[0])
    for h in H.generators:
        rows = E[keep]
        conj = np.empty_like(rows)
        np.put_along_axis(conj, rows, rows[:, h.images], axis=1)
        keep = keep[np.isin(conj.view(key).ravel(), hkeys)]
    return E[keep]


@pytest.mark.parametrize("doc, p, count", [
    ({"named": "Product(J,J)"}, 3, 784),
    ({"named": "Product(J,J)"}, 7, 64),
    (AGL42, 2, 315),
])
def test_prefiltered_normalizer_equals_unfiltered(doc, p, count):
    G = group_from_document(doc)
    data = all_sylows(G, p)
    assert data.count == count
    N = normalizer(G, data.representative)
    assert np.array_equal(N, _normalizer_by_conjugation(G, data.representative))
