import itertools

import numpy as np
import pytest

from stabparts import (
    PermGroup,
    Permutation,
    PointSet,
    build_field,
    census_histogram,
    classify_moderation,
    is_p_concealed,
    metacyclic_witness,
    named_group,
    orbit_witness_odd_p,
    p2_regular_witness,
    p_part,
    parse_cycles,
    point_stabilizer_of_zero,
    regular_orbit_pair,
    regular_orbit_vector,
    setwise_stabilizer,
    stab_p_part,
    translation_witness,
)
from stabparts.affine import AffineSpec, SemilinearGen, build_affine
from stabparts.classify import ConstructorInapplicable, exhaustive_p_parts
from stabparts.sylow import prime_divisors


@pytest.fixture(scope="module")
def metacyclic_group():
    # V = GF(11)^2 acted on by D20 = <diag(3, 3^-1), coordinate swap, -I>;
    # satisfies the p = 2 reduction conditions, so the eigenvector recipe
    # is guaranteed to produce a stabilizer of 2-part exactly 2.
    F = build_field(11, 1)
    spec = AffineSpec(
        F, 2,
        (
            SemilinearGen(((3, 0), (0, 4)), 0, ()),
            SemilinearGen(((0, 1), (1, 0)), 0, ()),
            SemilinearGen(((10, 0), (0, 10)), 0, ()),
        ),
        name="V(11^2).D20",
    )
    return build_affine(spec)


class TestSetwiseStabilizer:
    def test_d6xd6_diagonal_pair(self):
        G = named_group("Product(D6,D6)")
        assert setwise_stabilizer(G, PointSet(9, [0, 4])).order == 2

    def test_empty_and_full(self):
        G = named_group("Sym(4)")
        assert setwise_stabilizer(G, PointSet(4, [])).order == 24
        assert setwise_stabilizer(G, PointSet(4, range(4))).order == 24

    def test_agl15_two_points(self):
        G = named_group("AGL(1,5)")
        stab = setwise_stabilizer(G, PointSet(5, [0, 1]))
        assert stab.order == 2
        # the non-identity member is x -> 4x + 1 = (0 1)(2 4)
        nonid = [g for g in stab.iter_elements() if not g.is_identity()]
        assert nonid == [parse_cycles("(0 1)(2 4)", 5)]

    def test_is_a_subgroup(self):
        G = named_group("AGL(2,3)")
        stab = setwise_stabilizer(G, PointSet(9, [0, 1, 2]))
        keys = {g._key for g in stab.iter_elements()}
        for g in stab.iter_elements():
            assert g.inverse()._key in keys

    def test_stabilized_iff_union_of_orbits(self):
        # exhaustive for small degree: K stabilizes S iff S is a K-orbit union
        G = named_group("D10")
        K = G.subgroup([parse_cycles("(1 4)(2 3)", 5)])
        from stabparts.kernels import mark_orbit_unions

        unions = np.zeros(1 << 5, dtype=bool)
        mark_orbit_unions(unions, [sum(1 << x for x in o) for o in K.orbits()])
        korbit_masks = set(np.flatnonzero(unions).tolist())
        for mask in range(1 << 5):
            delta = PointSet.from_mask(5, mask)
            stabilized = all(
                delta.image(g) == delta for g in K.iter_elements()
            )
            assert stabilized == (mask in korbit_masks)


class TestStabPPart:
    def test_d6xd6(self):
        G = named_group("Product(D6,D6)")
        assert stab_p_part(G, PointSet(9, [0, 4]), 2) == 2

    def test_empty_gives_full_part(self, zoo):
        for G in zoo.values():
            for p in prime_divisors(G.order):
                assert stab_p_part(G, PointSet(G.degree, []), p) == p_part(G.order, p)

    def test_agl15_strictly_between(self):
        G = named_group("AGL(1,5)")
        part = stab_p_part(G, PointSet(5, [0, 1]), 2)
        assert 1 < part < p_part(G.order, 2)
        assert part == 2


class TestConcealed:
    def test_d6(self):
        ok, ce = is_p_concealed(named_group("D6"), 2)
        assert ok and ce is None

    def test_j(self):
        ok, ce = is_p_concealed(named_group("J"), 3)
        assert ok and ce is None

    def test_agl15_not_concealed(self):
        ok, ce = is_p_concealed(named_group("AGL(1,5)"), 2)
        assert not ok
        assert ce is not None
        # the counterexample really is uncovered: its stabilizer 2-part is small
        G = named_group("AGL(1,5)")
        assert stab_p_part(G, ce, 2) < p_part(G.order, 2)

    def test_least_counterexample(self):
        _, ce = is_p_concealed(named_group("AGL(1,5)"), 2)
        assert ce.mask == min(
            mask for mask in range(1 << 5)
            if not _covered(named_group("AGL(1,5)"), 2, mask)
        )

    def test_p_must_divide(self):
        with pytest.raises(ValueError):
            is_p_concealed(PermGroup.trivial(2), 2)


def _covered(G, p, mask):
    from stabparts import all_sylows

    delta = PointSet.from_mask(G.degree, mask)
    full = p_part(G.order, p)
    stab = setwise_stabilizer(G, delta)
    return p_part(stab.order, p) == full


class TestClassify:
    def test_d6xd6_moderate(self):
        report = classify_moderation(named_group("Product(D6,D6)"), 2)
        assert report.status == "MODERATE"
        assert report.stab_p_part == 2
        assert report.witness.sorted_points() == [0, 4]
        assert report.stage == "regular-vector"

    def test_d6_extreme_concealed(self):
        report = classify_moderation(named_group("D6"), 2)
        assert report.status == "EXTREME"
        assert report.concealed is True

    def test_s4_moderate_exhaustive(self):
        report = classify_moderation(named_group("Sym(4)"), 2, "exhaustive")
        assert report.status == "MODERATE"
        # least witness: the singleton {0} with stabilizer Sym(3), 2-part 2
        assert report.witness.sorted_points() == [0]
        assert report.stab_p_part == 2

    def test_strategies_agree(self, zoo):
        for name, G in zoo.items():
            if G.degree > 16:
                continue
            for p in prime_divisors(G.order):
                exh = classify_moderation(G, p, "exhaustive")
                con = classify_moderation(G, p, "constructive")
                assert exh.status == con.status, (name, p)

    def test_degenerate_p_part(self):
        report = classify_moderation(named_group("D6"), 2)
        assert "impossible" in report.note
        assert report.exhaustive

    def test_p_not_dividing_rejected(self):
        with pytest.raises(ValueError):
            classify_moderation(named_group("C4"), 3)

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            classify_moderation(named_group("C4"), 2, "heuristic")

    def test_moderate_witness_reverifies(self, zoo):
        for name, G in zoo.items():
            if G.degree > 16:
                continue
            for p in prime_divisors(G.order):
                report = classify_moderation(G, p, "exhaustive")
                if report.status == "MODERATE":
                    part = stab_p_part(G, report.witness, p)
                    assert part == report.stab_p_part
                    assert 1 < part < report.group_p_part


class TestCensusHistogram:
    def test_d6(self):
        assert census_histogram(named_group("D6"), 2) == {2: 8}

    def test_c4(self):
        # {},{0,2},{1,3},omega are the only subsets with nontrivial stabilizer
        assert census_histogram(named_group("C4"), 2) == {1: 12, 2: 2, 4: 2}

    def test_counts_sum(self, zoo):
        for name, G in zoo.items():
            if G.degree > 12:
                continue
            for p in prime_divisors(G.order):
                hist = census_histogram(G, p)
                assert sum(hist.values()) == 1 << G.degree


class TestRegularOrbits:
    def test_signs_on_gf5(self):
        H = point_stabilizer_of_zero(named_group("D10"))
        assert regular_orbit_vector(H) == 1

    def test_diagonal_signs_on_gf3_squared(self):
        H = point_stabilizer_of_zero(named_group("Product(D6,D6)"))
        pair = regular_orbit_pair(H)
        assert pair is not None
        v, w = pair
        # brute-force: no non-identity element fixes both
        for g in H.iter_elements():
            if not g.is_identity():
                assert not (g(v) == v and g(w) == w)

    def test_gammal18_has_no_regular_vector(self):
        # GL(1,8) . Frobenius has order 21 > 7 nonzero points
        H = point_stabilizer_of_zero(named_group("J"))
        assert H.order == 21
        assert regular_orbit_vector(H) is None

    def test_pair_least_in_point_order(self):
        H = point_stabilizer_of_zero(named_group("D10"))
        assert regular_orbit_pair(H) == (1, 1)


class TestTranslationWitness:
    def test_gf9_with_negation(self):
        F = build_field(3, 1)
        spec = AffineSpec(F, 2, (SemilinearGen(((2, 0), (0, 2)), 0, ()),))
        G = build_affine(spec)  # order 18
        delta = translation_witness(G, 3)
        assert delta.sorted_points() == [0, 1, 2]
        part = stab_p_part(G, delta, 3)
        assert 3 <= part < p_part(G.order, 3)

    def test_gf4_least_subgroup(self):
        F = build_field(2, 2)
        spec = AffineSpec(F, 1, ())
        G = build_affine(spec)
        assert translation_witness(G, 2).sorted_points() == [0, 1]

    def test_v_equal_p_rejected(self):
        with pytest.raises(ConstructorInapplicable):
            translation_witness(named_group("D6"), 3)

    def test_agl23_witness(self):
        G = named_group("AGL(2,3)")
        delta = translation_witness(G, 3)
        assert delta.sorted_points() == [0, 1, 2]
        part = stab_p_part(G, delta, 3)
        assert 1 < part < p_part(G.order, 3)


class TestP2RegularWitness:
    def test_triple_shape(self):
        G = named_group("Product(D6,D6)")
        gamma = p2_regular_witness(G, 2)
        assert len(gamma) == 3
        assert 0 in gamma

    def test_verifies_on_d6xd6(self):
        G = named_group("Product(D6,D6)")
        gamma = p2_regular_witness(G, 2)
        assert stab_p_part(G, gamma, 2) == 2

    def test_vt_differs_from_v(self):
        # regularity forces vt != v for any involution t
        G = named_group("Product(D6,D6)")
        gamma = p2_regular_witness(G, 2)
        assert len(gamma.members) == 3

    def test_no_regular_vector(self):
        with pytest.raises(ConstructorInapplicable):
            p2_regular_witness(named_group("J"), 2)


class TestMetacyclicWitness:
    def test_shape(self, metacyclic_group):
        gamma = metacyclic_witness(metacyclic_group, 2)
        assert len(gamma) == 4
        assert 0 in gamma

    def test_stab_two_part_exactly_two(self, metacyclic_group):
        G = metacyclic_group
        gamma = metacyclic_witness(G, 2)
        stab = setwise_stabilizer(G, gamma)
        assert p_part(stab.order, 2) == 2
        assert p_part(G.order, 2) == 4

    def test_u_stabilizes_by_construction(self, metacyclic_group):
        G = metacyclic_group
        gamma = metacyclic_witness(G, 2)
        stab = setwise_stabilizer(G, gamma)
        assert any(g.order() == 2 for g in stab.iter_elements())

    def test_inapplicable_without_eigenvectors(self):
        with pytest.raises(ConstructorInapplicable):
            metacyclic_witness(named_group("D6"), 2)


class TestOrbitWitnessOddP:
    def test_agl_1_19_at_3(self):
        G = named_group("AGL(1,19)")
        candidates = orbit_witness_odd_p(G, 3)
        sizes = [len(c) for c in candidates]
        # p+1 when the orbits coincide, else 2p+1 and the fallback
        assert sizes in ([4], [7, 5])
        found = [stab_p_part(G, c, 3) for c in candidates]
        assert any(1 < part < 9 for part in found)

    def test_requires_odd_p(self):
        with pytest.raises(ConstructorInapplicable):
            orbit_witness_odd_p(named_group("Product(D6,D6)"), 2)

    def test_no_order_p_element(self):
        with pytest.raises(ConstructorInapplicable):
            orbit_witness_odd_p(named_group("AGammaL(1,9)"), 7)


class TestConjugationCovariance:
    def test_random_conjugates(self, zoo):
        import random

        rng = random.Random(7)
        for name, G in zoo.items():
            if G.degree > 16:
                continue
            elems = list(G.iter_elements())
            for _ in range(5):
                g = rng.choice(elems)
                delta = PointSet(
                    G.degree,
                    rng.sample(range(G.degree), rng.randint(1, G.degree - 1)),
                )
                lhs = {s._key for s in setwise_stabilizer(G, delta.image(g)).iter_elements()}
                rhs = {
                    (g.inverse() * s * g)._key
                    for s in setwise_stabilizer(G, delta).iter_elements()
                }
                assert lhs == rhs


def test_concealed_implies_extreme(zoo):
    for name, p in (("D6", 2), ("D10", 2), ("J", 3)):
        G = zoo[name]
        concealed, _ = is_p_concealed(G, p)
        assert concealed
        assert classify_moderation(G, p, "exhaustive").status == "EXTREME"
