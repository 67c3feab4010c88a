import json
from decimal import Decimal

import pytest

from stabparts import (
    PermGroup,
    PointSet,
    all_sylows,
    find_sylow,
    format_cycles,
    named_group,
    orbit_size_floor_check,
    p_part,
    parse_cycles,
    prop_certificate,
    randomized_witness_from_z,
    stab_p_part,
    subsets_fixed_count,
    sylow_cover_bound,
)
from stabparts import census
from stabparts.census import CriterionInapplicable
from stabparts.fields import prime_divisors
from stabparts.sylow import frattini_center_element


class TestSubsetsFixedCount:
    def test_c4_generator(self):
        G = named_group("C4")
        g = G.generators[0]
        assert subsets_fixed_count(g, 4) == 2  # one orbit, so {} and omega

    def test_involution_on_4_points(self):
        G = named_group("C4")
        sq = [g for g in G.iter_elements() if g.order() == 2][0]
        assert subsets_fixed_count(sq, 4) == 4  # two 2-cycles

    def test_whole_group(self):
        G = named_group("Product(D6,D6)")
        assert subsets_fixed_count(list(G.generators), 9) == 2

    def test_matches_brute_force(self, zoo):
        for name, G in zoo.items():
            if G.degree > 10:
                continue
            for g in G.iter_elements():
                brute = sum(
                    1
                    for mask in range(1 << G.degree)
                    if PointSet.from_mask(G.degree, mask).image(g).mask == mask
                )
                assert subsets_fixed_count(g, G.degree) == brute, (name, g)

    def test_fixed_point_split(self):
        # an element with f fixed points and the rest in p-cycles fixes
        # exactly 2^(f + (n-f)/p) subsets
        G = named_group("D10")
        rot = [g for g in G.iter_elements() if g.order() == 5][0]
        assert subsets_fixed_count(rot, 5) == 2  # f=0, one 5-cycle
        refl = [g for g in G.iter_elements() if g.order() == 2][0]
        assert subsets_fixed_count(refl, 5) == 2 ** (1 + 2)


class TestCoverBound:
    def test_c4(self):
        G = named_group("C4")
        bound = sylow_cover_bound(G, 2, all_sylows(G, 2))
        # one Sylow (G itself), with a single orbit on the 4 points
        assert bound.sylow_count == 1
        assert bound.exact == 1 * 2
        assert bound.coarse == 1 * 2 ** 1  # z = (0 2)(1 3): f=0, n/p^2 = 1
        assert bound.exact <= bound.coarse

    def test_jxj_coarse_none(self, jxj):
        bound = sylow_cover_bound(jxj, 3, all_sylows(jxj, 3))
        assert bound.coarse is None  # elementary abelian: no z available
        assert bound.sylow_count == 28 * 28
        assert bound.exact == 28 * 28 * (1 << 16)
        assert bound.orbit_count == 16

    def test_exact_is_union_bound(self):
        # the number of subsets covered by some Sylow is at most the exact
        # bound; brute force at tiny degree
        G = named_group("D10")
        full = p_part(G.order, 2)
        covered = sum(
            1
            for mask in range(1 << G.degree)
            if stab_p_part(G, PointSet.from_mask(G.degree, mask), 2) == full
        )
        bound = sylow_cover_bound(G, 2, all_sylows(G, 2))
        assert covered <= bound.exact

    def test_exact_at_most_coarse(self, zoo):
        for name, G in zoo.items():
            for p in prime_divisors(G.order):
                bound = sylow_cover_bound(G, p, all_sylows(G, p))
                if bound.coarse is not None:
                    assert bound.exact <= bound.coarse, (name, p)

    def test_json_past_the_str_digit_cap(self):
        # 2^16000 has 4817 digits, past str(int)'s default cap of 4300
        blob = census.CoverBound(1, 16000, 1 << 16000, 3 << 16000).to_json()
        assert len(blob["exact"]) == 4817 and int(Decimal(blob["exact"])) == 1 << 16000
        assert int(Decimal(blob["coarse"])) == 3 << 16000


class TestProp31Certificate:
    def test_c4_true(self):
        cert = prop_certificate(named_group("C4"), 2)
        assert cert.verdict is True
        assert cert.sylow_norm_index == 1
        assert cert.fixed_points == 0
        assert cert.lhs_power == 1
        assert cert.rhs_power == 16
        # z is the square of the 4-cycle
        assert format_cycles(cert.z) == "(0 2)(1 3)"

    def test_s4_false(self):
        cert = prop_certificate(named_group("Sym(4)"), 2)
        assert cert.verdict is False
        assert cert.sylow_norm_index == 3
        assert cert.lhs_power == 81
        assert cert.rhs_power == 16

    def test_jxj_inapplicable(self, jxj):
        with pytest.raises(CriterionInapplicable):
            prop_certificate(jxj, 3)

    def test_inapplicable_before_counting(self, jxj, monkeypatch):
        # the elementary-abelian P is refused before N_G(P) counts n_p
        def refuse(G, H):
            raise AssertionError("normalizer called for n_p")

        monkeypatch.setattr(census, "normalizer", refuse)
        with pytest.raises(CriterionInapplicable):
            prop_certificate(jxj, 3)

    def test_p_must_divide(self):
        with pytest.raises(ValueError):
            prop_certificate(named_group("C4"), 5)

    def test_verdict_means_moderate(self):
        from stabparts import classify_moderation

        G = named_group("C4")
        assert prop_certificate(G, 2).verdict
        assert classify_moderation(G, 2, "exhaustive").status == "MODERATE"

    def test_json_round_trip(self):
        cert = prop_certificate(named_group("C4"), 2)
        blob = json.loads(json.dumps(cert.to_json()))
        assert blob["verdict"] is True
        assert blob["lhs_power"] == "1"
        assert blob["rhs_power"] == "16"
        assert blob["z"] == "(0 2)(1 3)"

    def test_inequality_is_exact_integer_compare(self):
        cert = prop_certificate(named_group("Sym(4)"), 2)
        assert isinstance(cert.lhs_power, int)
        assert isinstance(cert.rhs_power, int)
        assert cert.verdict == (cert.lhs_power < cert.rhs_power)


class TestOrbitSizeFloor:
    def test_zoo(self, zoo):
        for name, G in zoo.items():
            for p in prime_divisors(G.order):
                P = find_sylow(G, p)
                from stabparts.sylow import is_elementary_abelian

                if is_elementary_abelian(P, p):
                    continue
                z = frattini_center_element(P, p)
                assert orbit_size_floor_check(P, p, z), (name, p)

    def test_rejects_noncentral_z(self):
        from stabparts import parse_cycles

        P = find_sylow(named_group("Sym(4)"), 2)  # dihedral of order 8
        noncentral = [
            g for g in P.iter_elements()
            if g.order() == 2 and any((g * h) != (h * g) for h in P.generators)
        ][0]
        with pytest.raises(ValueError):
            orbit_size_floor_check(P, 2, noncentral)

    def test_small_orbit_fails(self):
        # z = (0 1) moves a point of the P-orbit {0, 1}, of size 2 < 2^2
        P = PermGroup.from_cycles(4, ["(0 1)", "(2 3)"])
        assert not orbit_size_floor_check(P, 2, parse_cycles("(0 1)", 4))

    @pytest.mark.parametrize("z", ["(0 1 2 3)", "(0 2)"])  # order 4; not in P
    def test_rejects_z_of_wrong_order_or_outside_p(self, z):
        P = PermGroup.from_cycles(4, ["(0 1)", "(2 3)"])
        with pytest.raises(ValueError, match="order-p element of P"):
            orbit_size_floor_check(P, 2, parse_cycles(z, 4))


class TestRandomizedWitness:
    def test_c4(self):
        G = named_group("C4")
        z = frattini_center_element(find_sylow(G, 2), 2)
        delta = randomized_witness_from_z(G, 2, z, seed=0)
        assert delta is not None
        assert delta.sorted_points() in ([0, 2], [1, 3])
        assert 1 < stab_p_part(G, delta, 2) < 4

    def test_deterministic_in_seed(self):
        G = named_group("AGL(2,3)")
        z = frattini_center_element(find_sylow(G, 2), 2)
        a = randomized_witness_from_z(G, 2, z, seed=5)
        b = randomized_witness_from_z(G, 2, z, seed=5)
        assert a == b

    def test_witness_verifies(self):
        G = named_group("AGammaL(1,9)")
        z = frattini_center_element(find_sylow(G, 2), 2)
        delta = randomized_witness_from_z(G, 2, z, seed=0)
        assert delta is not None
        assert stab_p_part(G, delta, 2) < p_part(G.order, 2)

    def test_rejects_non_p_element(self):
        from stabparts import parse_cycles

        G = named_group("D6")
        with pytest.raises(ValueError):
            randomized_witness_from_z(G, 2, parse_cycles("(0 1 2)", 3))
