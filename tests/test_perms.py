import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabparts import (
    DegreeMismatch,
    Permutation,
    PermGroup,
    PointSet,
    ResourceLimit,
    compose,
    element_order,
    format_cycles,
    named_group,
    normalizer,
    orbits,
    parse_cycles,
    primitivity_blocks,
    product_action,
)
from strategies import closure, small_groups


class TestParseCycles:
    def test_three_cycle(self):
        assert list(parse_cycles("(0 1 2)", 3).images) == [1, 2, 0]

    def test_empty_is_identity(self):
        assert list(parse_cycles("", 4).images) == [0, 1, 2, 3]

    def test_d10_reflection(self):
        # x -> -x mod 5
        assert list(parse_cycles("(1 4)(2 3)", 5).images) == [0, 4, 3, 2, 1]

    @pytest.mark.parametrize("bad", ["(0 1", "0 1)", "(0 5)", "(0 0)", "(0 1)(1 2)", "(x)", "()"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_cycles(bad, 4)

    def test_roundtrip_random(self):
        rng = random.Random(12345)
        for _ in range(1000):
            n = rng.randint(1, 32)
            images = list(range(n))
            rng.shuffle(images)
            g = Permutation(images)
            assert parse_cycles(format_cycles(g), n) == g


class TestCompose:
    def test_involution_squared(self):
        t = parse_cycles("(0 1)", 2)
        assert compose(t, t).is_identity()

    def test_right_action_order(self):
        # x ((ab)) = ((x)a)b: (0 1 2) then (0 1) is the transposition (1 2)
        a = parse_cycles("(0 1 2)", 3)
        b = parse_cycles("(0 1)", 3)
        assert compose(a, b) == parse_cycles("(1 2)", 3)
        for x in range(3):
            assert compose(a, b)(x) == b(a(x))

    def test_identity_law(self):
        a = parse_cycles("(0 3)(1 2)", 4)
        assert compose(a, Permutation.identity(4)) == a

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            compose(parse_cycles("(0 1)", 2), parse_cycles("(0 1)", 3))

    def test_inverse(self):
        g = parse_cycles("(0 1 2 3 4)(5 6)", 7)
        assert compose(g, g.inverse()).is_identity()


@pytest.mark.parametrize("images", [[0, 0, 1], [1, 2, 3], [-1, 0, 1], [[0, 1]], []])
def test_constructor_rejects_non_bijections(images):
    with pytest.raises(ValueError):
        Permutation(images)


def test_element_order():
    assert element_order(parse_cycles("(0 1 2)", 3)) == 3
    assert element_order(parse_cycles("(0 1)(2 3 4)", 5)) == 6
    assert element_order(Permutation.identity(6)) == 1


class TestGroupOrder:
    def test_d6(self):
        assert PermGroup.from_cycles(3, ["(0 1 2)", "(1 2)"]).order == 6

    def test_j(self):
        assert named_group("J").order == 168

    def test_trivial(self):
        assert PermGroup.trivial(5).order == 1

    # 10! rows of 10 int32 points take 145 MB, beyond MAX_TABLE_BYTES
    SYM10 = ["(0 1 2 3 4 5 6 7 8 9)", "(0 1)"]

    def test_enumeration_bound(self):
        G = PermGroup.from_cycles(10, self.SYM10)
        with pytest.raises(ResourceLimit, match="MAX_TABLE_BYTES"):
            G.elements
        assert G.order == 3628800

    def test_failed_enumeration_is_remembered(self, monkeypatch):
        # the byte bound is checked before the table is built, on every read
        calls = []
        enumerate_ = PermGroup._enumerate

        def counted(self):
            calls.append(self)
            return enumerate_(self)

        monkeypatch.setattr(PermGroup, "_enumerate", counted)
        G = PermGroup.from_cycles(10, self.SYM10)
        for _ in range(2):
            with pytest.raises(ResourceLimit, match="MAX_TABLE_BYTES"):
                G.elements
        assert parse_cycles("(0 1)", 10) in G
        assert calls == []

    def test_chain_fallback_over_bound(self):
        # order and membership need no element table
        G = PermGroup.from_cycles(10, self.SYM10)
        assert G.order == 3628800
        assert parse_cycles("(0 1)", 10) in G
        assert parse_cycles("(0 1)", 11) not in G
        assert G._elements is None

    def test_chain_agrees_with_enumeration(self, zoo):
        # an independent breadth-first closure of the generators
        for name, G in zoo.items():
            rows = closure(G)
            assert G.order == len(rows), name
            assert np.array_equal(G.elements, np.array(rows, dtype=np.int32)), name
            assert all(Permutation(rows[i]) in G for i in range(0, len(rows), 7)), name


@settings(max_examples=60, deadline=None)
@given(small_groups(max_order=5040), st.data())
@example(PermGroup.trivial(3), None)
def test_chain_agrees_with_closure(G, data):
    rows = closure(G)
    assert G.order == len(rows)
    assert np.array_equal(G.elements, np.array(rows, dtype=np.int32))
    members = set(rows)
    draws = [] if data is None else [
        data.draw(st.permutations(range(G.degree))) for _ in range(5)]
    draws += [rows[-1], list(range(G.degree))]
    for images in draws:
        assert (Permutation(images) in G) == (tuple(images) in members)


class TestOrbits:
    def test_frobenius_on_gf8(self):
        from stabparts import build_field

        F = build_field(2, 3)
        frob = Permutation([F.frobenius(x) for x in range(8)])
        assert sorted(len(o) for o in orbits([frob], 8)) == [1, 1, 3, 3]

    def test_identity_singletons(self):
        assert orbits([], 4) == [[0], [1], [2], [3]]

    def test_cyclic_transitive(self):
        assert orbits([parse_cycles("(0 1 2 3)", 4)], 4) == [[0, 1, 2, 3]]

    def test_orbit_sizes_divide_order(self, zoo):
        for G in zoo.values():
            for orbit in G.orbits():
                assert G.order % len(orbit) == 0


class TestClosure:
    def test_closed_under_composition_and_inverse(self, zoo):
        for G in zoo.values():
            if G.order > 10**4:
                continue
            elems = list(G.iter_elements())
            keys = {g._key for g in elems}
            assert Permutation.identity(G.degree)._key in keys
            for g in elems[:20]:
                assert g.inverse()._key in keys
                for h in elems[:20]:
                    assert (g * h)._key in keys

    def test_order_divides_factorial(self, zoo):
        import math

        for G in zoo.values():
            assert math.factorial(G.degree) % G.order == 0


class TestNormalizerCentralizer:
    def test_self_normalizing(self):
        G = named_group("Sym(4)")
        assert normalizer(G, G).order == G.order

    def test_c4_in_s4(self):
        G = named_group("Sym(4)")
        H = G.subgroup([parse_cycles("(0 1 2 3)", 4)])
        assert normalizer(G, H).order == 8

    def test_not_a_subgroup(self):
        G = named_group("C4")
        H = PermGroup.from_cycles(4, ["(0 1)"])
        with pytest.raises(ValueError):
            normalizer(G, H)


class TestBlocks:
    def test_c4_blocks(self):
        G = PermGroup.from_cycles(4, ["(0 1 2 3)"])
        assert primitivity_blocks(G) == [[0, 2], [1, 3]]

    def test_d6_primitive(self):
        assert primitivity_blocks(named_group("D6")) is None

    def test_j_primitive(self):
        assert primitivity_blocks(named_group("J")) is None

    def test_intransitive_rejected(self):
        G = PermGroup.from_cycles(4, ["(0 1)"])
        with pytest.raises(ValueError):
            primitivity_blocks(G)

    def test_prime_degree_zoo_groups_primitive(self, zoo):
        for name, G in zoo.items():
            if G.degree in (2, 3, 5, 7, 11, 13) and G.is_transitive():
                assert primitivity_blocks(G) is None, name

    def test_blocks_partition(self):
        G = PermGroup.from_cycles(6, ["(0 1 2 3 4 5)"])
        system = primitivity_blocks(G)
        flat = sorted(x for blk in system for x in blk)
        assert flat == list(range(6))
        sizes = {len(blk) for blk in system}
        assert len(sizes) == 1
        size = sizes.pop()
        assert 1 < size < 6 and 6 % size == 0


class TestProductAction:
    def test_d6_squared(self):
        G = named_group("Product(D6,D6)")
        assert (G.degree, G.order) == (9, 36)

    def test_jxj(self, jxj):
        assert (jxj.degree, jxj.order) == (64, 28224)

    def test_trivial_factor(self):
        G = product_action(PermGroup.trivial(1), named_group("D6"))
        assert (G.degree, G.order) == (3, 6)

    def test_order_multiplicative(self, zoo):
        names = ["D6", "C4", "Sym(4)"]
        for a in names:
            for b in names:
                G1, G2 = named_group(a), named_group(b)
                assert product_action(G1, G2).order == G1.order * G2.order

    def test_degree_bound(self):
        # C65 x C64 acts on 4160 > MAX_DEGREE points
        with pytest.raises(ResourceLimit, match="MAX_DEGREE"):
            product_action(named_group("C65"), named_group("C64"))


class TestPointSet:
    def test_mask_roundtrip(self):
        ps = PointSet(9, [0, 4, 7])
        assert PointSet.from_mask(9, ps.mask) == ps
        assert ps.mask == 1 + 16 + 128

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            PointSet(4, [4])

    def test_image(self):
        g = parse_cycles("(0 1 2)", 3)
        assert PointSet(3, [0]).image(g) == PointSet(3, [1])


@given(st.permutations(list(range(8))))
@settings(max_examples=200)
def test_inverse_roundtrip_property(images):
    g = Permutation(images)
    assert (g * g.inverse()).is_identity()
    assert parse_cycles(format_cycles(g), 8) == g


@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
@settings(max_examples=200)
def test_compose_pointwise_property(a_images, b_images):
    a, b = Permutation(a_images), Permutation(b_images)
    ab = a * b
    for x in range(6):
        assert ab(x) == b(a(x))
