import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stabparts import (
    DegreeMismatch,
    Permutation,
    PermGroup,
    PointSet,
    ResourceLimit,
    all_sylows,
    compose,
    element_order,
    format_cycles,
    group_from_document,
    is_primitive,
    named_group,
    normalizer,
    orbits,
    parse_cycles,
    point_stabilizer_of_zero,
    primitivity_blocks,
    product_action,
    setwise_stabilizer,
)
from stabparts.perms import StabilizerChain, _least_element_of_order, _order_p_rows
from strategies import closure, small_groups


class TestParseCycles:
    def test_three_cycle(self):
        assert list(parse_cycles("(0 1 2)", 3).images) == [1, 2, 0]

    def test_empty_is_identity(self):
        assert list(parse_cycles("", 4).images) == [0, 1, 2, 3]

    def test_degree_zero(self):
        with pytest.raises(ValueError, match="degree must be positive"):
            parse_cycles("", 0)

    def test_d10_reflection(self):
        # x -> -x mod 5
        assert list(parse_cycles("(1 4)(2 3)", 5).images) == [0, 4, 3, 2, 1]

    def test_space_between_cycles(self):
        assert parse_cycles("(0 1) (2 3)", 4) == parse_cycles("(0 1)(2 3)", 4)

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

    def test_negative_power(self):
        g = parse_cycles("(0 1 2)", 3)
        assert g ** -2 == g


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

    def test_generator_of_another_degree(self):
        with pytest.raises(DegreeMismatch):
            PermGroup(4, [parse_cycles("(0 1)", 3)])

    # the bound counts 4 bytes a point: 10! rows of 10 points are 145 MB,
    # beyond MAX_TABLE_BYTES, though the table would store one byte a point
    SYM10 = ["(0 1 2 3 4 5 6 7 8 9)", "(0 1)"]

    def test_enumeration_bound(self):
        G = PermGroup.from_cycles(10, self.SYM10)
        with pytest.raises(ResourceLimit, match="^element table of 145152000 bytes exceeds "
                                                "MAX_TABLE_BYTES = 67108864$"):
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


def _assert_full_lex_order(G):
    E = G.elements
    # point-major: the images of each point under all elements are contiguous
    assert E.flags.f_contiguous and not E.flags.writeable
    assert E.dtype == np.min_scalar_type(G.degree - 1)  # uint8 to 256 points, uint16 to 4096
    assert np.array_equal(E, E[np.lexsort(E.T[::-1])])
    step = np.diff(E.astype(np.int64), axis=0)
    first = (step != 0).argmax(axis=1)
    assert (step[np.arange(len(step)), first] > 0).all()  # strictly increasing


def _sort_columns(G):
    """The number of columns G's table is sorted on: columns 0..b, b the
    largest base point, read at the table's own width."""
    return max((lvl.base_point for lvl in G.chain.levels), default=0) + 1


def _assert_table(G):
    _assert_full_lex_order(G)
    assert np.array_equal(G.elements, np.array(closure(G), dtype=np.int32).reshape(-1, G.degree))


class TestTableOrder:
    # the table is sorted on its columns up to the largest base point only,
    # one lexsort key a column
    def test_product_sorted_beyond_its_last_base_point(self, jxj):
        base = [lvl.base_point for lvl in jxj.chain.levels]
        assert (max(base), jxj.degree) == (16, 64)
        assert _sort_columns(jxj) == 17
        _assert_table(jxj)

    def test_seven_bit_points(self):
        # Sym({60..66}) in degree 70: base points up to 65, so 66 sort columns
        G = PermGroup.from_cycles(70, ["(60 61 62 63 64 65 66)", "(60 61)"])
        assert max(lvl.base_point for lvl in G.chain.levels) >= 64
        assert _sort_columns(G) == 66
        _assert_table(G)
        assert G.elements[:, :60].tolist() == [list(range(60))] * 5040

    def test_moved_points_at_the_end(self):
        # Sym({7,8,9}) in degree 10: base [7, 8], so column 9 is not a sort key
        G = PermGroup.from_cycles(10, ["(7 8 9)", "(8 9)"])
        assert [lvl.base_point for lvl in G.chain.levels] == [7, 8]
        _assert_full_lex_order(G)
        assert G.elements[:, :7].tolist() == [list(range(7))] * 6
        assert G.elements[:, 7:].tolist() == [[7, 8, 9], [7, 9, 8], [8, 7, 9],
                                              [8, 9, 7], [9, 7, 8], [9, 8, 7]]

    def test_setwise_stabilizer_table(self, jxj):
        # rows 0 and 1 of the 8 x 8 grid; the stabilizer's table is its rows of G's
        S = setwise_stabilizer(jxj, PointSet(64, range(16)))
        assert S.order == 1008
        _assert_full_lex_order(S)

    @pytest.mark.parametrize("degree", [1, 5])
    def test_no_levels(self, degree):
        G = PermGroup.trivial(degree)
        assert G.chain.levels == []
        assert _sort_columns(G) == 1
        _assert_table(G)
        assert G.elements.tolist() == [list(range(degree))]


def _reference_table(G):
    """G's elements as products of transversal representatives, deepest level
    first, in row-major order, sorted by one lexsort on every column and one
    gather."""
    E = G.chain.identity[np.newaxis]
    for lvl in reversed(G.chain.levels):
        reps = np.stack(list(lvl.transversal.values()))
        E = reps[:, E].reshape(-1, G.degree)  # e, then each representative
    return E[np.lexsort(E.T[::-1])]


def _involution(n):
    return PermGroup(n, [Permutation(np.arange(n)[::-1])])


class TestInPlaceSort:
    # the sort order is applied to the transposed table an eighth of the
    # points at a time: ceil(n / 8) points a block
    @pytest.mark.parametrize("G, columns, blocks", [
        (named_group("Product(J,J)"), 17, 8),
        (_involution(4096), 1, 8),
        (named_group("AGL(1,7)"), 2, 7),
        (named_group("AGL(2,3)"), 4, 5),
        (PermGroup.trivial(5), 1, 5),
        (PermGroup.from_cycles(9, ["(1 2 3)(4 5)", "(6 7 8)", "(1 2)"]), 7, 5),
        # a uint16 table sorted on more than one column
        (named_group("Product(AGL(1,17),C17)"), 18, 8),
    ], ids=["JxJ", "involution-4096", "degree-7", "degree-9", "Trivial(5)", "fixes-0",
            "AGL(1,17)xC17"])
    def test_matches_reference(self, G, columns, blocks):
        assert _sort_columns(G) == columns
        assert len(range(0, G.degree, -(-G.degree // 8))) == blocks
        _assert_full_lex_order(G)
        if G.degree <= 9:
            _assert_table(G)
        assert np.array_equal(G.elements, _reference_table(G))

    @staticmethod
    def _traced_build(G):
        G.chain  # the chain is built once per group, outside the table
        tracemalloc.start()
        try:
            E = G.elements
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return E, peak

    def test_jxj_traced_peak(self):
        # gathering a sorted second table would peak above twice the table
        E, peak = self._traced_build(named_group("Product(J,J)"))
        assert E.nbytes == 28224 * 64  # one byte a point
        assert peak - E.nbytes < 28224 * 64

    def test_sym9_traced_peak(self):
        # a build holds the table, the sort order (8 bytes a row) and one
        # block of two points: 6.58 MiB traced for a 3.11 MiB table.  An
        # int64 copy of the sort columns adds 8 bytes a row more (9.35 MiB).
        G = group_from_document({"degree": 9, "generators": ["(0 1 2 3 4 5 6 7 8)", "(0 1)"]})
        E, peak = self._traced_build(G)
        rows = math.factorial(9)
        assert (E.shape, E.dtype) == ((rows, 9), np.uint8)
        assert peak < E.nbytes + 8 * rows + E.nbytes // 2


@settings(max_examples=40, deadline=None)
@given(small_groups(max_order=5040), st.integers(0, 60), st.integers(0, 8))
@example(PermGroup.from_cycles(6, ["(0 1 2 3 4 5)", "(0 1)"]), 60, 4)
def test_table_order_on_high_points(G, offset, extra):
    # G moved onto the points offset.. of a larger degree, up to 7 bits a point
    n = offset + G.degree + extra
    lifted = []
    for g in G.generators:
        images = np.arange(n, dtype=np.int32)
        images[offset:offset + G.degree] = g.images + offset
        lifted.append(Permutation(images))
    H = PermGroup(n, lifted)
    assert H.order == G.order
    _assert_table(H)


# a table stores each image in the narrowest unsigned type that holds n - 1
@pytest.mark.parametrize("G, dtype", [
    (named_group("C256"), np.uint8),
    (named_group("C257"), np.uint16),
    (_involution(4096), np.uint16),
], ids=["C256", "C257", "involution-4096"])
def test_table_width_boundaries(G, dtype):
    E = G.elements
    assert E.dtype == dtype
    assert np.array_equal(E, np.array(closure(G)).reshape(-1, G.degree))


@settings(max_examples=60, deadline=None)
@given(small_groups(max_order=5040), st.sampled_from([2, 3, 5, 7]))
@example(PermGroup.trivial(1), 2)
def test_permutations_from_table_rows_are_int32(G, p):
    rows = list(G.elements)
    made = list(zip(rows, G.iter_elements()))
    least = _least_element_of_order(G.elements, p)
    if least is not None:
        made.append((G.elements[np.flatnonzero(_order_p_rows(G.elements, p))[0]], least))
    made += [(row, Permutation._trusted(row))
             for row in normalizer(G, G.subgroup(G.generators[:1]))]
    for row, g in made:
        assert g.images.dtype == np.int32
        assert g == Permutation(row.tolist()) and hash(g) == hash(Permutation(row.tolist()))


def _one_indexed(degree, *cycles):
    """A permutation from cycles written on the points 1..degree."""
    text = "".join("(" + " ".join(str(x - 1) for x in c) + ")" for c in cycles)
    return parse_cycles(text, degree)


M11_GENS = [_one_indexed(11, range(1, 12)), _one_indexed(11, (3, 7, 11, 8), (4, 10, 5, 6))]
M12_GENS = [_one_indexed(12, range(1, 12)), _one_indexed(12, (3, 7, 11, 8), (4, 10, 5, 6)),
            _one_indexed(12, (1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10))]
DEEP_CHAINS = {
    "M11": (11, M11_GENS, 7920),
    "M12": (12, M12_GENS, 95040),
    "Sym(10)": (10, [_one_indexed(10, range(1, 11)), _one_indexed(10, (1, 2))],
                math.factorial(10)),
    "Sym(12)": (12, [_one_indexed(12, range(1, 13)), _one_indexed(12, (1, 2))],
                math.factorial(12)),
    "Alt(11)": (11, [_one_indexed(11, (1, 2, 3)), _one_indexed(11, range(3, 12))],
                math.factorial(11) // 2),
    "Sym(20)": (20, [_one_indexed(20, range(1, 21)), _one_indexed(20, (1, 2))],
                math.factorial(20)),
}


class TestStabilizerChain:
    @pytest.mark.parametrize("name", list(DEEP_CHAINS))
    def test_deep_chain_orders(self, name):
        # known orders of groups with long chains, beyond the closure tests' reach
        degree, gens, order = DEEP_CHAINS[name]
        G = PermGroup(degree, gens)
        assert G.order == order
        assert gens[0] * gens[-1] * gens[0] in G
        odd = _one_indexed(degree, (1, 2))
        assert (odd in G) == name.startswith("Sym")

    @pytest.mark.parametrize("name", ["M11", "M12", "Alt(11)", "Product(J,J)"])
    def test_each_schreier_pair_sifted_once(self, monkeypatch, name):
        G = PermGroup(*DEEP_CHAINS[name][:2]) if name in DEEP_CHAINS else named_group(name)
        sifts = []
        sift = StabilizerChain._sift
        monkeypatch.setattr(StabilizerChain, "_sift",
                            lambda self, g: sifts.append(g) or sift(self, g))
        chain = StabilizerChain(G.degree, G.generators)
        # one sift per generator, at most one per (orbit point, strong generator)
        # pair of each level
        pairs = sum(len(lvl.transversal) * sum(depth >= i for _, depth in chain.strong)
                    for i, lvl in enumerate(chain.levels))
        assert len(sifts) <= len(G.generators) + pairs

    @pytest.mark.parametrize("name, base, sizes, depths", [
        ("Sym(10)", [0, 1, 8, 7, 6, 5, 4, 3, 2], list(range(10, 1, -1)),
         [0, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8]),
        ("Product(J,J)", [0, 8, 16, 1, 2], [64, 7, 3, 7, 3], [0, 0, 0, 1, 2, 0, 0, 0, 3, 4]),
        ("M12", [0, 2, 1, 3, 4], [12, 11, 10, 9, 8], [0, 1, 1, 2, 2, 3, 3, 0, 4, 4]),
    ])
    def test_chain_shape(self, name, base, sizes, depths):
        # the base, orbit sizes and strong generator depths of the one-pass algorithm
        G = PermGroup(*DEEP_CHAINS[name][:2]) if name in DEEP_CHAINS else named_group(name)
        chain = G.chain
        assert [lvl.base_point for lvl in chain.levels] == base
        assert [len(lvl.transversal) for lvl in chain.levels] == sizes
        assert [depth for _, depth in chain.strong] == depths
        identity = np.arange(G.degree, dtype=np.int32)
        stored = [s for s, _ in chain.strong]
        for lvl in chain.levels:
            assert list(lvl.transversal) == list(lvl.inverses)
            for x, u in lvl.transversal.items():
                assert u[lvl.base_point] == x
                assert np.array_equal(lvl.inverses[x][u], identity)
                stored += [u, lvl.inverses[x]]
        assert all(a.dtype == np.int32 and not a.flags.writeable for a in stored)

    def test_add_generator_reports_growth(self):
        chain = StabilizerChain(11, M11_GENS[:1])
        assert chain.add_generator(M11_GENS[1]) is True
        assert chain.order() == 7920
        for g in [M11_GENS[0] ** 3, M11_GENS[1] * M11_GENS[0], Permutation.identity(11)]:
            assert chain.add_generator(g) is False
        assert chain.order() == 7920


@settings(max_examples=60, deadline=None)
@given(small_groups(max_order=5040), st.randoms(use_true_random=False))
def test_chain_ignores_how_the_group_is_generated(G, rnd):
    # shuffled and repeated generators, and products of them, give the same group
    gens = list(G.generators)
    extra = [rnd.choice(gens) * rnd.choice(gens) for _ in range(2)] if gens else []
    chain = StabilizerChain(G.degree, gens)
    assert not any(chain.add_generator(g) for g in gens + extra)
    regenerated = gens + gens[:1] + extra
    rnd.shuffle(regenerated)
    H = PermGroup(G.degree, regenerated)
    assert H.order == G.order == chain.order()
    assert np.array_equal(H.elements, G.elements)


def _chain_state(G):
    return ([(lvl.base_point, {x: u.tolist() for x, u in lvl.transversal.items()})
             for lvl in G.chain.levels],
            [(s.tolist(), depth) for s, depth in G.chain.strong])


class TestGrow:
    def test_member_changes_nothing(self):
        G = named_group("Sym(4)")
        table, chain, gens, state = G.elements, G.chain, G.generators, _chain_state(G)
        for g in [parse_cycles("(0 1)(2 3)", 4), Permutation.identity(4)] + list(gens):
            assert G.grow(g) is False
        assert G.generators == gens and G.chain is chain and _chain_state(G) == state
        assert G._elements is table

    def test_non_member_drops_the_table(self):
        G = PermGroup.from_cycles(4, ["(0 1 2 3)"])
        assert G.elements.shape == (4, 4)
        g = parse_cycles("(1 3)", 4)
        assert G.grow(g) is True
        assert G._elements is None and G.generators[-1] == g
        assert np.array_equal(G.elements, PermGroup(4, G.generators).elements)
        assert G.order == 8


def _pinned_bytes(G):
    """(bytes reachable through the .base of G's generators and strong
    generators, the bytes of their own images)."""
    arrays = [g.images for g in G.generators] + [s for s, _ in G.chain.strong]
    return (sum(a.base.nbytes for a in arrays if a.base is not None),
            len(arrays) * G.degree * 4)


class TestGeneratorsOwnTheirImages:
    # a generator grown from a table row is copied, or it keeps the table alive
    @pytest.mark.parametrize("p", [2, 7])
    def test_sylow_from_normalizer_rows(self, jxj, p):
        P = all_sylows(jxj, p).representative
        pinned, own = _pinned_bytes(P)
        assert pinned <= own

    def test_setwise_stabilizer_from_table_rows(self, jxj):
        H = setwise_stabilizer(jxj, PointSet(64, [0, 1, 2, 9]))
        assert 1 < H.order < jxj.order
        pinned, own = _pinned_bytes(H)
        assert pinned <= own

    def test_row_generator_is_copied(self):
        G = named_group("J")
        row = G.elements[1]
        assert row.base is not None
        H = G.subgroup([Permutation._trusted(row)])
        assert H.generators[0].images.base is None
        assert H.generators[0] == Permutation._trusted(row)


@settings(max_examples=60, deadline=None)
@given(small_groups(max_order=5040))
@example(PermGroup.trivial(1))
@example(PermGroup.trivial(2))
@example(PermGroup.trivial(5))
def test_transitive_from_the_chain(G):
    assert G.is_transitive() == (len(G.orbits()) == 1)


class TestOrbits:
    def test_frobenius_on_gf8(self):
        from stabparts import build_field

        F = build_field(2, 3)
        frob = Permutation(F.frobenius_table)
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
        assert len(normalizer(G, G)) == G.order

    def test_c4_in_s4(self):
        G = named_group("Sym(4)")
        H = G.subgroup([parse_cycles("(0 1 2 3)", 4)])
        assert len(normalizer(G, H)) == 8

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


def _blocks_by_definition(G):
    """The block system of the least beta whose least block holding 0 and
    beta is proper, grown from the definition: B takes in each image B^g,
    over all elements g, that meets B without being B."""
    elements = closure(G)
    for beta in range(1, G.degree):
        block = {0, beta}
        grown = True
        while grown:
            grown = False
            for g in elements:
                image = {g[x] for x in block}
                if image & block and image != block:
                    block |= image
                    grown = True
        if len(block) < G.degree:
            return sorted(sorted(b) for b in {frozenset(g[x] for x in block) for g in elements})
    return None


def _block_preserving_group(seed):
    """Random generators that preserve a partition into b blocks of size a,
    the points relabelled at random."""
    rng = random.Random(seed)
    a, b = rng.choice([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)])
    n = a * b
    label = rng.sample(range(n), n)  # position j of block i is point label[i * a + j]
    gens = []
    for _ in range(rng.randint(1, 3)):
        tops = rng.sample(range(b), b)
        images = [0] * n
        for i in range(b):
            within = rng.sample(range(a), a)
            for j in range(a):
                images[label[i * a + j]] = label[tops[i] * a + within[j]]
        gens.append(Permutation(images))
    return PermGroup(n, gens)


def _shift(d):
    return [[int(j == (i + 1) % d) for j in range(d)] for i in range(d)]


def _transvection(d):
    return [[int(i == j or (i, j) == (0, 1)) for j in range(d)] for i in range(d)]


class TestBlocksFromTheChain:
    @settings(max_examples=80, deadline=None)
    @given(small_groups(max_order=720))
    def test_matches_definition(self, G):
        assume(G.is_transitive())
        assert primitivity_blocks(G) == _blocks_by_definition(G)

    def test_relabelled_imprimitive_groups_match_definition(self):
        groups = [G for G in map(_block_preserving_group, range(150)) if G.is_transitive()]
        assert len(groups) > 50
        # the first base point is not always 0, so G_0 is a conjugate of G_b
        assert any(G.chain.levels[0].base_point != 0 for G in groups)
        for G in groups:
            system = primitivity_blocks(G)
            assert system is not None and system == _blocks_by_definition(G)

    def test_agl34_h_without_g_table(self):
        # |G| = 64 * 181440: G's table would take 2.97 GB, H = GL(3,4) is built
        G = group_from_document({"affine": {"p": 2, "k": 2, "dim": 3, "generators": [
            {"matrix": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]},  # 2 is the field's x
            {"matrix": _shift(3)}, {"matrix": _transvection(3)}]}})
        with pytest.raises(ResourceLimit):
            G.elements
        assert point_stabilizer_of_zero(G).order == 181440
        assert is_primitive(G)

    def test_agl62_has_no_blocks(self):
        # GL(6,2) from a cyclic coordinate shift and one transvection
        G = group_from_document({"affine": {"p": 2, "k": 1, "dim": 6, "generators": [
            {"matrix": _shift(6)}, {"matrix": _transvection(6)}]}})
        assert G.degree == 64 and primitivity_blocks(G) is None

    @pytest.mark.parametrize("dihedral", [False, True])
    def test_prime_degree_needs_no_block_search(self, monkeypatch, dihedral):
        # a block's size divides n = 4093, so C_n and D_2n are primitive at once;
        # one orbit search per G_0-orbit would take seconds here
        import stabparts.perms

        n = 4093
        gens = ["(" + " ".join(map(str, range(n))) + ")"]
        if dihedral:
            gens.append("".join(f"({i} {n - i})" for i in range(1, (n + 1) // 2)))
        G = group_from_document({"degree": n, "generators": gens})

        def spy(*args, **kwargs):
            raise AssertionError("orbit search at prime degree")

        monkeypatch.setattr(stabparts.perms, "orbits", spy)
        assert is_primitive(G)
        assert G.order == (2 * n if dihedral else n)

    def test_stabilizer_needs_zero_in_the_first_base_orbit(self):
        G = PermGroup.from_cycles(3, ["(1 2)"])
        with pytest.raises(ValueError, match="orbit of the first base point"):
            point_stabilizer_of_zero(G)


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

    def test_iterates_sorted(self):
        assert list(PointSet(5, [3, 1])) == [1, 3]

    def test_round_trip_at_max_degree(self):
        points = [0, 2047, 4095]
        ps = PointSet(4096, points)
        assert ps.mask == 1 | 1 << 2047 | 1 << 4095
        assert PointSet.from_mask(4096, ps.mask) == ps
        assert (ps.sorted_points(), len(ps)) == (points, 3)
        arr = ps.bool_array()
        assert (arr.dtype, arr.shape) == (np.dtype(bool), (4096,))
        assert np.flatnonzero(arr).tolist() == points
        assert [x in ps for x in (-1, 0, 1, 2047, 4095, 4096)] == [
            False, True, False, True, True, False]

    def test_equal_and_hash_across_constructors(self):
        a, b = PointSet(9, [7, 0, 4, 4]), PointSet.from_mask(9, 1 + 16 + 128)
        assert a == b and hash(a) == hash(b)
        assert a != PointSet(10, [0, 4, 7]) and a != PointSet.from_mask(9, 1 + 16)

    @pytest.mark.parametrize("mask", [-1, 1 << 9])
    def test_from_mask_out_of_range(self, mask):
        with pytest.raises(ValueError, match="out of range"):
            PointSet.from_mask(9, mask)


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
