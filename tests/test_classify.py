import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings

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
from stabparts.affine import SemilinearGen, affine_group, group_from_document
from stabparts import classify
from stabparts.classify import (
    ConstructorInapplicable,
    _least_element_of_order,
    _order_p_rows,
    exhaustive_p_parts,
    translations,
)
from stabparts.kernels import MAX_SCAN_BITS, stabilizer_counts
from stabparts.perms import ResourceLimit
from stabparts.fields import prime_divisors
from stabparts.census import randomized_witness_from_z
from stabparts.sylow import find_sylow
from strategies import (AFFINE_CATALOG, closure, relabelled_document, small_groups, symmetric,
                        vector_add, wreath)

RECIPES = ("translation", "regular-vector", "regular-triple", "metacyclic", "orbit-union")

# The stage that decides classify_moderation (constructive, seed 0) for every
# case (G, p) of these catalog groups with p^2 | |G|.  The groups that reach
# q-orbits have no regular normal elementary abelian subgroup, so they are
# not V . H: cyclic groups of prime-power degree, and products over two
# different fields.  The q-orbit draws depend on the labels, as z does.
# Sym(4), written as cycles, is AGL(2,2): its translation W = {0, 1} has
# Stab(W) = <(0 1), (2 3)>, 2-part 4 of 8.
PINNED_STAGES = {
    ("AGL(1,4)", 2): "translation",
    ("AGL(1,5)", 2): "regular-vector",
    ("AGL(1,8)", 2): "translation",
    ("AGL(1,9)", 2): "regular-vector",
    ("AGL(1,9)", 3): "translation",
    ("AGL(1,13)", 2): "regular-vector",
    ("AGL(1,16)", 2): "translation",
    ("AGL(1,17)", 2): "regular-vector",
    ("AGL(1,19)", 3): "orbit-union",
    ("AGL(1,25)", 2): "regular-vector",
    ("AGL(1,25)", 5): "translation",
    ("AGL(1,27)", 3): "translation",
    ("AGL(1,32)", 2): "translation",
    ("J", 2): "translation",
    ("AGammaL(1,9)", 2): "metacyclic",
    ("AGammaL(1,9)", 3): "translation",
    ("AGL(2,3)", 2): "metacyclic",
    ("AGL(2,3)", 3): "translation",
    ("Product(D6,D6)", 2): "regular-vector",
    ("Product(D6,D6)", 3): "translation",
    ("Product(D10,D10)", 2): "regular-vector",
    ("Product(D10,D10)", 5): "translation",
    ("Product(J,J)", 2): "translation",
    ("Product(J,J)", 3): "orbit-union",
    ("Product(J,J)", 7): "orbit-union",
    ("Product(AGammaL(1,9),D6)", 2): "metacyclic",
    ("Product(AGammaL(1,9),D6)", 3): "translation",
    ("Sym(4)", 2): "translation",
    ("C4", 2): "q-orbits",
    ("C8", 2): "q-orbits",
    ("C9", 3): "q-orbits",
    ("Product(D6,D10)", 2): "q-orbits",
    ("Product(AGL(1,5),D6)", 2): "q-orbits",
}

# The witnesses of the q-orbits cases at seeds 0, 1 and 2, from the unions of
# the orbits of z, the least element of order p, drawn by seed
Q_ORBITS_WITNESSES = {
    ("C4", 2): [[0, 2], [0, 2], [0, 2]],
    ("C8", 2): [[2, 3, 6, 7], [0, 3, 4, 7], [2, 3, 6, 7]],
    ("C9", 3): [[2, 5, 8], [0, 3, 6], [2, 5, 8]],
    ("Product(D6,D10)", 2): [[2, 3, 7, 12]] * 3,
    ("Product(AGL(1,5),D6)", 2): [[2, 3, 5, 7, 8, 10, 11, 12, 14],
                                  [0, 3, 4, 5, 8, 11, 12, 13, 14], [2, 3, 7, 10, 12]],
}


@pytest.fixture(scope="module")
def metacyclic_group():
    # V = GF(11)^2 acted on by D20 = <diag(3, 3^-1), coordinate swap, -I>;
    # satisfies the p = 2 reduction conditions, so the eigenvector recipe
    # is guaranteed to produce a stabilizer of 2-part exactly 2.
    gens = (
        SemilinearGen(((3, 0), (0, 4)), 0, ()),
        SemilinearGen(((0, 1), (1, 0)), 0, ()),
        SemilinearGen(((10, 0), (0, 10)), 0, ()),
    )
    return affine_group(build_field(11, 1), 2, gens, name="V(11^2).D20")


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

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="point set degree mismatch"):
            stab_p_part(named_group("AGL(1,5)"), PointSet(6, [0, 1]), 2)


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


def test_scan_bound_checked_before_group_order():
    # Sym(40): the bound answers before a stabilizer chain is built
    cycle = "(" + " ".join(map(str, range(40))) + ")"
    for scan in (census_histogram, is_p_concealed):
        G = PermGroup.from_cycles(40, [cycle, "(0 1)"])
        with pytest.raises(ResourceLimit, match="MAX_SCAN_BITS"):
            scan(G, 2)
        assert G._chain is None


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


@settings(max_examples=40, deadline=None)
@given(small_groups(max_order=720))
@example(named_group("C4"))
@example(named_group("Sym(4)"))
# on the cycle route: the least counterexample at p = 2 is {1}, fixed by no
# g != 1 and so unlisted, below the listed ones {1, 2}, {0, 1, 2} and {3, 4}
@example(PermGroup.from_cycles(5, ["(1 4 2 3)"]))
# on the cycle route: the least counterexample and the exhaustive witness is
# {0}, fixed by (2 4)(3 5); the masks with 1 < part < 4 are all listed
@example(PermGroup.from_cycles(6, ["(0 1)(2 3 4 5)"]))
def test_census_matches_element_scan(G):
    """The histogram, the exhaustive verdict with its least witness, the
    concealed flag and is_p_concealed's least counterexample against the
    element scan kernels.stabilizer_counts."""
    counts = stabilizer_counts(G.elements, G.degree)
    for p in prime_divisors(G.order):
        gp = p_part(G.order, p)
        parts = [p_part(int(c), p) for c in counts]
        assert census_histogram(G, p) == dict(sorted(Counter(parts).items()))
        uncovered = [mask for mask, part in enumerate(parts) if part < gp]
        concealed, least = is_p_concealed(G, p)
        assert concealed == (not uncovered)
        assert least == (PointSet.from_mask(G.degree, uncovered[0]) if uncovered else None)
        report = classify_moderation(G, p, "exhaustive")
        moderate = [mask for mask, part in enumerate(parts) if 1 < part < gp]
        if moderate:
            assert report.status == "MODERATE"
            assert report.witness.mask == moderate[0]
            assert report.stab_p_part == parts[moderate[0]]
        else:
            assert report.status == "EXTREME"
            assert report.concealed == all(part == gp for part in parts)


def linear_part(G):
    """H = Stab_G(0) as a sorted element table, from its own chain: the
    recipes take the rows of G's table that fix 0, which are equal."""
    return point_stabilizer_of_zero(G).elements


def _regular_pair_by_scan(H):
    """The least nonzero (v, w) that no non-identity row of H fixes both."""
    n, rows = H.shape[1], H[1:].tolist()
    return next(((v, w) for v in range(1, n) for w in range(1, n)
                 if not any(h[v] == v and h[w] == w for h in rows)), None)


class TestRegularOrbits:
    def test_signs_on_gf5(self):
        assert regular_orbit_vector(linear_part(named_group("D10"))) == 1

    def test_diagonal_signs_on_gf3_squared(self):
        H = linear_part(named_group("Product(D6,D6)"))
        pair = regular_orbit_pair(H)
        assert pair is not None
        v, w = pair
        # brute-force: no non-identity element fixes both
        for h in H[1:]:
            assert not (h[v] == v and h[w] == w)

    def test_gammal18_has_no_regular_vector(self):
        # GL(1,8) . Frobenius has order 21 > 7 nonzero points
        H = linear_part(named_group("J"))
        assert H.shape[0] == 21
        assert regular_orbit_vector(H) is None

    def test_pair_least_in_point_order(self):
        assert regular_orbit_pair(linear_part(named_group("D10"))) == (1, 1)

    def test_pair_on_2187_points(self):
        # 2187^2 pairs: the scan is bounded by the table, not by a pair count.
        # The involution fixes 0..9 and the middle point 1098 of the reversed
        # rest, so v = 1 pairs first with w = 10.
        n = 3**7
        g = np.arange(n)
        g[10:] = g[10:][::-1]
        H = np.stack([np.arange(n), g])
        assert regular_orbit_pair(H) == _regular_pair_by_scan(H) == (1, 10)


@settings(max_examples=60, deadline=None)
@given(small_groups(max_order=720))
@example(named_group("AGL(2,3)"))
@example(named_group("J"))
@example(named_group("Product(D6,D6)"))
@example(named_group("C4"))  # regular: H is trivial and the vector is 0
def test_h_is_g_rows_fixing_zero(G):
    """On transitive G: the rows of G's table that fix {0} are G_0's table
    built from its own chain, and the table recipes' regular vector and
    pair are the orbit definition and the brute-force pair scan."""
    if not G.is_transitive():
        return
    n = G.degree
    H0 = point_stabilizer_of_zero(G)
    H = G.elements[classify._stabilizing_rows(G, PointSet(n, [0]))]
    assert np.array_equal(H, H0.elements)
    regular = [orbit[0] for orbit in H0.orbits() if len(orbit) == H0.order]
    assert regular_orbit_vector(H) == (regular[0] if regular else None)
    assert regular_orbit_pair(H) == _regular_pair_by_scan(H)


class TestTranslations:
    @pytest.mark.parametrize("name", AFFINE_CATALOG)
    def test_catalog_rows_are_the_spec_translations(self, name):
        self._check_translations(named_group(name), *AFFINE_CATALOG[name])

    @pytest.mark.parametrize("p, k, dim, matrices", [
        (2, 2, 1, ()),  # GF(4) alone
        (3, 1, 2, (((2, 0), (0, 2)),)),  # GF(3)^2 . <-1>
        (11, 1, 2, (((3, 0), (0, 4)), ((0, 1), (1, 0)), ((10, 0), (0, 10)))),  # V(11^2).D20
    ])
    def test_built_affine_rows_are_the_spec_translations(self, p, k, dim, matrices):
        G = affine_group(build_field(p, k), dim, tuple(map(SemilinearGen, matrices)))
        self._check_translations(G, p, k, dim)

    @staticmethod
    def _check_translations(G, p, k, dim):
        # row v is t_v, the translation x -> x + v
        points = np.arange(G.degree)
        assert translations(G).tolist() == vector_add(p, k, dim, points, points[:, None])

    @pytest.mark.parametrize("G", [
        named_group("Product(D6,D10)"), named_group("Product(AGL(1,5),D6)"),
        named_group("C4"), named_group("C8"), named_group("C9"), wreath(symmetric(5)),
    ], ids=["D6xD10", "AGL(1,5)xD6", "C4", "C8", "C9", "Sym(5)wr2"])
    def test_no_translations(self, G):
        assert translations(G) is None

    def test_nonabelian_closure_is_rejected(self):
        # D8 acting regularly on 8 points: two reflections close to all of D8
        D8 = PermGroup.from_cycles(8, ["(0 2)(1 7)(3 6)(4 5)", "(0 1)(2 5)(3 7)(4 6)"])
        assert (D8.order, translations(D8)) == (8, None)

    def test_closure_that_is_not_semiregular_is_skipped(self):
        # with t_1, the least candidate for v = 2 closes to C2^3 with two
        # orbits of size 4; the next candidate closes to C2^2, which grows to V
        G = PermGroup.from_cycles(8, ["(0 2)(1 6)(3 4)(5 7)", "(0 6)(1 2)", "(3 7)(4 5)",
                                      "(0 4)(1 3)(2 7)(5 6)"])
        assert (G.order, translations(G)[:, 0].tolist()) == (16, list(range(8)))

    def test_order_rules_out_sym5_wreath_without_its_table(self):
        # 28800 does not divide 25 |GL(2,5)| = 12000
        G = wreath(symmetric(5))
        assert translations(G) is None and G._elements is None


@settings(max_examples=60, deadline=None)
@given(small_groups(max_order=720))
@example(named_group("Sym(4)"))
@example(named_group("J"))
@example(named_group("C8"))
@example(PermGroup.from_cycles(8, ["(0 2)(1 7)(3 6)(4 5)", "(0 1)(2 5)(3 7)(4 6)"]))
@example(affine_group(build_field(2, 2), 1))
def test_translations_are_regular_normal_elementary_abelian(G):
    """translations never raises, and returns None or the rows of a regular,
    normal, elementary abelian subgroup of G, row v taking 0 to v."""
    T = translations(G)
    if T is None:
        return
    n = G.degree
    r = prime_divisors(n)[0]
    rows = [tuple(map(int, row)) for row in T]
    assert [t[0] for t in rows] == list(range(n))  # regular
    assert set(rows) <= set(closure(G))
    identity = tuple(range(n))
    for a in rows:
        power = identity
        for _ in range(r):
            power = tuple(a[x] for x in power)
        assert power == identity  # order r, or 1 for t_0
        for b in rows:  # a subgroup, and abelian
            assert tuple(b[x] for x in a) == tuple(a[x] for x in b) in rows
    for g in G.generators:  # normal: g^-1 t g takes x^g to x^(tg)
        for a in rows:
            conj = [0] * n
            for x in range(n):
                conj[int(g.images[x])] = int(g.images[a[x]])
            assert tuple(conj) in rows


class TestTranslationWitness:
    def test_gf9_with_negation(self):
        negation = SemilinearGen(((2, 0), (0, 2)), 0, ())
        G = affine_group(build_field(3, 1), 2, (negation,))  # order 18
        delta = translation_witness(G, 3, translations(G))
        assert delta.sorted_points() == [0, 1, 2]
        part = stab_p_part(G, delta, 3)
        assert 3 <= part < p_part(G.order, 3)

    def test_gf4_least_subgroup(self):
        G = affine_group(build_field(2, 2), 1)
        assert translation_witness(G, 2, translations(G)).sorted_points() == [0, 1]

    def test_v_equal_p_rejected(self):
        with pytest.raises(ConstructorInapplicable):
            G = named_group("D6")
            translation_witness(G, 3, translations(G))

    def test_agl23_witness(self):
        G = named_group("AGL(2,3)")
        delta = translation_witness(G, 3, translations(G))
        assert delta.sorted_points() == [0, 1, 2]
        part = stab_p_part(G, delta, 3)
        assert 1 < part < p_part(G.order, 3)

    def test_witness_is_an_additive_subgroup(self, zoo):
        for name, G in zoo.items():
            if name not in AFFINE_CATALOG:
                continue
            p = AFFINE_CATALOG[name][0]
            if G.degree == p:
                continue
            delta = set(translation_witness(G, p, translations(G)))
            assert len(delta) == p, name
            sums = {vector_add(*AFFINE_CATALOG[name], a, b) for a in delta for b in delta}
            assert sums == delta, name

    def test_wrong_characteristic_rejected(self):
        G = named_group("AGL(2,3)")
        with pytest.raises(ConstructorInapplicable):
            translation_witness(G, 2, translations(G))


class TestSubgroupsAreNotAffine:
    """A subgroup of V . H need not be V' . H' for any V': recognition reads
    each group afresh, so a subgroup has recipes only when it has its own
    regular normal elementary abelian subgroup."""

    def test_row_stabilizer_of_jxj(self, jxj):
        R = setwise_stabilizer(jxj, PointSet(64, range(8)))  # Stab_J(0) x J
        assert (R.order, R.is_transitive(), translations(R)) == (3528, False, None)
        report = classify_moderation(R, 2)
        assert report.status == "MODERATE" and report.stage not in RECIPES
        assert translations(find_sylow(R, 2)) is None

    def test_sylow_3_of_agl23(self):
        # P = V . <a transvection>, and V = C3^2 is regular and normal in P
        P = find_sylow(named_group("AGL(2,3)"), 3)
        T = translations(P)
        assert (P.order, T[:, 0].tolist()) == (27, list(range(9)))
        report = classify_moderation(P, 3)
        assert (report.status, report.stage) == ("MODERATE", "translation")
        assert (report.stab_p_part, report.group_p_part) == (9, 27)


class TestP2RegularWitness:
    def test_triple_shape(self):
        G = named_group("Product(D6,D6)")
        gamma = p2_regular_witness(G, 2, linear_part(G))
        assert len(gamma) == 3
        assert 0 in gamma

    def test_verifies_on_d6xd6(self):
        G = named_group("Product(D6,D6)")
        gamma = p2_regular_witness(G, 2, linear_part(G))
        assert stab_p_part(G, gamma, 2) == 2

    def test_vt_differs_from_v(self):
        # regularity forces vt != v for any involution t
        G = named_group("Product(D6,D6)")
        gamma = p2_regular_witness(G, 2, linear_part(G))
        assert len(gamma) == 3

    def test_no_regular_vector(self):
        with pytest.raises(ConstructorInapplicable):
            G = named_group("J")
            p2_regular_witness(G, 2, linear_part(G))

    def test_odd_order_h(self):
        # H = C3 in AGL(1,4) has a regular orbit but no involution
        G = named_group("AGL(1,4)")
        with pytest.raises(ConstructorInapplicable, match="H has no involution"):
            p2_regular_witness(G, 2, linear_part(G))

    def test_requires_p_two(self):
        # D6 x D6 has its witness at p = 2; at p = 3 the guard refuses it
        G = named_group("Product(D6,D6)")
        with pytest.raises(ConstructorInapplicable, match="specific to p = 2"):
            p2_regular_witness(G, 3, linear_part(G))


class TestMetacyclicWitness:
    def test_shape(self, metacyclic_group):
        G = metacyclic_group
        gamma = metacyclic_witness(G, 2, linear_part(G), translations(G))
        assert len(gamma) == 4
        assert 0 in gamma

    def test_stab_two_part_exactly_two(self, metacyclic_group):
        G = metacyclic_group
        gamma = metacyclic_witness(G, 2, linear_part(G), translations(G))
        stab = setwise_stabilizer(G, gamma)
        assert p_part(stab.order, 2) == 2
        assert p_part(G.order, 2) == 4

    def test_u_stabilizes_by_construction(self, metacyclic_group):
        G = metacyclic_group
        gamma = metacyclic_witness(G, 2, linear_part(G), translations(G))
        stab = setwise_stabilizer(G, gamma)
        assert any(g.order() == 2 for g in stab.iter_elements())

    def test_inapplicable_without_eigenvectors(self):
        with pytest.raises(ConstructorInapplicable):
            G = named_group("D6")
            metacyclic_witness(G, 2, linear_part(G), translations(G))

    def test_requires_p_two(self, metacyclic_group):
        # the group that has a witness at p = 2 is refused at p = 3
        G = metacyclic_group
        with pytest.raises(ConstructorInapplicable, match="specific to p = 2"):
            metacyclic_witness(G, 3, linear_part(G), translations(G))


class TestOrbitWitnessOddP:
    def test_agl_1_19_at_3(self):
        G = named_group("AGL(1,19)")
        candidates = orbit_witness_odd_p(G, 3, linear_part(G), translations(G))
        sizes = [len(c) for c in candidates]
        # p+1 when the orbits coincide, else 2p+1 and the fallback
        assert sizes in ([4], [7, 5])
        found = [stab_p_part(G, c, 3) for c in candidates]
        assert any(1 < part < 9 for part in found)

    def test_requires_odd_p(self):
        with pytest.raises(ConstructorInapplicable):
            G = named_group("Product(D6,D6)")
            orbit_witness_odd_p(G, 2, linear_part(G), translations(G))

    def test_no_order_p_element(self):
        with pytest.raises(ConstructorInapplicable):
            G = named_group("AGammaL(1,9)")
            orbit_witness_odd_p(G, 7, linear_part(G), translations(G))


class TestCandidateStream:
    @pytest.mark.parametrize("name, p", list(PINNED_STAGES))
    def test_deciding_stage(self, name, p):
        G = named_group(name)
        report = classify_moderation(G, p)
        assert (report.status, report.stage) == ("MODERATE", PINNED_STAGES[name, p])
        assert stab_p_part(G, report.witness, p) == report.stab_p_part
        assert 1 < report.stab_p_part < report.group_p_part

    def test_every_case_is_pinned(self):
        for name in {name for name, _ in PINNED_STAGES}:
            order = named_group(name).order
            squared = {p for p in prime_divisors(order) if order % (p * p) == 0}
            assert squared == {p for n, p in PINNED_STAGES if n == name}, name

    @pytest.mark.parametrize("name, p, asked", [
        ("AGL(1,5)", 2, [2]), ("AGL(1,19)", 3, []),
    ])
    def test_regular_vector_only_at_two(self, monkeypatch, name, p, asked):
        # at odd p, {0, v} with v regular for H has |Stab| <= 2: p-part 1
        recipe, calls = classify.regular_vector_witness, []
        monkeypatch.setattr(classify, "regular_vector_witness",
                            lambda G, p, H: calls.append(p) or recipe(G, p, H))
        report = classify_moderation(named_group(name), p)
        assert report.stage == PINNED_STAGES[name, p]
        assert calls == asked

    @pytest.mark.parametrize("name, p", list(PINNED_STAGES))
    def test_relabelling_keeps_verdict_and_stage(self, name, p):
        # q-orbit draws depend on the labels, so only recipe stages must stay
        G = named_group(name)
        census = G.degree <= MAX_SCAN_BITS
        histogram = census_histogram(G, p) if census else None
        for seed in range(3):
            R = group_from_document(relabelled_document(G, seed))
            report = classify_moderation(R, p)
            assert report.status == "MODERATE", seed
            if PINNED_STAGES[name, p] in RECIPES:
                assert report.stage == PINNED_STAGES[name, p], seed
            assert stab_p_part(R, report.witness, p) == report.stab_p_part
            assert 1 < report.stab_p_part < report.group_p_part
            if census:
                assert census_histogram(R, p) == histogram, seed

    @pytest.mark.parametrize("name, p", [(n, p) for (n, p), stage in PINNED_STAGES.items()
                                         if stage == "q-orbits"])
    def test_q_orbits_draws_are_prop31s(self, name, p):
        # the stage is census.randomized_witness_from_z on z, the least element
        # of order p in G's table
        G = named_group(name)
        z = _least_of_order_by_loop(G, p)
        for seed in range(3):
            report = classify_moderation(G, p, seed=seed)
            assert report.stage == "q-orbits", seed
            assert report.witness == randomized_witness_from_z(G, p, z, seed), seed
            assert report.witness.sorted_points() == Q_ORBITS_WITNESSES[name, p][seed]

    @pytest.mark.parametrize("G, p", [
        (wreath(symmetric(5)), 5), (named_group("Product(C9,C3)"), 3),
        (named_group("Product(C4,C7)"), 2), (named_group("Product(C8,C8)"), 2),
    ], ids=["Sym(5)wr2", "Product(C9,C3)", "Product(C4,C7)", "Product(C8,C8)"])
    def test_q_orbits_past_the_scan_bound(self, G, p):
        # n > MAX_SCAN_BITS and no recipe applies: the census would refuse
        assert G.degree > MAX_SCAN_BITS
        report = classify_moderation(G, p)
        assert (report.status, report.stage) == ("MODERATE", "q-orbits")
        assert stab_p_part(G, report.witness, p) == report.stab_p_part
        assert 1 < report.stab_p_part < report.group_p_part

    @pytest.mark.parametrize("name", ["AGammaL(1,9)", "AGL(2,3)", "AGL(1,19)",
                                      "Product(D6,D6)", "Sym(4)"])
    def test_h_built_at_most_once(self, monkeypatch, name):
        # H is a slice of G's table: the only tables built are G's and V's
        built = []
        enumerate_ = PermGroup._enumerate
        monkeypatch.setattr(PermGroup, "_enumerate",
                            lambda G: built.append(G.order) or enumerate_(G))

        def walked(self):
            raise AssertionError("a recipe walked the elements one by one")

        monkeypatch.setattr(PermGroup, "iter_elements", walked)
        order = named_group(name).order
        for p in prime_divisors(order):
            G = named_group(name)
            built.clear()
            classify_moderation(G, p)
            tables = list(built)
            if order % (p * p):  # |G|_p = p: no recipe runs, the census may read G's
                assert tables in ([], [order]), p
                continue
            # translations builds G's table, then V's (|V| = n) for V . H
            affine = translations(G) is not None
            assert tables == [order] + [G.degree] * affine, p


def _least_of_order_by_loop(H, p):
    return next((g for g in H.iter_elements() if g.order() == p), None)


def _metacyclic_by_loop(G, H, space):
    """The least noncentral involution u with a fixed and a negated nonzero
    point of the space (p, k, dim), walked one element and one point at a time."""
    def neg(x):
        return next(y for y in range(G.degree) if vector_add(*space, x, y) == 0)

    for u in H.iter_elements():
        if u.order() != 2 or all(u * h == h * u for h in H.generators):
            continue
        w = next((x for x in range(1, G.degree) if u(x) == x), None)
        v = next((x for x in range(1, G.degree) if u(x) == neg(x) != x), None)
        if w is not None and v is not None:
            return sorted({0, w, v, neg(v)})
    return None


class TestTablesMatchElementLoops:
    AFFINE = ("D10", "AGL(1,5)", "AGL(1,9)", "AGL(1,19)", "J", "AGammaL(1,9)",
              "AGL(2,3)", "Product(D6,D6)", "Product(D10,D10)")

    @pytest.mark.parametrize("name", AFFINE)
    def test_order_p_mask(self, name):
        G = named_group(name)
        H = point_stabilizer_of_zero(G)
        for p in (2, 3, 5, 7):
            mask = _order_p_rows(H.elements, p)
            assert mask.tolist() == [g.order() == p for g in H.iter_elements()]
            assert _least_element_of_order(H.elements, p) == _least_of_order_by_loop(H, p)

    @pytest.mark.parametrize("name", AFFINE)
    def test_h_and_regular_vector_match_g_table(self, name):
        G = named_group(name)
        H = point_stabilizer_of_zero(G)
        zero = PointSet(G.degree, [0])
        assert np.array_equal(H.elements, G.elements[classify._stabilizing_rows(G, zero)])
        free = np.flatnonzero((H.elements[1:] != np.arange(G.degree)).all(axis=0))
        assert regular_orbit_vector(H.elements) == (int(free[0]) if free.size else None)

    @pytest.mark.parametrize("name", AFFINE)
    def test_metacyclic_choice(self, name):
        self._check_metacyclic(named_group(name), AFFINE_CATALOG[name])

    def test_metacyclic_choice_on_d20(self, metacyclic_group):
        self._check_metacyclic(metacyclic_group, (11, 1, 2))

    @staticmethod
    def _check_metacyclic(G, space):
        H = point_stabilizer_of_zero(G)
        try:
            table = metacyclic_witness(G, 2, H.elements, translations(G)).sorted_points()
        except ConstructorInapplicable:
            table = None
        assert table == _metacyclic_by_loop(G, H, space)

    @pytest.mark.parametrize("name", AFFINE)
    def test_negation(self, name):
        # -v is the point that t_v takes to 0
        neg = translations(named_group(name)).argmin(axis=1)
        assert vector_add(*AFFINE_CATALOG[name], np.arange(neg.size), neg) == [0] * neg.size


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
