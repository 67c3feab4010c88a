import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabparts import (
    PermGroup,
    PointSet,
    ResourceLimit,
    all_sylows,
    census_histogram,
    classify_moderation,
    is_p_concealed,
    kernels,
    named_group,
    orbits,
    setwise_stabilizer,
)
from stabparts.classify import _orbit_sizes
from stabparts.fields import prime_divisors
from stabparts.kernels import (
    MAX_SCAN_BITS,
    cycle_union_stabilizers,
    mark_orbit_unions,
    stabilizer_counts,
    subset_orbit_sizes,
)
from strategies import small_groups


def _brute_counts(G):
    n = G.degree
    return np.array(
        [
            setwise_stabilizer(G, PointSet.from_mask(n, mask)).order
            for mask in range(1 << n)
        ],
        dtype=np.int64,
    )


class TestStabilizerCounts:
    @pytest.mark.parametrize("name", ["D6", "D10", "C4", "Sym(4)", "AGL(1,5)"])
    def test_matches_brute_force(self, name, zoo):
        G = zoo[name] if name in zoo else named_group(name)
        got = stabilizer_counts(G.elements, G.degree)
        assert np.array_equal(got, _brute_counts(G))

    def test_scan_bound_enforced(self):
        G = named_group("C4")
        with pytest.raises(ResourceLimit):
            stabilizer_counts(G.elements, MAX_SCAN_BITS + 1)

    def test_identity_group(self):
        G = PermGroup.trivial(3)
        got = stabilizer_counts(G.elements, 3)
        assert np.array_equal(got, np.ones(8, dtype=np.int64))


class TestOrbitUnions:
    def test_union_masks_count(self):
        covered = np.zeros(8, dtype=bool)
        mark_orbit_unions(covered, [0b001, 0b110])
        assert np.flatnonzero(covered).tolist() == [0b000, 0b001, 0b110, 0b111]

    def test_marking_matches_enumeration(self):
        orbit_masks = [0b00011, 0b00100, 0b11000]
        covered = np.zeros(32, dtype=bool)
        mark_orbit_unions(covered, orbit_masks)
        expect = np.zeros(32, dtype=bool)
        for s in range(8):
            u = 0
            for j in range(3):
                if (s >> j) & 1:
                    u |= orbit_masks[j]
            expect[u] = True
        assert np.array_equal(covered, expect)


def _coverage(G, p):
    """Subsets fixed by some Sylow p-subgroup, marked conjugate by conjugate.

    The conjugates g^-1 P g are taken over every element g of G, so the
    reference relies on Sylow's conjugacy theorem only, not on a count.
    """
    P = all_sylows(G, p).representative
    covered = np.zeros(1 << G.degree, dtype=bool)
    marked = set()
    for g in G.iter_elements():
        conj = [g.inverse() * h * g for h in P.generators]
        orbit_masks = tuple(sum(1 << x for x in orb) for orb in orbits(conj, G.degree))
        if orbit_masks not in marked:  # the marked unions depend on the orbits only
            marked.add(orbit_masks)
            mark_orbit_unions(covered, list(orbit_masks))
    return covered


class TestSubsetOrbitSizes:
    @settings(max_examples=40, deadline=None)
    @given(small_groups(max_order=5040))
    @example(PermGroup.trivial(3))
    def test_orbit_stabilizer(self, G):
        sizes = subset_orbit_sizes([g.images for g in G.generators], G.degree)
        assert np.array_equal(G.order // sizes, stabilizer_counts(G.elements, G.degree))

    @settings(max_examples=40, deadline=None)
    @given(small_groups(max_order=720), st.data())
    def test_concealment_matches_coverage(self, G, data):
        primes = prime_divisors(G.order)
        if not primes:
            return  # the trivial group has no Sylow subgroups
        p = data.draw(st.sampled_from(primes))
        covered = _coverage(G, p)
        ok, counterexample = is_p_concealed(G, p)
        assert ok == covered.all()
        if not ok:
            assert counterexample.mask == int(np.flatnonzero(~covered)[0])

    @settings(max_examples=40, deadline=None)
    @given(small_groups(max_order=5040))
    def test_fixed_subset_count_matches_element_scan(self, G):
        from stabparts.verify import _count_fixed_subsets

        fixed = stabilizer_counts(G.elements, G.degree) == G.order
        assert _count_fixed_subsets(G, G.degree) == int(fixed.sum())

    def test_bound_checked_before_allocation(self):
        with pytest.raises(ResourceLimit, match="MAX_SCAN_BITS"):
            subset_orbit_sizes([np.arange(MAX_SCAN_BITS + 1)], MAX_SCAN_BITS + 1)

    def test_agl_1_23_at_the_bound(self):
        ok, counterexample = is_p_concealed(named_group("AGL(1,23)"), 2)
        assert not ok and counterexample == PointSet(23, {0, 1, 3})


def _label_route(G):
    return subset_orbit_sizes([g.images for g in G.generators], G.degree)


def _dense(masks, values, n, unlisted):
    """values spread over all 2^n masks, unlisted at every mask not in masks."""
    out = np.full(1 << n, unlisted, dtype=values.dtype)
    out[masks] = values
    return out


# the nine census-workload groups of perfbench, the zoo, and two at n = 23, 24
ROUTE_GROUPS = (
    "Product(C2,AGL(1,5))", "AGL(1,11)", "Product(D6,Sym(4))", "AGL(1,13)",
    "Product(D6,AGL(1,5))", "AGL(1,16)", "Product(Sym(4),Sym(4))", "AGL(1,17)",
    "AGL(1,19)",
    "D6", "D10", "AGL(1,5)", "J", "AGammaL(1,9)", "AGL(2,3)", "Sym(4)", "C4",
    "Product(D6,D6)",
    "AGL(1,23)", "Product(Sym(4),C6)",
)


def _cap(G):
    """The cycle route's cap on unions, as _orbit_sizes sets it."""
    return max(1, len(G.generators)) << G.degree


def _unions(G):
    """The number of cycle unions of G's non-identity elements, sum of 2^c(g)."""
    return sum(1 << len(orbits([g], G.degree)) for g in G.iter_elements()) - (1 << G.degree)


CENSUSES = pytest.mark.parametrize("census", [
    lambda G, p: census_histogram(G, p),
    lambda G, p: is_p_concealed(G, p),
    lambda G, p: classify_moderation(G, p, "exhaustive"),
], ids=["census_histogram", "is_p_concealed", "classify_moderation"])


class TestCycleUnionCounts:
    @settings(max_examples=60, deadline=None)
    @given(small_groups(max_order=128))
    @example(PermGroup.trivial(3))
    @example(PermGroup.from_cycles(2, ["(0 1)"]))
    @example(PermGroup(1, []))
    @example(named_group("Product(D6,D6)"))  # dense: 2^n < unions <= cap
    @example(named_group("D10"))  # dense: 48 unions, 32 masks, cap 64
    @example(named_group("Sym(4)"))  # refused: 104 unions, 6.5 * 2^n, cap 32
    def test_matches_scan_and_label_route(self, G):
        n, cap, unions = G.degree, _cap(G), _unions(G)
        if unions > cap:
            with pytest.raises(ResourceLimit, match=f"^{unions} cycle unions .* {cap}$"):
                cycle_union_stabilizers(G.elements, n, cap)
            return
        masks, stab = cycle_union_stabilizers(G.elements, n, cap)
        if unions > 1 << n:
            assert masks is None and stab.shape == (1 << n,)
            counts = stab
        else:
            assert masks.dtype == np.int32 and (np.diff(masks) > 0).all()
            assert (stab > 1).all()  # a listed mask is fixed by some g != 1
            counts = _dense(masks, stab, n, 1)
        assert np.array_equal(counts, stabilizer_counts(G.elements, n))
        assert np.array_equal(counts, G.order // _label_route(G))

    @settings(max_examples=60, deadline=None)
    @given(small_groups(max_order=5040))
    def test_orbit_sizes_equal_label_route_on_small_groups(self, G):
        (masks, sizes), labels = _orbit_sizes(G), _label_route(G)
        if masks is not None:
            sizes = _dense(masks, sizes, G.degree, G.order)
        assert sizes.dtype == labels.dtype and np.array_equal(sizes, labels)

    @pytest.mark.parametrize("name", ROUTE_GROUPS)
    def test_orbit_sizes_equal_label_route(self, name):
        G = named_group(name)
        (masks, sizes), labels = _orbit_sizes(G), _label_route(G)
        if masks is not None:
            sizes = _dense(masks, sizes, G.degree, G.order)
        assert sizes.dtype == labels.dtype and np.array_equal(sizes, labels)

    @CENSUSES
    def test_agl_1_23_traced_peak(self, census):
        """Under one byte per mask: the census holds only the 94256 masks
        that some g != 1 fixes, not an array over all 2^23."""
        G = named_group("AGL(1,23)")
        G.elements  # the table is built once per group, outside the census
        tracemalloc.start()
        try:
            census(G, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 23

    @pytest.mark.parametrize("n", [9, 10])
    def test_symmetric_groups_build_no_table(self, n):
        G = PermGroup.from_cycles(n, ["(" + " ".join(map(str, range(n))) + ")", "(0 1)"])
        assert sum(census_histogram(G, 2).values()) == 1 << n
        assert G._elements is None


@pytest.fixture
def label_calls(monkeypatch):
    """The degree of every call to the label route, kernels.subset_orbit_sizes."""
    calls = []
    original = kernels.subset_orbit_sizes

    def spy(gens, n):
        calls.append(n)
        return original(gens, n)

    monkeypatch.setattr(kernels, "subset_orbit_sizes", spy)
    return calls


class TestDenseCycleRoute:
    """Cycle unions that outnumber the masks but not the cap are counted into
    one |Stab(S)| per mask, so these censuses never take the label route."""

    @CENSUSES
    @pytest.mark.parametrize("name", ["Product(Sym(4),Sym(4))", "Product(D6,Sym(4))", "Sym(3)"])
    def test_label_route_not_taken(self, name, census, label_calls):
        # Sym(3): 2(|G| - 1) = 10 exceeds 2^3 but not the cap of 16
        G = PermGroup.from_cycles(3, ["(0 1 2)", "(0 1)"]) if name == "Sym(3)" else named_group(name)
        assert 1 << G.degree < _unions(G) <= _cap(G)
        census(G, 3)
        assert label_calls == []

    @CENSUSES
    def test_sym10_takes_the_label_route(self, census, label_calls):
        G = PermGroup.from_cycles(10, ["(0 1 2 3 4 5 6 7 8 9)", "(0 1)"])
        census(G, 2)
        assert label_calls == [10] and G._elements is None

    def test_traced_peak_below_label_route(self):
        G = named_group("Product(Sym(4),Sym(4))")
        G.elements  # the table is built once per group, outside the census
        peaks = []
        for route in (_orbit_sizes, _label_route):
            tracemalloc.start()
            try:
                route(G)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        dense, labels = peaks
        assert dense <= labels


class TestLabelRouteAtScale:
    """C2^10 on 20 points, generated by the transpositions (2i 2i+1).

    An element moving s pairs has 20 - s cycles, so the non-identity cycle
    unions number 2^10 * 3^10 - 2^20, far above the cap of 10 * 2^20, one
    image of the 2^20 masks per generator: the census takes the label route.
    A subset splitting s pairs has |Stab| = 2^(10-s).
    """

    @pytest.fixture(scope="class")
    def G(self):
        return PermGroup.from_cycles(20, [f"({2 * i} {2 * i + 1})" for i in range(10)])

    def test_unions_refused(self, G):
        cap = 10 << 20  # one image of the 2^20 masks per generator
        assert _cap(G) == cap
        with pytest.raises(ResourceLimit, match=f"^{2**10 * 3**10 - 2**20} cycle unions .* {cap}$"):
            cycle_union_stabilizers(G.elements, G.degree, cap)

    def test_takes_the_label_route(self, G, label_calls):
        census_histogram(G, 2)
        assert label_calls == [20]

    def test_census_closed_form(self, G):
        assert census_histogram(G, 2) == {2 ** (10 - s): comb(10, s) << 10
                                          for s in range(11)}

    def test_not_concealed(self, G):
        assert is_p_concealed(G, 2) == (False, PointSet(20, {0}))
