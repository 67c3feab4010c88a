import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabparts import (
    PermGroup,
    PointSet,
    ResourceLimit,
    all_sylows,
    is_p_concealed,
    named_group,
    orbits,
    setwise_stabilizer,
)
from stabparts.kernels import (
    MAX_SCAN_BITS,
    mark_orbit_unions,
    stabilizer_counts,
    subset_orbit_sizes,
)
from stabparts.sylow import prime_divisors
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
        with pytest.raises(ValueError):
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
