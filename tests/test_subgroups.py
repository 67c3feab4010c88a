"""Subgroups built from their element rows, against per-element definitions."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabparts import (
    PermGroup,
    PointSet,
    normalizer,
    p_part,
    setwise_stabilizer,
    stab_p_part,
)
from stabparts.kernels import subset_orbit_sizes
from stabparts.sylow import center
from strategies import small_groups

masks = st.integers(0, (1 << 8) - 1)
indices = st.integers(0, 10**6)


def _rows(G, member):
    """The rows of G.elements whose permutation g satisfies member(g)."""
    return G.elements[np.array([member(g) for g in G.iter_elements()], dtype=bool)]


def _subset(G, mask):
    return PointSet.from_mask(G.degree, mask % (1 << G.degree))


@settings(max_examples=40, deadline=None)
@given(small_groups(max_order=5040), masks)
@example(PermGroup.trivial(3), 0b101)
def test_setwise_stabilizer_is_the_row_filter(G, mask):
    S = _subset(G, mask)
    expected = _rows(G, lambda g: S.image(g) == S)
    assert np.array_equal(setwise_stabilizer(G, S).elements, expected)


@settings(max_examples=40, deadline=None)
@given(small_groups(max_order=5040), masks)
@example(PermGroup.trivial(3), 0b101)
def test_few_generators_regenerate_the_rows(G, mask):
    S = _subset(G, mask)
    H = G.subgroup_from_rows(_rows(G, lambda g: S.image(g) == S))
    assert np.array_equal(PermGroup(G.degree, H.generators).elements, H.elements)
    if H is not G:  # all of G's rows give back G with its own generators
        assert 1 << len(H.generators) <= H.order


@settings(max_examples=40, deadline=None)
@given(small_groups(max_order=5040), masks)
@example(PermGroup.trivial(3), 0b101)
def test_stab_p_part_from_orbit_size(G, mask):
    S = _subset(G, mask)
    size = int(subset_orbit_sizes([g.images for g in G.generators], G.degree)[S.mask])
    for p in (2, 3, 5, 7):
        assert stab_p_part(G, S, p) == p_part(G.order, p) // p_part(size, p)


@settings(max_examples=40, deadline=None)
@given(small_groups(max_order=720), masks, indices)
@example(PermGroup.trivial(3), 0b101, 0)
def test_normalizer_centralizer_center_by_definition(G, mask, index):
    elems = list(G.iter_elements())
    g = elems[index % len(elems)]
    for H in (setwise_stabilizer(G, _subset(G, mask)), G.subgroup([g])):
        keys = {h._key for h in H.iter_elements()}
        expected = _rows(G, lambda x: {(x.inverse() * h * x)._key
                                       for h in H.iter_elements()} == keys)
        assert np.array_equal(normalizer(G, H).elements, expected)
    expected = _rows(G, lambda x: all(x * y == y * x for y in elems))
    assert np.array_equal(center(G).elements, expected)
