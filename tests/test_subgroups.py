"""Subgroups read off their element rows, against per-element definitions."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabparts import (
    PermGroup,
    Permutation,
    PointSet,
    group_from_document,
    named_group,
    normalizer,
    orbits,
    p_part,
    setwise_stabilizer,
    stab_p_part,
)
from stabparts.classify import _stabilizing_rows
from stabparts.kernels import subset_orbit_sizes
from stabparts import perms
from stabparts.perms import StabilizerChain, centralizing_rows
from strategies import closure, small_groups

masks = st.integers(0, (1 << 8) - 1)
indices = st.integers(0, 10**6)


def _rows(G, member):
    """The rows of G.elements whose permutation g satisfies member(g)."""
    return G.elements[np.array([member(g) for g in G.iter_elements()], dtype=bool)]


def _subset(G, mask):
    return PointSet.from_mask(G.degree, mask % (1 << G.degree))


def _full_row_scan(G, S):
    """Indices of the rows g of G.elements with S[g[x]] == S[x] for every x."""
    mask = S.bool_array()
    return np.flatnonzero((mask[G.elements] == mask[np.newaxis, :]).all(axis=1))


def _cells(cells):
    """Points (a, b) of J x J, i.e. a * 8 + b."""
    return PointSet(64, [a * 8 + b for a, b in cells])


ROW = [(0, b) for b in range(8)]
J_GEN = named_group("J").generators[0].images
# subsets of J x J and the orders of their stabilizers
JXJ_SUBSETS = {
    "row": (ROW, 3528),
    "row+point": (ROW + [(3, 5)], 63),
    "graph": ([(x, int(J_GEN[x])) for x in range(8)], 168),
    "row+column": (ROW + [(a, 5) for a in range(1, 8)], 441),
    "3 rows": ([(a, b) for a in (0, 2, 6) for b in range(8)], 504),
    "2 rows": ([(a, b) for a in (1, 4) for b in range(8)], 1008),
    "empty": ([], 28224),
    "all": ([(a, b) for a in range(8) for b in range(8)], 28224),
    "5 rows": ([(a, b) for a in range(5) for b in range(8)], 504),  # the complement side
}


@pytest.mark.parametrize("label", list(JXJ_SUBSETS))
def test_jxj_filter_is_the_full_row_scan(jxj, label):
    cells, order = JXJ_SUBSETS[label]
    S = _cells(cells)
    rows = _stabilizing_rows(jxj, S)
    assert np.array_equal(rows, _full_row_scan(jxj, S))
    assert rows.size == order
    assert (np.diff(rows) > 0).all()


@pytest.mark.parametrize("label", list(JXJ_SUBSETS))
def test_jxj_setwise_stabilizer_is_grown_from_its_rows(jxj, label, monkeypatch):
    cells, order = JXJ_SUBSETS[label]
    S = _cells(cells)
    sifted = []
    add = StabilizerChain.add_generator
    monkeypatch.setattr(StabilizerChain, "add_generator",
                        lambda chain, g: sifted.append(g) or add(chain, g))
    H = setwise_stabilizer(jxj, S)
    assert H.order == order
    assert (H is jxj) == (order == jxj.order)
    assert all(S.image(g) == S for g in H.generators)
    if H is not jxj:  # no row is sifted once the order is reached
        assert sifted[-1] is H.generators[-1]
    assert np.array_equal(H.elements, jxj.elements[_stabilizing_rows(jxj, S)])


def _seeded_jxj_subset(jxj, kind, seed):
    """A union of orbits of z, the order-3 generator acting on the first
    factor of J x J (every orbit kept with probability 1/2), or a random
    subset of 1..63 points."""
    rng = random.Random(seed)
    if kind == "z-orbits":
        z = jxj.generators[4]
        return PointSet(64, [x for orb in orbits([z], 64) if rng.random() < 0.5 for x in orb])
    return PointSet(64, rng.sample(range(64), rng.randint(1, 63)))


@pytest.mark.parametrize("kind, seed", [("z-orbits", s) for s in range(3)]
                         + [("random", s) for s in range(8)])
def test_jxj_filter_on_seeded_subsets(jxj, kind, seed):
    # the point-major filter against the definitional scan at n = 64
    S = _seeded_jxj_subset(jxj, kind, seed)
    rows = _stabilizing_rows(jxj, S)
    assert np.array_equal(rows, _full_row_scan(jxj, S))
    if kind == "z-orbits":
        assert jxj.generators[4].order() == 3 and rows.size % 3 == 0


def test_jxj_filter_peak_below_the_table(jxj):
    # one widened column, 28224 * 8 bytes, at a time; a widened copy of the
    # whole table would take 8 times the table's 1.72 MiB
    S = PointSet(64, random.Random(0).sample(range(64), 32))
    jxj.elements  # the table is built once per group, outside the filter
    tracemalloc.start()
    try:
        rows = _stabilizing_rows(jxj, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rows, _full_row_scan(jxj, S))
    assert peak < jxj.elements.nbytes


@pytest.fixture(scope="module")
def agl17xc17():
    """AGL(1,17) x C17 on 289 points, |G| = 4624: a uint16 table of 2.6 MB."""
    G = group_from_document({"product": [{"named": "AGL(1,17)"}, {"named": "C17"}]})
    assert G.elements.dtype == np.uint16 and G.elements.shape == (4624, 289)
    return G


def _seeded_subset_of_289(G, kind, seed):
    """A random subset of 1..288 points, or a union of the orbits of the C17
    factor's 17-cycle (every orbit kept with probability 1/2)."""
    rng = random.Random(seed)
    if kind == "c17-orbits":
        c = G.generators[2]
        assert c.order() == 17
        return PointSet(289, [x for orb in orbits([c], 289) if rng.random() < 0.5 for x in orb])
    return PointSet(289, rng.sample(range(289), rng.randint(1, 288)))


# subsets of 289 points and the orders of their stabilizers
UINT16_SUBSETS = {
    "empty": ([], 4624),
    "complement": ([x for x in range(289) if x not in (0, 17)], 2),  # |S| > n/2
    "pair": ([0, 17], 2),
    "triple": ([0, 1, 3], 16),
}


@pytest.mark.parametrize("kind, seed", [("random", s) for s in range(4)]
                         + [("c17-orbits", s) for s in range(2)]
                         + [(label, None) for label in UINT16_SUBSETS])
def test_uint16_filter_is_the_full_row_scan(agl17xc17, kind, seed):
    if kind in UINT16_SUBSETS:
        points, order = UINT16_SUBSETS[kind]
        S = PointSet(289, points)
    else:
        S, order = _seeded_subset_of_289(agl17xc17, kind, seed), None
    rows = _stabilizing_rows(agl17xc17, S)
    assert np.array_equal(rows, _full_row_scan(agl17xc17, S))
    assert rows.dtype == np.intp
    if order is not None:
        assert rows.size == order
    if kind == "c17-orbits":
        assert rows.size % 17 == 0


def test_uint16_filter_stops_at_the_identity(agl17xc17, monkeypatch):
    # 29 random points: only the identity, row 0, fixes them, and the filter
    # stops reading columns before the last point
    S = _seeded_subset_of_289(agl17xc17, "random", 2)
    read = []
    column = perms._column
    monkeypatch.setattr(perms, "_column", lambda E, x, *rows: read.append(x) or column(E, x, *rows))
    rows = _stabilizing_rows(agl17xc17, S)
    assert rows.tolist() == _full_row_scan(agl17xc17, S).tolist() == [0]
    assert S.bool_array().sum() == 29 and len(read) < 29


@pytest.mark.parametrize("make", [
    lambda G: G.subgroup([Permutation(G.elements[1].tolist())]),  # order 8, 51 orbits
    lambda G: setwise_stabilizer(G, PointSet(289, [0, 17])),  # order 2, 153 orbits
], ids=["cyclic-8", "stab-pair"])
def test_uint16_normalizer_by_definition(agl17xc17, make):
    G, H = agl17xc17, make(agl17xc17)
    keys = {h._key for h in H.iter_elements()}
    expected = _rows(G, lambda x: {(x.inverse() * h * x)._key for h in H.iter_elements()} == keys)
    N = normalizer(G, H)
    assert np.array_equal(N, expected)
    assert N.dtype == np.uint16 and H.order < N.shape[0] < G.order


@settings(max_examples=40, deadline=None)
@given(small_groups(max_order=5040), masks)
@example(PermGroup.trivial(3), 0b101)
@example(named_group("AGL(1,5)"), 0b11011)  # |S| > n/2
@example(named_group("AGL(1,5)"), 0b11111)  # S = Omega
def test_setwise_stabilizer_is_the_row_filter(G, mask):
    S = _subset(G, mask)
    expected = _rows(G, lambda g: S.image(g) == S)
    assert np.array_equal(setwise_stabilizer(G, S).elements, expected)
    assert (np.diff(_stabilizing_rows(G, S)) > 0).all()


@settings(max_examples=40, deadline=None)
@given(small_groups(max_order=5040), masks)
@example(PermGroup.trivial(3), 0b101)
def test_few_generators_regenerate_the_rows(G, mask):
    S = _subset(G, mask)
    H = setwise_stabilizer(G, S)
    assert np.array_equal(PermGroup(G.degree, H.generators).elements, H.elements)
    if H is not G:  # all of G's rows give back G with its own generators
        assert 1 << len(H.generators) <= H.order


def _least_rows_outside(degree, rows):
    """Generators chosen one at a time: the least row outside the group that
    the earlier ones generate, by the brute-force closure."""
    gens = []
    generated = {tuple(range(degree))}
    while len(generated) < len(rows):
        row = next(r for r in map(tuple, rows.tolist()) if r not in generated)
        gens.append(list(row))
        generated = set(closure(PermGroup(degree, map(Permutation, gens))))
    return gens


@settings(max_examples=40, deadline=None)
@given(small_groups(max_order=5040), masks)
@example(named_group("AGL(1,5)"), 0b00011)
@example(named_group("Sym(4)"), 0b0001)
def test_generators_are_the_least_rows_outside(G, mask):
    S = _subset(G, mask)
    rows = _rows(G, lambda g: S.image(g) == S)
    H = setwise_stabilizer(G, S)
    if H is not G:
        assert [g.images.tolist() for g in H.generators] == _least_rows_outside(G.degree, rows)


@settings(max_examples=40, deadline=None)
@given(small_groups(max_order=5040), masks)
@example(PermGroup.trivial(3), 0b101)
@example(named_group("AGL(1,5)"), 0b11011)
@example(named_group("AGL(1,5)"), 0b11111)
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
        assert np.array_equal(normalizer(G, H), expected)
    expected = _rows(G, lambda x: all(x * y == y * x for y in elems))
    assert np.array_equal(G.elements[centralizing_rows(G.elements, G.generators)], expected)
