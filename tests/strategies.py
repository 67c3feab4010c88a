"""Hypothesis strategies, a brute-force closure and the affine structure of
the catalog's groups, shared by the tests."""

import random

import numpy as np
from hypothesis import strategies as st

from stabparts import PermGroup, Permutation, build_field, format_cycles, product_action
from stabparts.fields import _MODULI, is_prime

# (p, k, dim) of V = GF(p^k)^dim for every affine group of the catalog, in
# the catalog's numbering of the points.  A product over one characteristic
# p is affine over GF(p): its pair (a, b) -> a * n2 + b is the base-p
# encoding of the concatenated coordinates.  Sym(4) is AGL(2,2), and its
# Klein four-group adds points by XOR, as GF(2)^2 does.
AFFINE_CATALOG = {
    "D6": (3, 1, 1),
    "D10": (5, 1, 1),
    "J": (2, 3, 1),
    "AGammaL(1,9)": (3, 2, 1),
    "AGL(2,3)": (3, 1, 2),
    "Sym(4)": (2, 1, 2),
    "Product(D6,D6)": (3, 1, 2),
    "Product(D10,D10)": (5, 1, 2),
    "Product(J,J)": (2, 1, 6),
    "Product(J,AGL(1,4))": (2, 1, 5),
    "Product(AGammaL(1,9),D6)": (3, 1, 3),
    **{f"AGL(1,{p**k})": (p, k, 1)
       for p, k in sorted(set(_MODULI) | {(p, 1) for p in range(2, 65) if is_prime(p)})},
}


def vector_add(p, k, dim, a, b):
    """a + b for points (ints or arrays, broadcast) of V = GF(p^k)^dim: the
    field's addition table on their base-q coordinates, last coordinate least
    significant, decoded and encoded by numpy apart from the library's code."""
    shape = (p**k,) * dim
    a, b = np.broadcast_arrays(a, b)
    coords = build_field(p, k).add_table[np.unravel_index(a, shape), np.unravel_index(b, shape)]
    return np.ravel_multi_index(tuple(coords), shape).tolist()


@st.composite
def small_groups(draw, max_order):
    """A group on n <= 8 points from up to three random generators.

    Generators are dropped until |G| <= max_order, so that the brute-force
    references (element scan, Sylow conjugates) stay fast.
    """
    n = draw(st.integers(1, 8))
    gens = [Permutation(g) for g in draw(st.lists(st.permutations(range(n)), max_size=3))]
    G = PermGroup(n, gens)
    while G.order > max_order:
        gens.pop()
        G = PermGroup(n, gens)
    return G


def closure(G):
    """Every element of G as a sorted list of image tuples.

    A breadth-first closure of the generators under right multiplication,
    independent of the stabilizer chain that PermGroup uses.
    """
    identity = tuple(range(G.degree))
    gens = [tuple(int(x) for x in g.images) for g in G.generators]
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = tuple(g[x] for x in a)  # right action: a, then g
                if b not in seen:
                    seen.add(b)
                    fresh.append(b)
        frontier = fresh
    return sorted(seen)


def symmetric(n):
    """Sym(n) from an n-cycle and a transposition."""
    return PermGroup.from_cycles(n, ["(" + " ".join(map(str, range(n))) + ")", "(0 1)"])


def wreath(G):
    """G wr S2 in product action: G x G on pairs, plus the swap (a, b) -> (b, a)."""
    m = G.degree
    swap = Permutation([b * m + a for a in range(m) for b in range(m)])
    P = product_action(G, G)
    return PermGroup(P.degree, P.generators + (swap,))


def relabelled_document(G, seed):
    """G as a degree+generators document, its points renamed by a seeded
    permutation s: each generator g becomes s^-1 g s."""
    images = list(range(G.degree))
    random.Random(seed).shuffle(images)
    s = Permutation(images)
    return {"degree": G.degree,
            "generators": [format_cycles(s.inverse() * g * s) for g in G.generators]}
