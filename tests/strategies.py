"""Hypothesis strategies and a brute-force closure shared by the property tests."""

from hypothesis import strategies as st

from stabparts import PermGroup, Permutation


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
