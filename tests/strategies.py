"""Hypothesis strategies shared by the property tests."""

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
