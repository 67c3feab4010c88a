"""The benchmark's oracle against brute force over all group elements.

Run with:  python3 -m pytest perfbench
"""

import random

import pytest

import oracle

SMALL = ["D6", "D10", "C4", "C6", "Sym(4)", "Sym(5)", "AGL(1,4)", "AGL(1,5)",
         "Product(C2,C3)", "Product(C2,D6)"]


def elements(G: oracle.Group) -> set[tuple[int, ...]]:
    identity = tuple(range(G.degree))
    seen, frontier = {identity}, [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in G.gens:
                y = tuple(g[x[i]] for i in range(G.degree))
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen


def brute_stab_orders(G: oracle.Group) -> list[int]:
    elems = elements(G)
    out = []
    for mask in range(1 << G.degree):
        pts = oracle.points_of(mask)
        out.append(sum(oracle.mask_of(e[x] for x in pts) == mask for e in elems))
    return out


@pytest.mark.parametrize("name", SMALL)
def test_orbit_sizes_match_element_counts(name):
    G = oracle.catalog(name)
    G = oracle.relabel(G, random.Random(name).sample(range(G.degree), G.degree))
    assert G.degree <= 6
    stab = brute_stab_orders(G)
    sizes = oracle.mask_orbit_sizes(G)
    assert [G.order // int(s) for s in sizes] == stab
    for mask in range(1 << G.degree):
        assert oracle.stab_order(G, oracle.points_of(mask)) == stab[mask]


@pytest.mark.parametrize("name", SMALL)
def test_concealment_matches_sylow_definition(name):
    G = oracle.catalog(name)
    stab = brute_stab_orders(G)
    for p in (2, 3, 5):
        if G.order % p:
            continue
        facts = oracle.SubsetFacts(G, p)
        gp = oracle.p_part(G.order, p)
        # S is fixed by a Sylow p-subgroup iff |Stab(S)|_p = |G|_p
        covered = [oracle.p_part(s, p) == gp for s in stab]
        assert facts.concealed() == all(covered)
        assert [not facts.uncovered(m) for m in range(1 << G.degree)] == covered
        assert [facts.part(m) for m in range(1 << G.degree)] == [
            oracle.p_part(s, p) for s in stab]


@pytest.mark.parametrize("name", SMALL + ["J", "AGammaL(1,9)", "AGL(2,3)",
                                          "AGL(1,16)", "AGL(1,19)", "D14",
                                          "Product(D6,Sym(4))"])
def test_closed_form_orders(name):
    G = oracle.catalog(name)
    assert len(elements(G)) == G.order


def test_known_concealment():
    # D6 and D10 are 2-concealed, J is 3-concealed, AGL(1,5) is not 2-concealed
    assert oracle.SubsetFacts(oracle.catalog("D6"), 2).concealed()
    assert oracle.SubsetFacts(oracle.catalog("D10"), 2).concealed()
    assert oracle.SubsetFacts(oracle.catalog("J"), 3).concealed()
    assert not oracle.SubsetFacts(oracle.catalog("AGL(1,5)"), 2).concealed()
