"""Sylow p-subgroups and the p-structure predicates used by the classifier.

A Sylow subgroup P grows in place from the trivial group, each step by the
least p-element of its normalizer's sorted rows that lies outside P, and a
normal closure, such as Phi(P), grows in its own chain.  The element z of
the counting criterion is the least row of order p among the rows of
Phi(P)'s table that commute with P.  Both are read off powers of blocks of
rows (perms._least_row).  Results are exact and brute-force checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .fields import p_part
from .perms import (PermGroup, Permutation, _least_element_of_order, _least_row, _power,
                    _row_keys, centralizing_rows, normalizer)


@dataclass
class SylowData:
    p: int
    representative: PermGroup
    count: int  # n_p = |G : N_G(P)|

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "sylow_order": self.representative.order,
            "count": self.count,
            "normalizer_index": self.count,
        }


def find_sylow(G: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup of G, grown in place from the trivial group: while P
    is not Sylow, N_G(P) has p-elements g (g^(|G|_p) = 1) outside P, and the
    least, read off blocks of N's rows (perms._least_row), grows P."""
    target = p_part(G.order, p)
    if target == 1:
        raise ValueError(f"{p} does not divide |G| = {G.order}")
    P = G.subgroup((), name=f"Sylow_{p}")
    points = np.arange(G.degree)
    while P.order < target:
        inside = _row_keys(P.elements)
        P.grow(_least_row(normalizer(G, P), lambda rows: (
            (_power(rows, target) == points).all(axis=1) & ~np.isin(_row_keys(rows), inside))))
    return P


def all_sylows(G: PermGroup, p: int) -> SylowData:
    """One Sylow p-subgroup P with n_p = |G : N_G(P)|, the number of its conjugates."""
    P = find_sylow(G, p)
    return SylowData(p, P, G.order // len(normalizer(G, P)))


def is_p_group(P: PermGroup, p: int) -> bool:
    return p_part(P.order, p) == P.order


def is_elementary_abelian(P: PermGroup, p: int) -> bool:
    """True iff the p-group P is abelian of exponent p: its generators have
    order p and commute pairwise, so every product of them has order p too."""
    if not is_p_group(P, p):
        raise ValueError("P is not a p-group")
    gens = P.generators
    return (all(g.order() == p for g in gens)
            and all(g * h == h * g for i, g in enumerate(gens) for h in gens[i + 1:]))


def normal_closure(G: PermGroup, gens: Iterable[Permutation],
                   bound: Optional[int] = None) -> Optional[PermGroup]:
    """The normal closure of gens in G; None as soon as its order passes bound.

    Each element that is not yet a member joins the generators, and its
    conjugates by G's generators are queued, last in first out.  When the
    queue is empty, the conjugates of every generator are members."""
    closure = G.subgroup((), name="normal closure")
    pending = list(gens)
    while pending:
        h = pending.pop()
        if closure.grow(h):
            if bound is not None and closure.order > bound:
                return None
            pending += [g.inverse() * h * g for g in G.generators]
    return closure


def frattini_subgroup(P: PermGroup, p: int) -> PermGroup:
    """Phi(P) = P^p [P, P] for a p-group: the normal closure in P of the
    generators' p-th powers and pairwise commutators, since P modulo that
    closure is generated by commuting elements of order p."""
    if not is_p_group(P, p):
        raise ValueError("P is not a p-group")
    gens = P.generators
    pending = [g**p for g in gens]
    pending += [a.inverse() * b.inverse() * a * b
                for i, a in enumerate(gens) for b in gens[i + 1:]]
    return normal_closure(P, pending)


def frattini_center_element(P: PermGroup, p: int) -> Optional[Permutation]:
    """The least element of order p of Phi(P) & Z(P), among the rows of Phi(P)'s
    table that commute with P; None when P is elementary abelian (Phi(P) = 1).

    Otherwise Phi(P) is a nontrivial normal subgroup of the p-group P, so it
    meets Z(P) in an element of order p.
    """
    E = frattini_subgroup(P, p).elements
    return _least_element_of_order(E[centralizing_rows(E, P.generators)], p)
