"""Sylow p-subgroups and the p-structure predicates used by the classifier.

Sylow subgroups, normalizers and centers are read off element tables; the
Frattini subgroup is grown from generators in a stabilizer chain.  Results
are exact and brute-force checkable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import is_prime
from .perms import PermGroup, Permutation, commuting_rows, normalizer


def prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


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


def _least_p_element(G: PermGroup, p: int) -> Permutation:
    """The p-power part g^(ord/p-part) of the least element g (by image
    array) whose order p divides: a nontrivial p-element, from one sorted pass.
    """
    for g in G.iter_elements():
        ordg = g.order()
        if ordg % p == 0:
            return g ** (ordg // p_part(ordg, p))
    raise ValueError(f"{p} does not divide |G| = {G.order}")


def find_sylow(G: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup of G, grown inside successive normalizers."""
    target = p_part(G.order, p)
    if target == 1:
        raise ValueError(f"{p} does not divide |G| = {G.order}")
    P = G.subgroup([_least_p_element(G, p)], name=f"Sylow_{p}")
    while P.order < target:
        N = normalizer(G, P)
        extended = False
        for g in N.iter_elements():
            ordg = g.order()
            if ordg > 1 and p_part(ordg, p) == ordg and g not in P:
                P = G.subgroup(list(P.generators) + [g], name=f"Sylow_{p}")
                extended = True
                break
        if not extended:  # pragma: no cover - impossible by Sylow theory
            raise AssertionError("Sylow extension step failed")
    return P


def all_sylows(G: PermGroup, p: int) -> SylowData:
    """One Sylow p-subgroup P with n_p = |G : N_G(P)|, the number of its conjugates."""
    P = find_sylow(G, p)
    return SylowData(p, P, G.order // normalizer(G, P).order)


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


def frattini_subgroup(P: PermGroup, p: int) -> PermGroup:
    """Phi(P) = P^p [P, P] for a p-group: the normal closure in P of the
    generators' p-th powers and pairwise commutators, since P modulo that
    closure is generated by commuting elements of order p.

    One stabilizer chain grows: each element that does not sift through it
    joins the generators, and its conjugates by P's generators are queued.
    When the queue is empty, the conjugates of every generator are members,
    so the subgroup is normal.
    """
    if not is_p_group(P, p):
        raise ValueError("P is not a p-group")
    gens = P.generators
    phi = P.subgroup((), name="Frattini")
    pending = [g**p for g in gens]
    pending += [a.inverse() * b.inverse() * a * b
                for i, a in enumerate(gens) for b in gens[i + 1:]]
    while pending:
        h = pending.pop()
        if h in phi:
            continue
        phi.generators += (h,)
        phi.chain.add_generator(h)
        pending += [g.inverse() * h * g for g in gens]
    return phi


def center(P: PermGroup) -> PermGroup:
    E = P.elements
    keep = np.ones(E.shape[0], dtype=bool)
    for h in P.generators:
        keep &= commuting_rows(E, h)
    return P.subgroup_from_rows(E[keep], name="center")


def frattini_center_element(P: PermGroup, p: int) -> Permutation:
    """Least order-p element of Phi(P) & Z(P); errors when P is elementary abelian."""
    if is_elementary_abelian(P, p):
        raise ValueError("P is elementary abelian; no Frattini-center element")
    phi = frattini_subgroup(P, p)
    for g in center(P).iter_elements():  # elements come lexicographically sorted
        if g.order() == p and g in phi:
            return g
    raise AssertionError("nontrivial Frattini-center element must exist")
