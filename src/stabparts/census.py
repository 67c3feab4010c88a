"""Subset-census counting: exact orbit-union counts, the counting-criterion
certificate, and the randomized witness search it implies.

All inequality checks are exact integer comparisons: the criterion
|G : N(P)| < 2^((n-f)(1/p - 1/p^2)) is decided as
|G : N(P)|^(p^2) < 2^((n-f)(p-1)), both sides arbitrary-precision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .classify import stab_p_part
from .perms import PermGroup, Permutation, PointSet, orbits
from .sylow import (
    SylowData,
    all_sylows,
    frattini_center_element,
    is_elementary_abelian,
    p_part,
)


class CriterionInapplicable(ValueError):
    """The counting criterion's hypotheses fail (elementary abelian Sylow)."""


def subsets_fixed_count(gens: Iterable[Permutation] | Permutation,
                        degree: int) -> int:
    """Number of subsets fixed setwise by <gens>: exactly 2^{#orbits}."""
    if isinstance(gens, Permutation):
        gens = [gens]
    return 1 << len(orbits(list(gens), degree))


@dataclass
class CoverBound:
    """Bounds on the number of subsets stabilized by some Sylow p-subgroup."""

    sylow_count: int
    orbit_count: int           # orbits of one (hence any) Sylow p-subgroup
    exact: int                 # n_p * 2^{#orbits}
    coarse: Optional[int]      # n_p * 2^{f + (n-f)/p^2}, when z exists

    def to_json(self) -> dict:
        return {
            "sylow_count": self.sylow_count,
            "orbit_count": self.orbit_count,
            "exact": str(self.exact),
            "coarse": str(self.coarse) if self.coarse is not None else None,
        }


def sylow_cover_bound(G: PermGroup, p: int,
                      sylow: Optional[SylowData] = None) -> CoverBound:
    """Union bound over Sylow conjugates on the number of covered subsets.

    Orbit counts are conjugation-invariant, so the exact bound is
    n_p * 2^{#orbits(P)} for any one representative.  The coarser bound
    n_p * 2^{f + (n-f)/p^2} needs the central Frattini element z and is
    omitted (None) when P is elementary abelian.
    """
    data = sylow if sylow is not None else all_sylows(G, p)
    P = data.representative
    r = len(P.orbits())
    exact = data.count * (1 << r)
    coarse = None
    if not is_elementary_abelian(P, p):
        z = frattini_center_element(P, p)
        f = _fixed_points(z)
        n = G.degree
        # f + (n - f)/p^2 may be fractional; ceil gives a valid integer bound
        num = f * p * p + (n - f)
        den = p * p
        coarse = data.count * (1 << ((num + den - 1) // den))
        if exact > coarse:  # pragma: no cover - ruled out by the orbit floor
            raise AssertionError("exact union bound exceeded the coarse bound")
    return CoverBound(data.count, r, exact, coarse)


def _fixed_points(z: Permutation) -> int:
    return sum(1 for x in range(z.degree) if int(z.images[x]) == x)


@dataclass
class CountingCertificate:
    p: int
    n: int
    z: Permutation
    fixed_points: int
    sylow_norm_index: int  # n_p = |G : N_G(P)|
    verdict: bool

    @property
    def lhs_power(self) -> int:
        """|G : N(P)|^(p^2)."""
        return self.sylow_norm_index ** (self.p * self.p)

    @property
    def rhs_power(self) -> int:
        """2^((n - f)(p - 1))."""
        return 1 << ((self.n - self.fixed_points) * (self.p - 1))

    def to_json(self) -> dict:
        from .perms import format_cycles

        return {
            "p": self.p,
            "n": self.n,
            "z": format_cycles(self.z),
            "fixed_points": self.fixed_points,
            "sylow_norm_index": self.sylow_norm_index,
            "lhs_power": str(self.lhs_power),
            "rhs_power": str(self.rhs_power),
            "verdict": self.verdict,
        }


def prop_certificate(G: PermGroup, p: int,
                     sylow: Optional[SylowData] = None) -> CountingCertificate:
    """Evaluate the counting criterion; verdict True certifies p-moderation.

    Requires a non-elementary-abelian Sylow p-subgroup, from which the
    witness element z of order p in Phi(P) & Z(P) is taken.
    """
    if p_part(G.order, p) == 1:
        raise ValueError(f"{p} does not divide |G| = {G.order}")
    data = sylow if sylow is not None else all_sylows(G, p)
    P = data.representative
    if is_elementary_abelian(P, p):
        raise CriterionInapplicable(
            "Sylow p-subgroup is elementary abelian; the criterion is silent"
        )
    z = frattini_center_element(P, p)
    f = _fixed_points(z)
    n = G.degree
    if (n - f) % p != 0:  # pragma: no cover - z has order p
        raise AssertionError("non-fixed points of z must fall in p-cycles")
    verdict = data.count ** (p * p) < (1 << ((n - f) * (p - 1)))
    return CountingCertificate(p, n, z, f, data.count, verdict)


def orbit_size_floor_check(P: PermGroup, p: int, z: Permutation) -> bool:
    """Every P-orbit containing a point moved by z has size >= p^2.

    This is a theorem whenever z has order p and lies in Phi(P) & Z(P); it is
    exposed as a self-test of that reasoning.
    """
    if z.order() != p or z not in P:
        raise ValueError("z must be an order-p element of P")
    if not all((z * h) == (h * z) for h in P.generators):
        raise ValueError("z must be central in P")
    for orbit in P.orbits():
        if any(int(z.images[x]) != x for x in orbit) and len(orbit) < p * p:
            return False
    return True


def randomized_witness_from_z(
    G: PermGroup,
    p: int,
    z: Permutation,
    trials: int = 1000,
    seed: int = 0,
) -> Optional[PointSet]:
    """Search uniform unions of z-orbits for a subset with small stabilizer p-part.

    Each orbit goes in or out with probability 1/2, drawn from a generator
    seeded with seed + trial index so runs are reproducible and trials are
    independent.  Returns the first subset whose stabilizer p-part is
    strictly below |G|_p (it is at least p, since z stabilizes it), else None.
    """
    if z.order() % p != 0 or p_part(z.order(), p) != z.order() or z.order() == 1:
        raise ValueError("z must be a nontrivial p-element")
    gp = p_part(G.order, p)
    zorbits = orbits([z], G.degree)
    n = G.degree
    for trial in range(trials):
        rng = random.Random(seed + trial)
        members: set[int] = set()
        for orbit in zorbits:
            if rng.random() < 0.5:
                members.update(orbit)
        delta = PointSet(n, members)
        part = stab_p_part(G, delta, p)
        if part < gp:
            return delta
    return None
