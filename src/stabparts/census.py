"""Subset-census counting: exact orbit-union counts, the counting-criterion
certificate, and the randomized witness search it implies.

The search checks its unions of z-orbits with perms.stab_p_part, and the
constructive classifier runs it as its q-orbits stage: classify imports
this module, never the reverse.

All inequality checks are exact integer comparisons: the criterion
|G : N(P)| < 2^((n-f)(1/p - 1/p^2)) is decided as
|G : N(P)|^(p^2) < 2^((n-f)(p-1)), both sides arbitrary-precision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable, Optional

import numpy as np

from .fields import p_part
from .perms import (PermGroup, Permutation, PointSet, format_cycles, normalizer, orbits,
                    stab_p_part)
from .sylow import SylowData, find_sylow, frattini_center_element


class CriterionInapplicable(ValueError):
    """The counting criterion's hypotheses fail (elementary abelian Sylow)."""


def subsets_fixed_count(gens: Iterable[Permutation] | Permutation,
                        degree: int) -> int:
    """Number of subsets fixed setwise by <gens>: exactly 2^{#orbits}."""
    if isinstance(gens, Permutation):
        gens = [gens]
    return 1 << len(orbits(list(gens), degree))


def _decimal(x: int) -> str:
    """The decimal digits of x, past the interpreter's cap on str(int)."""
    return str(Decimal(x))


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
            "exact": _decimal(self.exact),
            "coarse": _decimal(self.coarse) if self.coarse is not None else None,
        }


def sylow_cover_bound(G: PermGroup, p: int, sylow: SylowData) -> CoverBound:
    """Union bound over Sylow conjugates on the number of covered subsets,
    from G's Sylow data (sylow.all_sylows(G, p)).

    Orbit counts are conjugation-invariant, so the exact bound is
    n_p * 2^{#orbits(P)} for any one representative.  The coarser bound
    n_p * 2^{f + (n-f)/p^2} needs the central Frattini element z and is
    omitted (None) when P is elementary abelian.
    """
    P = sylow.representative
    r = len(P.orbits())
    exact = sylow.count * (1 << r)
    coarse = None
    z = frattini_center_element(P, p)
    if z is not None:
        f, den = _fixed_points(z), p * p
        # f + (n - f)/p^2 may be fractional; ceil gives a valid integer bound
        num = f * den + (G.degree - f)
        coarse = sylow.count * (1 << ((num + den - 1) // den))
        if exact > coarse:  # pragma: no cover - ruled out by the orbit floor
            raise AssertionError("exact union bound exceeded the coarse bound")
    return CoverBound(sylow.count, r, exact, coarse)


def _fixed_points(z: Permutation) -> int:
    return int(np.count_nonzero(z.images == np.arange(z.degree)))


@dataclass
class CountingCertificate:
    p: int
    n: int
    z: Permutation
    fixed_points: int
    sylow_norm_index: int  # n_p = |G : N_G(P)|

    @property
    def verdict(self) -> bool:  # True certifies p-moderation
        return self.lhs_power < self.rhs_power

    @property
    def lhs_power(self) -> int:
        """|G : N(P)|^(p^2)."""
        return self.sylow_norm_index ** (self.p * self.p)

    @property
    def rhs_power(self) -> int:
        """2^((n - f)(p - 1))."""
        return 1 << ((self.n - self.fixed_points) * (self.p - 1))

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "z": format_cycles(self.z),
            "fixed_points": self.fixed_points,
            "sylow_norm_index": self.sylow_norm_index,
            "lhs_power": _decimal(self.lhs_power),
            "rhs_power": _decimal(self.rhs_power),
            "verdict": self.verdict,
        }


def prop_certificate(G: PermGroup, p: int) -> CountingCertificate:
    """Evaluate the counting criterion; verdict True certifies p-moderation.

    Requires a non-elementary-abelian Sylow p-subgroup P, checked before n_p
    is counted, for the witness element z of order p in Phi(P) & Z(P).
    """
    P = find_sylow(G, p)
    z = frattini_center_element(P, p)
    if z is None:
        raise CriterionInapplicable(
            "Sylow p-subgroup is elementary abelian; the criterion is silent"
        )
    n = G.degree
    f = _fixed_points(z)
    if (n - f) % p != 0:  # pragma: no cover - z has order p
        raise AssertionError("non-fixed points of z must fall in p-cycles")
    count = G.order // len(normalizer(G, P))  # n_p = |G : N_G(P)|
    return CountingCertificate(p, n, z, f, count)


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
    if (order := z.order()) == 1 or p_part(order, p) != order:
        raise ValueError("z must be a nontrivial p-element")
    gp = p_part(G.order, p)
    zmasks = [PointSet(G.degree, orbit).mask for orbit in orbits([z], G.degree)]
    for trial in range(trials):
        rng = random.Random(seed + trial)
        # the z-orbits are disjoint, so the sum of the masks drawn is their union
        delta = PointSet.from_mask(G.degree, sum(m for m in zmasks if rng.random() < 0.5))
        if stab_p_part(G, delta, p) < gp:
            return delta
    return None
