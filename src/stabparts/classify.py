"""Setwise stabilizers and the p-concealed / p-moderate / p-extreme decision.

A group (G, Omega) with p | |G| is:
  * p-concealed  - every subset of Omega is stabilized by some full Sylow
    p-subgroup;
  * p-moderate   - some subset Delta has 1 < |Stab(Delta)|_p < |G|_p;
  * p-extreme    - not p-moderate (every stabilizer p-part is 1 or full).

Every per-subset fact comes from one census primitive, the orbit sizes
|S^G| of G on all 2^n subsets (kernels.subset_orbit_sizes): by
orbit-stabilizer |Stab(S)|_p = |G|_p / |S^G|_p, and by Sylow's theorem S is
fixed by some Sylow p-subgroup iff p does not divide |S^G|.  That census is
the oracle; the constructive strategy tries cheap explicit witness recipes
first and falls back to it, so the two can never disagree.  Witness
constructors are candidate generators only: the verifier (stab_p_part) is
the single source of truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import kernels
from .affine import AffineSpec
from .perms import PermGroup, Permutation, PointSet, ResourceLimit
from .sylow import p_part

SAMPLING_TRIALS = 200
MAX_VECTOR_PAIRS = 1 << 22  # regular_orbit_pair scans at most this many (v, w)


# ---------------------------------------------------------------------------
# Setwise stabilizers
# ---------------------------------------------------------------------------


def _stabilizing_rows(G: PermGroup, delta: PointSet) -> np.ndarray:
    """Mask of the rows of G.elements that fix delta setwise."""
    if delta.degree != G.degree:
        raise ValueError("point set degree mismatch")
    mask = delta.bool_array()
    # g stabilizes delta iff membership is constant along g: mask[g(x)] == mask[x]
    return (mask[G.elements] == mask[np.newaxis, :]).all(axis=1)


def setwise_stabilizer(G: PermGroup, delta: PointSet) -> PermGroup:
    """{g in G : delta . g = delta}, by a vectorized scan of all elements."""
    keep = _stabilizing_rows(G, delta)
    return G.subgroup_from_rows(G.elements[keep], name="setwise stabilizer")


def stab_p_part(G: PermGroup, delta: PointSet, p: int) -> int:
    return p_part(int(_stabilizing_rows(G, delta).sum()), p)


# ---------------------------------------------------------------------------
# p-concealed decision
# ---------------------------------------------------------------------------


def is_p_concealed(G: PermGroup, p: int) -> tuple[bool, Optional[PointSet]]:
    """Whether every subset is stabilized by some Sylow p-subgroup.

    Returns (True, None) or (False, least uncovered subset in mask order).
    Stab(S) contains a Sylow p-subgroup iff p does not divide |S^G|.
    """
    if p_part(G.order, p) == 1:
        raise ValueError(f"{p} does not divide |G|")
    sizes = _orbit_sizes(G)
    uncovered = np.flatnonzero(sizes % p == 0)
    if uncovered.size == 0:
        return True, None
    return False, PointSet.from_mask(G.degree, int(uncovered[0]))


def _orbit_sizes(G: PermGroup) -> np.ndarray:
    return kernels.subset_orbit_sizes([g.images for g in G.generators], G.degree)


# ---------------------------------------------------------------------------
# Regular orbits of the linear part
# ---------------------------------------------------------------------------


def regular_orbit_vector(H: PermGroup) -> Optional[int]:
    """Least point with trivial H-stabilizer, or None."""
    elems = H.elements
    nonid = elems[(elems != np.arange(H.degree, dtype=np.int32)).any(axis=1)]
    if nonid.shape[0] == 0:
        return 0 if H.degree > 0 else None
    moved_everywhere = (nonid != np.arange(H.degree, dtype=np.int32)).all(axis=0)
    # point x is regular iff no non-identity element fixes it
    free = np.nonzero(moved_everywhere)[0]
    return int(free[0]) if free.size else None


def regular_orbit_pair(H: PermGroup) -> Optional[tuple[int, int]]:
    """Least pair (v, w) of nonzero vectors with trivial joint H-stabilizer
    on V + V, or None.

    Per-element fixed-point sets are precomputed, so the scan costs |H| bit
    operations per candidate v rather than a fresh orbit computation.
    """
    n = H.degree
    if n * n > MAX_VECTOR_PAIRS:
        raise ResourceLimit(f"{n * n} vector pairs exceed bound {MAX_VECTOR_PAIRS}")
    elems = H.elements
    ar = np.arange(n, dtype=np.int32)
    nonid = elems[(elems != ar).any(axis=1)]
    if nonid.shape[0] == 0:
        v = 1 if n > 1 else 0
        return (v, v)
    fixes = nonid == ar  # (m, n) bool: element i fixes point x
    for v in range(1, n):
        fixing_v = fixes[fixes[:, v]]  # rows of elements fixing v
        if fixing_v.shape[0] == 0:
            return (v, 1)
        ok = ~fixing_v.any(axis=0)
        for w in range(1, n):
            if ok[w]:
                return (v, w)
    return None


# ---------------------------------------------------------------------------
# Witness constructors from the proofs
# ---------------------------------------------------------------------------


class ConstructorInapplicable(ValueError):
    """A witness recipe's preconditions do not hold for this group."""


def _affine_spec(G: PermGroup) -> AffineSpec:
    if G.affine is None:
        raise ConstructorInapplicable("group was not built from an affine spec")
    return G.affine


def point_stabilizer_of_zero(G: PermGroup) -> PermGroup:
    """The linear part H = Stab_G(0) of an affine group."""
    elems = G.elements
    return G.subgroup_from_rows(elems[elems[:, 0] == 0], name="H")


def translation_witness(G: PermGroup, p: int) -> PointSet:
    """Delta = W, an order-p additive subgroup of V (for p | |V|, |V|_p > p)."""
    spec = _affine_spec(G)
    n = spec.num_points
    if n % p != 0:
        raise ConstructorInapplicable("p does not divide |V|")
    if n == p:
        raise ConstructorInapplicable(
            "|V| = p leaves no room: p^2 does not divide |G| via translations"
        )
    if spec.field.p != p:
        raise ConstructorInapplicable("p is not the characteristic of V")
    # least nonzero vector; every nonzero vector has additive order p
    v = 1
    pts = [0]
    x = v
    while x != 0:
        pts.append(x)
        x = spec.point_add(x, v)
    return PointSet(n, pts)


def regular_vector_witness(G: PermGroup, p: int) -> PointSet:
    """Delta = {0, v} with v in a regular H-orbit (the direct-product recipe)."""
    _affine_spec(G)
    H = point_stabilizer_of_zero(G)
    v = regular_orbit_vector(H)
    if v is None or v == 0:
        raise ConstructorInapplicable("no regular vector on V")
    return PointSet(G.degree, [0, v])


def p2_regular_witness(G: PermGroup, p: int = 2) -> PointSet:
    """Gamma = {0, v, vt}: v regular for H, t an involution in H."""
    if p != 2:
        raise ConstructorInapplicable("recipe is specific to p = 2")
    _affine_spec(G)
    H = point_stabilizer_of_zero(G)
    v = regular_orbit_vector(H)
    if v is None or v == 0:
        raise ConstructorInapplicable("no regular vector on V")
    t = _least_element_of_order(H, 2)
    if t is None:
        raise ConstructorInapplicable("H has no involution")
    vt = int(t.images[v])
    return PointSet(G.degree, [0, v, vt])


def metacyclic_witness(G: PermGroup, p: int = 2) -> PointSet:
    """Gamma = {0, w, v, -v}: u a noncentral involution of H, wu = w, vu = -v."""
    if p != 2:
        raise ConstructorInapplicable("recipe is specific to p = 2")
    spec = _affine_spec(G)
    H = point_stabilizer_of_zero(G)
    for u in H.iter_elements():
        if u.order() != 2:
            continue
        if all((u * h) == (h * u) for h in H.generators):
            continue  # central
        w = next((x for x in range(1, G.degree) if int(u.images[x]) == x), None)
        v = next(
            (x for x in range(1, G.degree)
             if int(u.images[x]) == spec.point_neg(x) and spec.point_neg(x) != x),
            None,
        )
        if w is not None and v is not None:
            return PointSet(G.degree, [0, w, v, spec.point_neg(v)])
    raise ConstructorInapplicable(
        "no noncentral involution with +1 and -1 eigenvectors"
    )


def orbit_witness_odd_p(G: PermGroup, p: int) -> list[PointSet]:
    """Candidates from the odd-p argument: orbit unions of a regular pair.

    Returns {0} u O1 when the two t-orbits coincide, else both
    {0} u O1 u O2 and the fallback {0, w} u O1, in that order.
    """
    if p == 2:
        raise ConstructorInapplicable("recipe requires odd p")
    spec = _affine_spec(G)
    H = point_stabilizer_of_zero(G)
    t = _least_element_of_order(H, p)
    if t is None:
        raise ConstructorInapplicable("H has no element of order p")
    pair = regular_orbit_pair(H)
    if pair is None:
        raise ConstructorInapplicable("no regular pair on V + V")
    v, w = pair
    orbit_v = _cyclic_orbit(t, v)
    orbit_w = _cyclic_orbit(t, w)
    if len(orbit_v) == 1 and len(orbit_w) == 1:
        raise ConstructorInapplicable("t centralizes both regular coordinates")
    if len(orbit_v) == 1:
        v, w = w, v
        orbit_v, orbit_w = orbit_w, orbit_v
    if len(orbit_w) == 1:
        w = spec.point_add(v, w)  # (v, v + w) is still in a regular orbit
        orbit_w = _cyclic_orbit(t, w)
    if orbit_v == orbit_w:
        return [PointSet(G.degree, {0} | orbit_v)]
    return [
        PointSet(G.degree, {0} | orbit_v | orbit_w),
        PointSet(G.degree, {0, w} | orbit_v),
    ]


def _cyclic_orbit(t: Permutation, x: int) -> set[int]:
    orb = {x}
    y = int(t.images[x])
    while y != x:
        orb.add(y)
        y = int(t.images[y])
    return orb


def _least_element_of_order(G: PermGroup, k: int) -> Optional[Permutation]:
    for g in G.iter_elements():
        if g.order() == k:
            return g
    return None


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass
class ModerationReport:
    p: int
    degree: int
    group_order: int
    group_p_part: int
    status: str  # "MODERATE" | "EXTREME"
    witness: Optional[PointSet] = None
    stab_p_part: Optional[int] = None
    concealed: Optional[bool] = None
    strategy: str = "exhaustive"
    stage: Optional[str] = None
    exhaustive: bool = False
    note: str = ""

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "degree": self.degree,
            "group_order": self.group_order,
            "group_p_part": self.group_p_part,
            "status": self.status,
            "witness": self.witness.sorted_points() if self.witness else None,
            "stab_p_part": self.stab_p_part,
            "concealed": self.concealed,
            "strategy": self.strategy,
            "stage": self.stage,
            "exhaustive": self.exhaustive,
            "note": self.note,
        }


def exhaustive_p_parts(G: PermGroup, p: int) -> np.ndarray:
    """|Stab(S)|_p = |G|_p / |S^G|_p for every subset mask S (the census oracle)."""
    sizes = _orbit_sizes(G)
    gp = p_part(G.order, p)
    # orbit sizes take few distinct values: look their p-parts up in a table
    values = np.flatnonzero(np.bincount(sizes))
    table = np.zeros(int(values[-1]) + 1, dtype=np.int64)
    table[values] = [gp // p_part(int(v), p) for v in values]
    return table[sizes]


def census_histogram(G: PermGroup, p: int) -> dict[int, int]:
    """Map from stabilizer p-part value to the number of subsets attaining it."""
    if p_part(G.order, p) == 1:
        raise ValueError(f"{p} does not divide |G|")
    parts = exhaustive_p_parts(G, p)
    values, counts = np.unique(parts, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def _verify_witness(G: PermGroup, delta: PointSet, p: int,
                    gp: int) -> Optional[int]:
    part = stab_p_part(G, delta, p)
    return part if 1 < part < gp else None


def constructive_candidates(G: PermGroup, p: int) -> Iterator[tuple[str, PointSet]]:
    recipes = [
        ("translation", lambda: [translation_witness(G, p)]),
        ("regular-vector", lambda: [regular_vector_witness(G, p)]),
    ]
    if p == 2:
        recipes.append(("regular-triple", lambda: [p2_regular_witness(G, p)]))
        recipes.append(("metacyclic", lambda: [metacyclic_witness(G, p)]))
    else:
        recipes.append(("orbit-union", lambda: orbit_witness_odd_p(G, p)))
    for name, recipe in recipes:
        try:
            for delta in recipe():
                yield name, delta
        except (ConstructorInapplicable, ResourceLimit):
            continue


def classify_moderation(G: PermGroup, p: int, strategy: str = "constructive",
                        seed: int = 0) -> ModerationReport:
    """Decide MODERATE vs EXTREME; the exhaustive strategy is the oracle."""
    if strategy not in ("exhaustive", "constructive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    order = G.order
    gp = p_part(order, p)
    if gp == 1:
        raise ValueError(f"{p} does not divide |G| = {order}")
    n = G.degree
    report = ModerationReport(p, n, order, gp, "EXTREME", strategy=strategy)

    if gp == p:
        # no p-power lies strictly between 1 and p: EXTREME by arithmetic
        report.note = "|G|_p = p: moderation is impossible"
        report.exhaustive = True
        report.concealed = _concealed_flag(G, p)
        return report

    if strategy == "constructive":
        for stage, delta in constructive_candidates(G, p):
            part = _verify_witness(G, delta, p, gp)
            if part is not None:
                report.status = "MODERATE"
                report.witness = delta
                report.stab_p_part = part
                report.stage = stage
                return report
        rng = random.Random(seed)
        for _ in range(SAMPLING_TRIALS):
            size = rng.randint(1, n - 1)
            delta = PointSet(n, rng.sample(range(n), size))
            part = _verify_witness(G, delta, p, gp)
            if part is not None:
                report.status = "MODERATE"
                report.witness = delta
                report.stab_p_part = part
                report.stage = "sampling"
                return report
        # fall through to the exhaustive oracle so the verdict is exact

    parts = exhaustive_p_parts(G, p)
    moderate = np.flatnonzero((parts > 1) & (parts < gp))
    report.exhaustive = True
    if moderate.size:
        least = int(moderate[0])
        report.status = "MODERATE"
        report.witness = PointSet.from_mask(n, least)
        report.stab_p_part = int(parts[least])
        report.stage = "exhaustive"
    else:
        report.concealed = bool((parts == gp).all())
    return report


def _concealed_flag(G: PermGroup, p: int) -> Optional[bool]:
    try:
        concealed, _ = is_p_concealed(G, p)
    except ResourceLimit:
        return None
    return concealed
