"""Setwise stabilizers and the p-concealed / p-moderate / p-extreme decision.

A group (G, Omega) with p | |G| is:
  * p-concealed  - every subset of Omega is stabilized by some full Sylow
    p-subgroup;
  * p-moderate   - some subset Delta has 1 < |Stab(Delta)|_p < |G|_p;
  * p-extreme    - not p-moderate (every stabilizer p-part is 1 or full).

Every per-subset fact comes from one census primitive, the orbit sizes |S^G|
of G on all 2^n subsets (_orbit_sizes: when the cycle unions of G's elements
number at most 2^n, it lists the masks that some g != 1 fixes, the others
having size |G|; up to max(1, #gens) * 2^n it counts them into one size per
mask; else it labels orbits from the generators alone).  By
orbit-stabilizer |Stab(S)|_p = |G|_p / |S^G|_p, and by Sylow's theorem S is
fixed by some Sylow p-subgroup iff p does not divide |S^G|.  That census is
the oracle, read only by exhaustive_p_parts, one p-part per distinct orbit
size: the histogram sums mask counts by p-part, and concealment's least
counterexample and the exhaustive witness are the least mask whose size has a
marked p-part.  The constructive strategy first verifies the recipes'
candidates, then seeded unions of the orbits of z, G's least element of order
p, which fixes each of them (census.randomized_witness_from_z, prop31's
search), and ends in the census like the exhaustive one, so they agree.  The
recipes, the proof's cases for affine G = V . H, read V off the table that
translations finds in G however G is written, and the later ones the linear
part H = Stab_G(0) as the rows of G's table that fix 0, picked by the
verifier's own row filter.  Witness constructors are candidate generators
only: the verifier (perms.stab_p_part, which filters the element rows point
by point over Delta or its complement) alone accepts them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import kernels
from .census import randomized_witness_from_z
from .fields import p_part, prime_power
from .perms import (PermGroup, Permutation, PointSet, ResourceLimit, _least_element_of_order,
                    _order_p_rows, _stabilizing_rows, centralizing_rows, orbits,
                    point_stabilizer_of_zero, stab_p_part)
from .sylow import is_elementary_abelian, is_p_group, normal_closure


# ---------------------------------------------------------------------------
# Setwise stabilizers
# ---------------------------------------------------------------------------


def setwise_stabilizer(G: PermGroup, delta: PointSet) -> PermGroup:
    """{g in G : delta . g = delta}: G itself, or grown from its rows of
    G.elements, each row that is not yet a member joining the generators (at
    most log2|H| of them) until the order is the number of rows."""
    rows = _stabilizing_rows(G, delta)
    if rows.size == G.order:
        return G
    H = G.subgroup((), name="setwise stabilizer")
    for i in rows:
        if H.order == rows.size:
            break
        H.grow(Permutation._trusted(G.elements[i]))
    assert H.order == rows.size, "the stabilizing rows are not a subgroup"
    return H


# ---------------------------------------------------------------------------
# p-concealed decision
# ---------------------------------------------------------------------------


def is_p_concealed(G: PermGroup, p: int) -> tuple[bool, Optional[PointSet]]:
    """Whether every subset is stabilized by some Sylow p-subgroup.

    Returns (True, None) or (False, the least subset in mask order whose
    stabilizer p-part is below |G|_p).
    """
    least = _least_mask(exhaustive_p_parts(G, p), lambda parts: parts < p_part(G.order, p))
    if least is None:
        return True, None
    return False, PointSet.from_mask(G.degree, least[0])


def _orbit_sizes(G: PermGroup) -> tuple[Optional[np.ndarray], np.ndarray]:
    """(masks, sizes): orbit sizes |S^G|, by the route the input admits.

    The caller has checked MAX_SCAN_BITS.  The cycle-union route
    (kernels.cycle_union_stabilizers, |S^G| = |G| / |Stab(S)|) counts the
    unions of the non-identity elements' cycles, up to cap = max(1, #gens) *
    2^n of them.  When they number at most 2^n it lists the masks that some
    g != 1 fixes, the others having size |G|; past 2^n it returns masks None
    and one size per mask.  The cap is the label route's own work: it holds
    one int32 image of all 2^n masks per generator and passes over each of
    them every round, while the dense count holds the int32 unions, at most
    cap of them, and reads each once.  The route runs when:
      * |G| - 1 <= cap / 2, since each non-identity element fixes at least
        the empty set and Omega, so more elements give more unions than cap;
      * G.elements fits MAX_TABLE_BYTES;
      * the non-identity elements' cycle unions, sum of 2^c(g), number at
        most cap.
    A ResourceLimit from either of the last two means the label route,
    kernels.subset_orbit_sizes: masks None, each mask's size, from generators.
    """
    n = G.degree
    cap = max(1, len(G.generators)) << n
    if 2 * (G.order - 1) <= cap:
        try:
            masks, stab = kernels.cycle_union_stabilizers(G.elements, n, cap)
        except ResourceLimit:
            pass
        else:
            return masks, np.floor_divide(G.order, stab, out=stab)
    return None, kernels.subset_orbit_sizes([g.images for g in G.generators], n)


# ---------------------------------------------------------------------------
# The translations V and the linear part H, read off G
# ---------------------------------------------------------------------------
#
# H is the table of the rows of G.elements that fix 0, still lexicographically
# sorted, so row 0 is the identity and H[1:] are the non-identity rows.


def translations(G: PermGroup) -> Optional[np.ndarray]:
    """The table T of a regular normal elementary abelian r-subgroup N of G,
    n = r^d, with row v = t_v, the member of N that takes 0 to v; None when
    G has no such N.  In an affine group V . H, N is V: v + w is T[w, v].

    N grows a point at a time, as V need not be the normal closure of one
    translation: N becomes M, the normal closure of N and the least row of
    order r that moves every point and takes 0 to v, the least point outside
    0^N, such that M is elementary abelian with |0^M| = |M| <= n."""
    n = G.degree
    power = prime_power(n)
    if power is None or not G.is_transitive():
        return None
    r, d = power
    if n * math.prod(n - r**i for i in range(d)) % G.order:  # G <= AGL(d, r)
        return None
    E, points = G.elements, np.arange(n)
    N, reached = G.subgroup((), name="V"), points == 0
    while not reached.all():
        rows = E[E[:, 0] == np.argmin(reached)]
        rows = rows[(rows != points).all(axis=1)]
        for row in rows[_order_p_rows(rows, r)]:
            M = normal_closure(G, N.generators + (Permutation._trusted(row),), bound=n)
            if (M is not None and is_p_group(M, r) and is_elementary_abelian(M, r)
                    and len(orbit := M.orbits()[0]) == M.order):
                N, reached[orbit] = M, True
                break
        else:
            return None
    return N.elements


def regular_orbit_vector(H: np.ndarray) -> Optional[int]:
    """Least point that no non-identity row of H fixes, or None: by
    orbit-stabilizer, the least point of a regular H-orbit (0 for trivial H)."""
    free = np.flatnonzero((H[1:] != np.arange(H.shape[1])).all(axis=0))
    return int(free[0]) if free.size else None


def regular_orbit_pair(H: np.ndarray) -> Optional[tuple[int, int]]:
    """Least pair (v, w) of nonzero vectors with trivial joint H-stabilizer
    on V + V, or None.

    The non-identity rows' fixed-point sets are computed once, so the scan
    costs |H| bit operations per candidate v rather than an orbit each, at
    most |H| * n^2 = |G| * n in all: the size of G's table.
    """
    fixes = H[1:] == np.arange(H.shape[1])  # (|H| - 1, n): row i fixes x
    for v in range(1, H.shape[1]):
        free = np.flatnonzero(~fixes[fixes[:, v]].any(axis=0)[1:])
        if free.size:
            return (v, int(free[0]) + 1)
    return None


# ---------------------------------------------------------------------------
# Witness constructors from the proofs
# ---------------------------------------------------------------------------


class ConstructorInapplicable(ValueError):
    """A witness recipe's preconditions do not hold for this group."""


def translation_witness(G: PermGroup, p: int, T: np.ndarray) -> PointSet:
    """Delta = W = 0^<t_1>, an order-p additive subgroup of V, for p = char V < |V|."""
    line = orbits([Permutation._trusted(T[1])], G.degree)[0]
    if len(line) != p:
        raise ConstructorInapplicable("p is not the characteristic of V")
    if G.degree == p:
        raise ConstructorInapplicable(
            "|V| = p leaves no room: p^2 does not divide |G| via translations"
        )
    # on catalog groups t_1 adds the last basis vector: W is the points 0..p-1
    return PointSet(G.degree, line)


def regular_vector_witness(G: PermGroup, p: int, H: np.ndarray) -> PointSet:
    """Delta = {0, v} with v in a regular H-orbit (the direct-product recipe)."""
    v = regular_orbit_vector(H)
    if not v:
        raise ConstructorInapplicable("no regular vector on V")
    return PointSet(G.degree, [0, v])


def p2_regular_witness(G: PermGroup, p: int, H: np.ndarray) -> PointSet:
    """Gamma = {0, v, vt}: v regular for H, t an involution in H."""
    if p != 2:
        raise ConstructorInapplicable("recipe is specific to p = 2")
    v = regular_orbit_vector(H)
    if not v:
        raise ConstructorInapplicable("no regular vector on V")
    t = _least_element_of_order(H, 2)
    if t is None:
        raise ConstructorInapplicable("H has no involution")
    return PointSet(G.degree, [0, v, int(t.images[v])])


def metacyclic_witness(G: PermGroup, p: int, H: np.ndarray, T: np.ndarray) -> PointSet:
    """Gamma = {0, w, v, -v}: u a noncentral involution of H, wu = w, vu = -v.

    u is the least such row of H, w and v the least such points.  Centrality
    is tested against generators of G_0 conjugated off G's chain.
    """
    if p != 2:
        raise ConstructorInapplicable("recipe is specific to p = 2")
    neg = T.argmin(axis=1)  # -v is the point that t_v takes to 0
    central = centralizing_rows(H, point_stabilizer_of_zero(G).generators)
    points = np.arange(G.degree)
    fixed = (H == points)[:, 1:]
    negated = ((H == neg) & (neg != points))[:, 1:]
    rows = np.flatnonzero(_order_p_rows(H, 2) & ~central
                          & fixed.any(axis=1) & negated.any(axis=1))
    if rows.size == 0:
        raise ConstructorInapplicable(
            "no noncentral involution with +1 and -1 eigenvectors"
        )
    w = int(np.argmax(fixed[rows[0]])) + 1
    v = int(np.argmax(negated[rows[0]])) + 1
    return PointSet(G.degree, [0, w, v, int(neg[v])])


def orbit_witness_odd_p(G: PermGroup, p: int, H: np.ndarray, T: np.ndarray) -> list[PointSet]:
    """Candidates from the odd-p argument: orbit unions of a regular pair.

    Returns {0} u O1 when the two t-orbits coincide, else both
    {0} u O1 u O2 and the fallback {0, w} u O1, in that order.
    """
    if p == 2:
        raise ConstructorInapplicable("recipe requires odd p")
    t = _least_element_of_order(H, p)
    if t is None:
        raise ConstructorInapplicable("H has no element of order p")
    pair = regular_orbit_pair(H)
    if pair is None:
        raise ConstructorInapplicable("no regular pair on V + V")
    v, w = pair
    orbit = {x: set(orb) for orb in orbits([t], G.degree) for x in orb}
    # t != 1 lies in H and no such row fixes both v and w, so t moves one of them
    if len(orbit[v]) == 1:
        v, w = w, v
    if len(orbit[w]) == 1:
        w = int(T[w, v])  # v + w: (v, v + w) is still in a regular orbit
    if orbit[v] == orbit[w]:
        return [PointSet(G.degree, {0} | orbit[v])]
    return [
        PointSet(G.degree, {0} | orbit[v] | orbit[w]),
        PointSet(G.degree, {0, w} | orbit[v]),
    ]


# ---------------------------------------------------------------------------
# Classification: one stream of candidates, then the census
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
        witness = self.witness.sorted_points() if self.witness else None
        return dict(vars(self), witness=witness)


def exhaustive_p_parts(G: PermGroup, p: int) -> tuple:
    """The census oracle (masks, sizes, counts, parts): (masks, sizes) from
    _orbit_sizes, sparse (the masks some g != 1 fixes) or dense (masks None,
    one size per mask, from the dense cycle count or the label route),
    counts[s] the number of masks of orbit size s, unlisted ones at |G|,
    and parts[s] = (|G| / s)_p = |Stab(S)|_p, 0 for sizes that do not
    occur.  Raises ResourceLimit past MAX_SCAN_BITS before |G| is
    computed, then ValueError when p does not divide |G|."""
    kernels.check_scan_bits(G.degree)  # before |G|, which can cost far more
    if p_part(G.order, p) == 1:
        raise ValueError(f"{p} does not divide |G|")
    masks, sizes = _orbit_sizes(G)
    counts = np.bincount(sizes, minlength=0 if masks is None else G.order + 1)
    counts[-1] += (1 << G.degree) - sizes.size  # the unlisted masks, at |G|
    parts = np.zeros_like(counts)
    present = np.flatnonzero(counts)
    parts[present] = [p_part(G.order // int(s), p) for s in present]
    return masks, sizes, counts, parts


def _least_mask(census: tuple, keep) -> Optional[tuple[int, int]]:
    """(S, |Stab(S)|_p) for the least mask S whose p-part passes keep, or None.
    The one reader of the unlisted masks, of which the cycle route leaves some
    (|G| = 2 gives 2^c(g) < 2^n unions, more repeat the empty one): the first gap."""
    masks, sizes, _, parts = census
    marked = keep(parts)
    hits = marked[sizes]
    i = int(np.argmax(hits))
    found = [(i if masks is None else int(masks[i]), int(parts[sizes[i]]))] if hits[i] else []
    if masks is not None and marked[-1]:
        gap = bisect_left(range(masks.size), True, key=lambda j: masks[j] > j)
        found.append((gap, int(parts[-1])))
    return min(found, default=None)


def census_histogram(G: PermGroup, p: int) -> dict[int, int]:
    """Map from stabilizer p-part value to the number of subsets attaining it."""
    _, _, counts, parts = exhaustive_p_parts(G, p)
    return {v: int(counts[parts == v].sum())
            for v in sorted(set(parts[parts > 0].tolist()))}


def _verify_witness(G: PermGroup, delta: PointSet, p: int,
                    gp: int) -> Optional[int]:
    part = stab_p_part(G, delta, p)
    return part if 1 < part < gp else None


def constructive_candidates(G: PermGroup, p: int) -> Iterator[tuple[str, PointSet]]:
    """The recipes' candidates as (stage, Delta), in recipe order; none when
    translations(G) finds no V.  H = Stab_G(0) is read once, and only when
    the translation candidate has not decided: the rows of G's table that fix
    {0}, by the filter that verifies every candidate.  The other recipes read
    that table.  A recipe whose preconditions fail gives no candidate.

    regular-vector runs at p = 2 only: with v in a regular H-orbit, the
    elements that fix 0 and v lie in G_0 & G_v = 1, so |Stab({0, v})| <= 2.
    """
    T = translations(G)
    if T is None:
        return
    yield from _recipe("translation", lambda: [translation_witness(G, p, T)])
    H = G.elements[_stabilizing_rows(G, PointSet(G.degree, [0]))]
    if p == 2:
        yield from _recipe("regular-vector", lambda: [regular_vector_witness(G, p, H)])
        yield from _recipe("regular-triple", lambda: [p2_regular_witness(G, p, H)])
        yield from _recipe("metacyclic", lambda: [metacyclic_witness(G, p, H, T)])
    else:
        yield from _recipe("orbit-union", lambda: orbit_witness_odd_p(G, p, H, T))


def _recipe(stage: str, make) -> list[tuple[str, PointSet]]:
    try:
        return [(stage, delta) for delta in make()]
    except ConstructorInapplicable:
        return []


def classify_moderation(G: PermGroup, p: int, strategy: str = "constructive",
                        seed: int = 0) -> ModerationReport:
    """Decide MODERATE vs EXTREME; the exhaustive strategy is the oracle.

    The constructive strategy verifies the recipes' candidates, then seeded
    unions of the orbits of z, the least element of order p in G's table
    (stage q-orbits); both strategies end in the census, so the verdict is
    exact.
    """
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
    elif strategy == "constructive":
        for stage, delta in constructive_candidates(G, p):
            part = _verify_witness(G, delta, p, gp)
            if part is not None:
                return _moderate(report, stage, delta, part)
        z = _least_element_of_order(G.elements, p)
        delta = randomized_witness_from_z(G, p, z, seed)
        if delta is not None:
            return _moderate(report, "q-orbits", delta, stab_p_part(G, delta, p))

    report.exhaustive = True
    try:
        census = exhaustive_p_parts(G, p)
    except ResourceLimit:
        if gp > p:
            raise
        return report  # the verdict stands; concealment stays unknown
    least = _least_mask(census, lambda parts: (parts > 1) & (parts < gp))
    if least is not None:
        return _moderate(report, "exhaustive", PointSet.from_mask(n, least[0]), least[1])
    _, _, counts, parts = census
    report.concealed = bool((parts[counts > 0] == gp).all())
    return report


def _moderate(report: ModerationReport, stage: str, witness: PointSet,
              part: int) -> ModerationReport:
    report.status = "MODERATE"
    report.stage = stage
    report.witness = witness
    report.stab_p_part = part
    return report
