"""Kernels over all 2^n subsets of {0..n-1}.

Subsets are encoded as bit masks, point i -> bit 2^i.  Every per-subset fact
follows from the orbit sizes |S^G|, since |Stab(S)| = |G| / |S^G| and S is
fixed by a Sylow p-subgroup iff p does not divide |S^G|.  Two production
kernels give them, and `classify._orbit_sizes` picks one from the input:
`cycle_union_stabilizers` counts the unions of the non-identity elements'
cycles, which are exactly the masks each element fixes.  When they number
at most 2^n it lists the masks that some g != 1 fixes with |Stab(S)|, a mask
not listed having trivial stabilizer; up to a cap of one mask image per
generator, max(1, #gens) * 2^n, it counts them into one |Stab(S)| per mask;
past the cap it refuses.  `subset_orbit_sizes` labels the masks' orbits from
the generators alone, for groups whose table is too large or whose cycle
unions pass the cap; it holds one int32 image of all 2^n masks per
generator, which is why the cap is set there.
`stabilizer_counts` and `mark_orbit_unions` are definitional references that
only the tests and the benchmark's tracer use; no production code calls them.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .perms import ResourceLimit

MAX_SCAN_BITS = 24


def _mask_images(images: np.ndarray, n: int) -> np.ndarray:
    """The image of every mask 0..2^n-1 under one permutation, by doubling."""
    out = np.zeros(1, dtype=np.int32)
    for j in range(n):
        out = np.concatenate([out, out | np.int32(1 << int(images[j]))])
    return out


def check_scan_bits(n: int) -> None:
    """Raise ResourceLimit when the 2^n subsets of n points are too many to scan."""
    if n > MAX_SCAN_BITS:
        raise ResourceLimit(f"degree {n} exceeds MAX_SCAN_BITS = {MAX_SCAN_BITS}")


def subset_orbit_sizes(gens: Iterable[np.ndarray], n: int) -> np.ndarray:
    """|S^G| for every subset mask S, G = <gens> given by image arrays.

    Each mask is labelled with the least mask of its orbit: labels are pulled
    along each generator's mask images and shortened by pointer jumping
    (label = label[label]) until a round changes nothing.  A label is always
    a member of its mask's orbit, and at the fixed point it is constant along
    every generator cycle, hence on orbits.  Each round costs O(2^n * #gens)
    and no group element is enumerated.
    """
    check_scan_bits(n)
    images = [_mask_images(g, n) for g in gens]
    label = np.arange(1 << n, dtype=np.int32)
    while True:
        before = label
        label = label.copy()
        for img in images:
            np.minimum(label, label[img], out=label)
        label = label[label]
        if np.array_equal(label, before):
            break
    del images, before  # free them before the two count arrays are built
    return np.bincount(label, minlength=1 << n)[label]


def cycle_union_stabilizers(elems: np.ndarray, n: int,
                            cap: int) -> tuple[Optional[np.ndarray], np.ndarray]:
    """(masks, stab): |Stab(S)| from the cycle unions of the non-identity
    elements, counted sparsely or densely.

    elems is the sorted (|G|, n) element table, row 0 the identity.  An
    element g fixes exactly the 2^c(g) unions of its c(g) cycles, so
    |Stab(S)| is 1 plus the number of non-identity rows of which S is a
    cycle union.  Each point's cycle mask is ORed up by pointer doubling on
    flat row-offset indices; the rows are grouped by cycle count and each
    group's unions are built by doubling.  With total = sum over g != 1 of
    2^c(g), the call ends in one of three ways:
      * total <= 2^n: the unions are sorted in place and a run of equal
        unions is one mask; masks lists, sorted as int32, the masks that some
        g != 1 fixes, and a mask not listed has trivial stabilizer;
      * 2^n < total <= cap: masks is None and stab holds |Stab(S)| for
        every mask, the unions counted into it unsorted;
      * total > cap: ResourceLimit naming total and cap, before any union
        is built.
    """
    check_scan_bits(n)
    m = elems.shape[0] - 1
    # flat indices; MAX_TABLE_BYTES keeps |G| * n far below 2^31
    step = (np.arange(m, dtype=np.int32) * np.int32(n))[:, None] + elems[1:]
    bits = np.int32(1) << np.arange(n, dtype=np.int32)
    cyc = np.tile(bits, (m, 1))
    for _ in range((n - 1).bit_length()):
        cyc |= cyc.take(step)
        step = step.take(step)
    del step
    # a cycle's mask is read at its least point, whose bit is the lowest one
    lead = (cyc & -cyc) == bits
    ncyc = lead.sum(axis=1)
    rows_with = np.bincount(ncyc, minlength=n + 1)  # rows with c cycles, by c
    total = sum(int(k) << c for c, k in enumerate(rows_with))
    if total > cap:
        raise ResourceLimit(f"{total} cycle unions exceed the cap of {cap}")
    unions = np.empty(total, dtype=np.int32)
    start = 0
    for c in map(int, np.flatnonzero(rows_with)):
        rows = np.flatnonzero(ncyc == c)
        cycles = cyc[rows][lead[rows]].reshape(rows.size, c)
        out = unions[start:start + (rows.size << c)].reshape(rows.size, 1 << c)
        start += out.size
        out[:, 0] = 0
        for j in range(c):
            np.bitwise_or(out[:, :1 << j], cycles[:, j, None], out=out[:, 1 << j:2 << j])
    if total > 1 << n:
        stab = np.ones(1 << n, dtype=np.intp)  # the identity fixes every mask
        np.add.at(stab, unions, 1)  # unlike bincount, no intp copy of unions
        return None, stab
    unions.sort()
    first = np.ones(total, dtype=bool)  # where a run of equal unions starts
    np.not_equal(unions[1:], unions[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    stab = np.diff(starts, append=total)
    stab += 1  # the identity fixes every mask
    return unions[starts], stab


def stabilizer_counts(elems: np.ndarray, n: int) -> np.ndarray:
    """|Stab(S)| for every subset mask S, by scanning all elements.

    elems is the (m, n) image array of all group elements.  For each element
    the image of every mask is built with n shifted ORs; equality marks the
    masks that element stabilizes.  Cost 2^n * n * |G|.
    """
    check_scan_bits(n)
    total = np.int64(1) << n
    masks = np.arange(total, dtype=np.int64)
    counts = np.zeros(total, dtype=np.int64)
    for row in elems:
        img = np.zeros(total, dtype=np.int64)
        for j in range(n):
            img |= ((masks >> j) & 1) << np.int64(row[j])
        counts += img == masks
    return counts


def mark_orbit_unions(covered: np.ndarray, orbit_masks: list[int]) -> None:
    """Set covered[u] for every union u of the given orbit masks.

    A subgroup with these orbits stabilizes exactly these 2^r unions, so
    marking them over all Sylow conjugates is the definition of coverage.
    """
    unions = np.zeros(1, dtype=np.int64)
    for om in orbit_masks:
        unions = np.concatenate([unions, unions | np.int64(om)])
    covered[unions] = True
