"""Kernels over all 2^n subsets of {0..n-1}.

Subsets are encoded as bit masks, point i -> bit 2^i.  Every per-subset fact
follows from the orbit sizes |S^G|, since |Stab(S)| = |G| / |S^G| and S is
fixed by a Sylow p-subgroup iff p does not divide |S^G|.  Two production
kernels give them, and `classify._orbit_sizes` picks one from the input:
`cycle_union_stabilizers` lists the masks that some g != 1 fixes (the unions
of its cycles) with |Stab(S)|, a mask not listed having trivial stabilizer;
`subset_orbit_sizes` labels the masks' orbits from the generators alone, for
groups whose table is too large or whose cycle unions outnumber the masks.
`stabilizer_counts` and `mark_orbit_unions` are definitional references that
only the tests and the benchmark's tracer use; no production code calls them.
"""

from __future__ import annotations

from typing import Iterable

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


def cycle_union_stabilizers(elems: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(masks, stab): the sorted int32 masks that some non-identity element
    fixes, and |Stab(S)| for each; a mask not listed has trivial stabilizer.

    elems is the sorted (|G|, n) element table, row 0 the identity.  An
    element g fixes exactly the 2^c(g) unions of its c(g) cycles, so
    |Stab(S)| is 1 plus the number of non-identity rows of which S is a
    cycle union.  Each point's cycle mask is ORed up by pointer doubling;
    the rows are grouped by cycle count and each group's unions are built
    by doubling and sorted in place: a run of equal unions is one mask.
    Raises ResourceLimit, before any union is built, when sum over g != 1
    of 2^c(g) exceeds the 2^n masks.
    """
    check_scan_bits(n)
    step = elems[1:]
    bits = np.int32(1) << np.arange(n, dtype=np.int32)
    cyc = np.broadcast_to(bits, step.shape)
    for _ in range((n - 1).bit_length()):
        cyc = cyc | np.take_along_axis(cyc, step, axis=1)
        step = np.take_along_axis(step, step, axis=1)
    # a cycle's mask is read at its least point, whose bit is the lowest one
    lead = (cyc & -cyc) == bits
    ncyc = lead.sum(axis=1)
    rows_with = np.bincount(ncyc, minlength=n + 1)  # rows with c cycles, by c
    total = sum(int(k) << c for c, k in enumerate(rows_with))
    if total > 1 << n:
        raise ResourceLimit(f"{total} cycle unions exceed the {1 << n} subset masks")
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
