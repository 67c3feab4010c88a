"""Permutations on {0..n-1} and finite permutation groups.

Convention: points are acted on from the right, so (x)(ab) = ((x)a)b.
compose(a, b) means "apply a, then b".  This matters: composition order is
the classic source of silent bugs, so every routine in this package sticks
to the right-action convention.

The row filters over a group's point-major element table live here: setwise
stabilizers (stab_p_part, the verifier of every witness), the normalizer,
the centralizing rows, and the row powers and first-row reader of p-elements.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .fields import is_prime, p_part

MAX_DEGREE = 4096  # bound on the degree of any group built from a document
# bound on |G| * degree * 4; a stored table takes 1/4 of that up to degree 256
# (one byte a point) and 1/2 up to MAX_DEGREE (two bytes)
MAX_TABLE_BYTES = 1 << 26


class DegreeMismatch(ValueError):
    pass


class ResourceLimit(RuntimeError):
    """A computation would exceed a configured bound."""


class Permutation:
    """An immutable permutation of {0..n-1}, stored as its image array."""

    __slots__ = ("images", "_key")

    def __init__(self, images: Sequence[int] | np.ndarray):
        arr = np.asarray(images, dtype=np.int32)
        if arr.ndim != 1:
            raise ValueError("images must be a 1-d sequence")
        n = arr.shape[0]
        if n == 0:
            raise ValueError("degree must be positive")
        counts = np.bincount(arr, minlength=n) if arr.min(initial=0) >= 0 else None
        if counts is None or arr.max() >= n or not (counts == 1).all():
            raise ValueError("images is not a bijection on {0..n-1}")
        arr.setflags(write=False)
        self.images = arr
        self._key = arr.tobytes()

    @classmethod
    def _trusted(cls, images: np.ndarray) -> "Permutation":
        """A permutation from an image array that is a bijection by construction.

        A row of an element table, stored at the table's narrow width, is
        copied to int32 here, so every Permutation, its key, == and hash
        are the same however its images were stored, and a group whose
        generators are grown from table rows does not keep the table alive."""
        if images.dtype != np.int32:
            images = images.astype(np.int32)
        g = object.__new__(cls)
        images.setflags(write=False)
        g.images = images
        g._key = images.tobytes()
        return g

    @property
    def degree(self) -> int:
        return self.images.shape[0]

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(np.arange(degree, dtype=np.int32))

    def is_identity(self) -> bool:
        return bool((self.images == np.arange(self.degree, dtype=np.int32)).all())

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(self.degree, dtype=np.int32)
        return Permutation._trusted(inv)

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** -k
        if k == 0:
            return Permutation.identity(self.degree)
        return Permutation._trusted(_power(self.images[np.newaxis], k)[0])

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = int(self.images[start])
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = int(self.images[x])
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Right-action product: the result maps x to b(a(x))."""
    if a.degree != b.degree:
        raise DegreeMismatch(f"degree {a.degree} != {b.degree}")
    return Permutation._trusted(b.images[a.images])


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 0-indexed cycle notation, e.g. "(0 1 2)(3 4)".

    The empty string is the identity.  Points must be < degree and no point
    may repeat across cycles.
    """
    if degree <= 0:
        raise ValueError("degree must be positive")
    images = list(range(degree))
    seen: set[int] = set()
    s = text.strip()
    pos = 0
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        if s[pos] != "(":
            raise ValueError(f"expected '(' at position {pos} in {text!r}")
        end = s.find(")", pos)
        if end < 0:
            raise ValueError(f"unclosed cycle in {text!r}")
        body = s[pos + 1 : end].split()
        if not body:
            raise ValueError(f"empty cycle in {text!r}")
        try:
            points = [int(tok) for tok in body]
        except ValueError:
            raise ValueError(f"non-integer point in {text!r}") from None
        for pt in points:
            if not 0 <= pt < degree:
                raise ValueError(f"point {pt} out of range for degree {degree}")
            if pt in seen:
                raise ValueError(f"point {pt} repeated in {text!r}")
            seen.add(pt)
        for i, pt in enumerate(points):
            images[pt] = points[(i + 1) % len(points)]
        pos = end + 1
    return Permutation(images)


def format_cycles(g: Permutation) -> str:
    cycs = g.cycles()
    if not cycs:
        return ""
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


def orbits(gens: Iterable[Permutation], degree: int) -> list[list[int]]:
    """Orbit partition of <gens> on {0..degree-1}, sorted by least element."""
    gens = list(gens)
    assigned = [False] * degree
    parts: list[list[int]] = []
    for start in range(degree):
        if assigned[start]:
            continue
        orbit = [start]
        assigned[start] = True
        stack = [start]
        while stack:
            x = stack.pop()
            for g in gens:
                y = int(g.images[x])
                if not assigned[y]:
                    assigned[y] = True
                    orbit.append(y)
                    stack.append(y)
        parts.append(sorted(orbit))
    return parts


class PointSet:
    """A subset of {0..n-1}, held as its bit mask (point i -> bit 2^i) and
    nothing else: its boolean array, sorted points and size are read off it."""

    __slots__ = ("degree", "mask")

    def __init__(self, degree: int, points: Iterable[int]):
        mask = 0
        for x in map(int, points):
            if not 0 <= x < degree:
                raise ValueError(f"point {x} out of range for degree {degree}")
            mask |= 1 << x
        self.degree = degree
        self.mask = mask

    @staticmethod
    def from_mask(degree: int, mask: int) -> "PointSet":
        if not 0 <= mask < 1 << degree:
            raise ValueError(f"mask out of range for degree {degree}")
        ps = PointSet.__new__(PointSet)
        ps.degree, ps.mask = degree, int(mask)
        return ps

    def sorted_points(self) -> list[int]:
        return np.flatnonzero(self.bool_array()).tolist()

    def bool_array(self) -> np.ndarray:
        raw = np.frombuffer(self.mask.to_bytes((self.degree + 7) // 8, "little"), np.uint8)
        return np.unpackbits(raw, count=self.degree, bitorder="little").view(bool)

    def image(self, g: Permutation) -> "PointSet":
        return PointSet(self.degree, g.images[self.bool_array()])

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.degree and bool(self.mask >> int(x) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sorted_points())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PointSet) and other.degree == self.degree
                and other.mask == self.mask)

    def __hash__(self) -> int:
        return hash((self.degree, self.mask))

    def __repr__(self) -> str:
        return f"PointSet({self.degree}, {self.sorted_points()})"


# ---------------------------------------------------------------------------
# Stabilizer chain (Schreier-Sims): the source of |G|, membership and elements.
# ---------------------------------------------------------------------------


class _ChainLevel:
    __slots__ = ("base_point", "transversal", "inverses")

    def __init__(self, base_point: int, identity: np.ndarray):
        self.base_point = base_point
        self.transversal = {base_point: identity}  # point -> representative's images
        self.inverses = {base_point: identity}  # point -> images of representative^-1


class StabilizerChain:
    """Deterministic one-pass incremental Schreier-Sims for small degrees.

    Every stored element is a read-only int32 image array: the product "a,
    then b" is b[a] (one gather, b.take(a)), and the identity test compares
    bytes with the identity's.
    The strong generators form one list of (images, depth) pairs: each fixes
    the base points before that level, so it generates levels 0..depth.  Each
    (orbit point x, strong generator s) pair of a level is handled once: a
    new x^s extends the transversal, else the Schreier generator
    u_x s u_{x^s}^-1 is sifted, and a residue that does not sift becomes a
    strong generator.  Pairs wait in a queue, deepest level first, so each
    sift runs through levels that are already complete.
    """

    def __init__(self, degree: int, gens: Iterable[Permutation] = ()):
        self.degree = degree
        self.identity = np.arange(degree, dtype=np.int32)
        self.identity.setflags(write=False)
        self._identity_key = self.identity.tobytes()
        self.levels: list[_ChainLevel] = []
        self.strong: list[tuple[np.ndarray, int]] = []  # (images, depth)
        for g in gens:
            self.add_generator(g)

    def order(self) -> int:
        return math.prod(len(lvl.transversal) for lvl in self.levels)

    def contains(self, g: Permutation) -> bool:
        residue, _ = self._sift(g.images)
        return residue.tobytes() == self._identity_key

    def add_generator(self, g: Permutation) -> bool:
        """Grow the group by g; False, with nothing changed, when g is a member."""
        residue, depth = self._sift(g.images)
        if residue.tobytes() == self._identity_key:
            return False
        pending: list[tuple[int, int, int]] = []  # heap of (-level, point, strong index)
        self._add_strong(residue, depth, pending)
        while pending:
            neg_level, x, k = heapq.heappop(pending)
            lvl, s = self.levels[-neg_level], self.strong[k][0]
            y = s.item(x)
            u = s.take(lvl.transversal[x])
            if y in lvl.transversal:
                residue, depth = self._sift(lvl.inverses[y].take(u))
                if residue.tobytes() != self._identity_key:
                    self._add_strong(residue, depth, pending)
                continue
            inverse = np.empty_like(u)
            inverse[u] = self.identity
            u.setflags(write=False)
            inverse.setflags(write=False)
            lvl.transversal[y] = u
            lvl.inverses[y] = inverse
            for j, (_, depth) in enumerate(self.strong):
                if depth >= -neg_level:
                    heapq.heappush(pending, (neg_level, y, j))
        return True

    def _sift(self, g: np.ndarray) -> tuple[np.ndarray, int]:
        for i, lvl in enumerate(self.levels):
            x = g.item(lvl.base_point)
            if x == lvl.base_point:
                continue
            rep = lvl.inverses.get(x)
            if rep is None:
                return g, i
            g = rep.take(g)
        return g, len(self.levels)

    def _add_strong(self, s: np.ndarray, depth: int,
                    pending: list[tuple[int, int, int]]) -> None:
        """Make s a strong generator of levels 0..depth and queue its pairs."""
        if depth == len(self.levels):
            moved = int(np.flatnonzero(s != self.identity)[0])
            self.levels.append(_ChainLevel(moved, self.identity))
        s.setflags(write=False)
        k = len(self.strong)
        self.strong.append((s, depth))
        for i in range(depth + 1):
            for x in self.levels[i].transversal:
                heapq.heappush(pending, (-i, x, k))


# ---------------------------------------------------------------------------
# PermGroup
# ---------------------------------------------------------------------------


class PermGroup:
    """A group of permutations of {0..n-1} given by generators.

    The stabilizer chain and element table are cached with single-assignment
    semantics, so shared read-only use is safe.  The one exception is grow,
    which adds a generator in place: it is only for a group that is still
    being built and not yet shared.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation],
                 name: Optional[str] = None):
        gens = [g for g in generators if not g.is_identity()]
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatch("generator degree mismatch")
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self.name = name
        self._elements: Optional[np.ndarray] = None  # (|G|, n), lex-sorted rows
        self._chain: Optional[StabilizerChain] = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_cycles(degree: int, cycle_strings: Iterable[str], **kw) -> "PermGroup":
        return PermGroup(degree, [parse_cycles(s, degree) for s in cycle_strings], **kw)

    @staticmethod
    def trivial(degree: int) -> "PermGroup":
        return PermGroup(degree, [], name=f"Trivial({degree})")

    # -- order and elements ----------------------------------------------------

    @property
    def order(self) -> int:
        return self.chain.order()

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators)
        return self._chain

    @property
    def elements(self) -> np.ndarray:
        """All elements as a lexicographically sorted (|G|, n) image array.

        Each image is stored in np.min_scalar_type(n - 1), the narrowest
        unsigned type that holds it: uint8 up to n = 256, uint16 up to 4096.
        The readers compare, index and gather, which need no wider type, and
        a Permutation made from a row is int32 (Permutation._trusted).
        The table is stored point-major (Fortran order): E[:, x], the image
        of x under every element, is contiguous, so the filters that read
        one point at a time (setwise stabilizers, the normalizer's orbit
        prefilter) read whole columns.  A row E[i] is a strided view, and
        readers that need contiguous rows copy them.  The sort reads only
        the columns up to the largest base point, at the table's own width,
        and is applied in place, so a build holds one table plus its sort
        order (see _enumerate).  Raises ResourceLimit, before anything is
        allocated, when |G| * n * 4 bytes would exceed MAX_TABLE_BYTES.
        """
        if self._elements is None:
            size = self.order * self.degree * 4
            if size > MAX_TABLE_BYTES:
                raise ResourceLimit(f"element table of {size} bytes exceeds "
                                    f"MAX_TABLE_BYTES = {MAX_TABLE_BYTES}")
            self._elements = self._enumerate()
        return self._elements

    def _enumerate(self) -> np.ndarray:
        """Every element as a product of transversal representatives, deepest
        level first: each level multiplies the elements so far on the right
        by its representatives, one gather of the representatives by them.
        The identity and the representatives are cast to the table's narrow
        type first, so every level's product is built at that width.

        The table is built transposed, one point per row of arrT, so the
        gathers and the sort read contiguous rows of arrT; its transpose is
        the point-major (|G|, n) table.
        The rows are sorted on columns 0..b only, b the largest base point.
        An element is determined by its base images, so two distinct rows
        differ at some column <= b; their first difference lies there too,
        and the order on those columns is the full lexicographic order.
        One lexsort runs over those rows of arrT at the table's own width,
        with no wider copy: numpy sorts keys of 16 bits or fewer by a stable
        radix sort, linear in the rows, which on uint8 tables beats packing
        the columns into int64 keys and sorting those.
        The sort order is then applied to arrT in place, an eighth of the
        points at a time, so the build never holds a second full table: its
        peak is the table plus one block and the sort order.
        """
        n = self.degree
        levels = self.chain.levels
        dtype = np.min_scalar_type(n - 1)
        arrT = self.chain.identity[:, np.newaxis].astype(dtype)  # a copy, sorted in place
        for lvl in reversed(levels):
            repsT = np.stack(list(lvl.transversal.values()), axis=1).astype(dtype)
            arrT = np.take(repsT, arrT, axis=0).reshape(n, -1)
        columns = max((lvl.base_point for lvl in levels), default=0) + 1
        order = np.lexsort(arrT[columns - 1::-1])
        step = -(-n // 8)
        for start in range(0, n, step):
            block = arrT[start:start + step]
            block[...] = block.take(order, axis=1)
        arr = arrT.T
        arr.setflags(write=False)
        return arr

    def iter_elements(self) -> Iterator[Permutation]:
        for row in self.elements:
            yield Permutation._trusted(row)

    def __contains__(self, g: Permutation) -> bool:
        return g.degree == self.degree and self.chain.contains(g)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(g in other for g in self.generators)

    def grow(self, g: Permutation) -> bool:
        """Add g to the generators and extend the chain by it, dropping any
        cached element table; False, with nothing changed, when g is a member."""
        if not self.chain.add_generator(g):
            return False
        self.generators += (g,)
        self._elements = None
        return True

    def subgroup(self, gens: Iterable[Permutation], name: Optional[str] = None) -> "PermGroup":
        return PermGroup(self.degree, gens, name=name)

    # -- basic structure -------------------------------------------------------

    def orbits(self) -> list[list[int]]:
        return orbits(self.generators, self.degree)

    def is_transitive(self) -> bool:
        """The chain's level 0 holds the orbit of the first base point."""
        levels = self.chain.levels
        return len(levels[0].transversal) == self.degree if levels else self.degree == 1

    def __repr__(self) -> str:
        label = self.name or f"{len(self.generators)} gens"
        return f"PermGroup(degree={self.degree}, {label})"


# ---------------------------------------------------------------------------
# Row filters over the point-major element table
# ---------------------------------------------------------------------------


def _column(E: np.ndarray, x: int, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Column x of the point-major table E at the increasing `rows` (in place
    when None or every row), widened to intp: numpy indexes by a narrower
    dtype through a buffered cast, about 3x slower than the gather itself."""
    column = E[:, x] if rows is None or rows.size == E.shape[0] else E[:, x].take(rows)
    return column.astype(np.intp)


def _stabilizing_rows(G: PermGroup, delta: PointSet) -> np.ndarray:
    """Increasing indices of the rows of G.elements that fix delta setwise.

    A bijection fixes delta iff it maps delta, or equally its complement,
    into itself: the smaller side filters the rows one point at a time.
    G.elements is point-major, so the first point's filter reads one whole
    contiguous column, and each later one reads its column at the rows kept.
    Each column is widened to intp (`_column`), |G| * 8 bytes at most.  Row 0,
    the identity, fixes every delta: the filter stops once it is alone.
    """
    if delta.degree != G.degree:
        raise ValueError("point set degree mismatch")
    side = delta.bool_array()
    if 2 * side.sum() > G.degree:
        side = ~side
    E = G.elements
    points = np.flatnonzero(side)
    if points.size == 0:  # delta is empty or all of Omega
        return np.arange(E.shape[0])
    keep = np.flatnonzero(side[_column(E, points[0])])
    for x in points[1:]:
        if keep.size == 1:
            break
        keep = keep.compress(side[_column(E, x, keep)])
    return keep


def stab_p_part(G: PermGroup, delta: PointSet, p: int) -> int:
    """|Stab_G(delta)|_p, from the number of stabilizing rows."""
    return p_part(_stabilizing_rows(G, delta).size, p)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque (void) key per row, for vectorized membership tests."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def normalizer(G: PermGroup, H: PermGroup) -> np.ndarray:
    """The rows of G.elements that form N_G(H) = {g in G : g^-1 H g = H},
    still sorted; requires H <= G, both enumerable.  N_G(1) = G at once.

    A row g that normalizes H maps each H-orbit onto an H-orbit, since
    (x^h)^g = (x^g)^(g^-1 h g).  So the rows are first filtered point by
    point: g must map each orbit O into the orbit T of the image of O's
    least point, with |T| = |O|; each step reads one column of the
    point-major table at the surviving rows, widened to intp (`_column`).
    The last orbit needs no test: g is a bijection, so the others map onto
    distinct orbits and it maps onto the one left.  It suffices to conjugate
    H's generators into H, as |g^-1 H g| = |H|.  If every row survives (H may
    be normal), each g^-1 h g for G's generators g is sifted through H's
    chain: all in H give N_G(H) = G.  Else each h is conjugated by the
    surviving rows at once: g^-1 h g maps g[y] to g[h[y]], one scatter a row.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    E = G.elements
    if not H.generators:
        return E
    parts = H.orbits()
    label = np.empty(G.degree, dtype=np.intp)
    for i, orbit in enumerate(parts):
        label[orbit] = i
    sizes = np.bincount(label)
    keep = np.arange(E.shape[0])
    for orbit in parts[:-1]:
        target = label[_column(E, orbit[0], keep)]
        ok = sizes[target] == len(orbit)
        keep, target = keep[ok], target[ok]
        for x in orbit[1:]:
            ok = label[_column(E, x, keep)] == target
            keep, target = keep[ok], target[ok]
    if keep.size == E.shape[0] and all(g.inverse() * h * g in H
                                       for g in G.generators for h in H.generators):
        return E
    hkeys = _row_keys(H.elements)
    for h in H.generators:
        rows = E[keep]
        conj = np.empty_like(rows)
        np.put_along_axis(conj, rows, rows[:, h.images], axis=1)
        keep = keep[np.isin(_row_keys(conj), hkeys)]
    return E[keep]


def centralizing_rows(E: np.ndarray, gens: Iterable[Permutation]) -> np.ndarray:
    """Mask of the rows h of E with hg = gh, i.e. g[h[x]] = h[g[x]] for all
    x, for every g in gens."""
    keep = np.ones(E.shape[0], dtype=bool)
    for g in gens:
        keep &= (g.images[E] == E[:, g.images]).all(axis=1)
    return keep


def _power(E: np.ndarray, e: int) -> np.ndarray:
    """The rows g^e of E, for e >= 1, by square-and-multiply: O(log e) gathers."""
    offsets = np.arange(0, E.size, E.shape[1])[:, np.newaxis]  # row starts in .ravel()
    power = E
    for bit in bin(e)[3:]:  # left to right: square, then times g on a 1 bit
        power = power.ravel().take(power + offsets)
        if bit == "1":
            power = E.ravel().take(power + offsets)
    return power


def _least_row(E: np.ndarray, keep) -> Optional[Permutation]:
    """The first row of E that passes keep, a mask of a block of rows, or None.
    keep sees blocks of 8, 16, 32, ... rows in table order: a first hit at
    row i costs keep over at most 2i + 8 rows, not over all of E."""
    start, size = 0, 8
    while start < E.shape[0]:
        hits = np.flatnonzero(keep(E[start:start + size]))
        if hits.size:
            return Permutation._trusted(E[start + hits[0]])
        start, size = start + size, 2 * size
    return None


def _order_p_rows(E: np.ndarray, p: int) -> np.ndarray:
    """Mask of the rows g of E with g^p = 1 != g; for p prime these are the
    elements of order p."""
    points = np.arange(E.shape[1])
    return (_power(E, p) == points).all(axis=1) & (E != points).any(axis=1)


def _least_element_of_order(E: np.ndarray, p: int) -> Optional[Permutation]:
    """The least element of prime order p in the sorted element table E, or None."""
    return _least_row(E, lambda rows: _order_p_rows(rows, p))


# ---------------------------------------------------------------------------
# Point stabilizers, blocks and primitivity, read off the stabilizer chain
# ---------------------------------------------------------------------------


def point_stabilizer_of_zero(G: PermGroup) -> PermGroup:
    """G_0 = Stab_G(0), read off the chain, for block search and the metacyclic recipe.

    The strong generators of depth >= 1 generate G_b, b the first base
    point; conjugating each by the level-0 representative u with b^u = 0
    gives generators of G_0 = u^-1 G_b u.  Any G with 0 in the orbit of b
    will do; for other groups this raises ValueError.
    """
    levels = G.chain.levels
    if not levels:
        return PermGroup(G.degree, (), name="H")
    if 0 not in levels[0].transversal:
        raise ValueError("0 is not in the orbit of the first base point")
    u, u_inv = levels[0].transversal[0], levels[0].inverses[0]
    gens = (Permutation._trusted(u[s[u_inv]]) for s, depth in G.chain.strong if depth >= 1)
    return PermGroup(G.degree, gens, name="H")


def primitivity_blocks(G: PermGroup) -> Optional[list[list[int]]]:
    """The block system of the least beta whose finest system with 0 ~ beta
    is nontrivial, or None when G is primitive.

    Blocks containing 0 are the orbits of 0 under the subgroups between G_0
    and G, so the least block holding 0 and beta is the orbit of 0 under
    <G_0, h> for any h with 0^h = beta.  Seeds in one G_0-orbit give one
    system: one beta per G_0-orbit is tried, least first.  A block's size
    divides n, so a transitive group of prime degree is primitive.
    """
    if not G.is_transitive():
        raise ValueError("block search requires a transitive group")
    n = G.degree
    if n == 1 or is_prime(n):
        return None
    top = G.chain.levels[0]  # top.transversal[x][top.inverses[0]] takes 0 to x
    stab = point_stabilizer_of_zero(G).generators
    for orbit in orbits(stab, n)[1:]:
        h = Permutation._trusted(top.transversal[orbit[0]][top.inverses[0]])
        block = orbits(stab + (h,), n)[0]
        if len(block) < n:
            break
    else:
        return None
    system, covered = [], np.zeros(n, dtype=bool)
    for x in range(n):  # the least uncovered point starts the next block
        if not covered[x]:
            image = np.sort(top.transversal[x][top.inverses[0]][block])
            covered[image] = True
            system.append(image.tolist())
    return system


def is_primitive(G: PermGroup) -> bool:
    return G.is_transitive() and primitivity_blocks(G) is None
