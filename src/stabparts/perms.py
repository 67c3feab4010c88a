"""Permutations on {0..n-1} and finite permutation groups.

Convention: points are acted on from the right, so (x)(ab) = ((x)a)b.
compose(a, b) means "apply a, then b".  This matters: composition order is
the classic source of silent bugs, so every routine in this package sticks
to the right-action convention.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

MAX_DEGREE = 4096  # bound on the degree of any group built from a document
MAX_TABLE_BYTES = 1 << 26  # bound on |G| * degree * 4, the bytes of an element table


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
        """A permutation from an int32 image array that is a bijection by construction."""
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
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def order(self) -> int:
        return element_order(self)

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
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
            if len(cyc) > 1 or include_fixed:
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


def element_order(g: Permutation) -> int:
    order = 1
    for c in g.cycles():
        order = order * len(c) // _gcd(order, len(c))
    return order


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


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
    """A subset of {0..n-1}, with a bit-mask view (point i -> bit 2^i)."""

    __slots__ = ("degree", "members")

    def __init__(self, degree: int, members: Iterable[int]):
        pts = frozenset(int(x) for x in members)
        for x in pts:
            if not 0 <= x < degree:
                raise ValueError(f"point {x} out of range for degree {degree}")
        self.degree = degree
        self.members = pts

    @staticmethod
    def from_mask(degree: int, mask: int) -> "PointSet":
        return PointSet(degree, [i for i in range(degree) if mask >> i & 1])

    @property
    def mask(self) -> int:
        m = 0
        for x in self.members:
            m |= 1 << x
        return m

    def sorted_points(self) -> list[int]:
        return sorted(self.members)

    def bool_array(self) -> np.ndarray:
        arr = np.zeros(self.degree, dtype=bool)
        arr[list(self.members)] = True
        return arr

    def image(self, g: Permutation) -> "PointSet":
        return PointSet(self.degree, (int(g.images[x]) for x in self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.sorted_points())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PointSet) and other.degree == self.degree
                and other.members == self.members)

    def __hash__(self) -> int:
        return hash((self.degree, self.members))

    def __repr__(self) -> str:
        return f"PointSet({self.degree}, {self.sorted_points()})"


# ---------------------------------------------------------------------------
# Stabilizer chain (Schreier-Sims): the source of |G|, membership and elements.
# ---------------------------------------------------------------------------


class _ChainLevel:
    __slots__ = ("base_point", "gens", "transversal", "inverses")

    def __init__(self, base_point: int, degree: int):
        self.base_point = base_point
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {
            base_point: Permutation.identity(degree)
        }
        self.inverses = dict(self.transversal)  # point -> representative^-1


class StabilizerChain:
    """Deterministic incremental Schreier-Sims for small degrees."""

    def __init__(self, degree: int, gens: Iterable[Permutation] = ()):
        self.degree = degree
        self.levels: list[_ChainLevel] = []
        for g in gens:
            self.add_generator(g)

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def contains(self, g: Permutation) -> bool:
        residue, _ = self._sift(g, 0)
        return residue.is_identity()

    def add_generator(self, g: Permutation) -> None:
        residue, level = self._sift(g, 0)
        if residue.is_identity():
            return
        level = self._place(level, residue)
        # The residue fixes every base point above its level, so it joins the
        # generating set of each of those levels too; recomplete them all.
        for i in range(level, -1, -1):
            self._complete_level(i)

    def _sift(self, g: Permutation, start: int) -> tuple[Permutation, int]:
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            x = int(g.images[lvl.base_point])
            rep = lvl.inverses.get(x)
            if rep is None:
                return g, i
            g = g * rep
        return g, len(self.levels)

    def _place(self, level: int, g: Permutation) -> int:
        if level == len(self.levels):
            moved = int(np.nonzero(g.images != np.arange(self.degree))[0][0])
            self.levels.append(_ChainLevel(moved, self.degree))
        self.levels[level].gens.append(g)
        return level

    def _gens_at(self, level: int) -> list[Permutation]:
        # Generators stored deeper also fix this level's earlier base points.
        return [g for lvl in self.levels[level:] for g in lvl.gens]

    def _complete_level(self, level: int) -> None:
        lvl = self.levels[level]
        gens = self._gens_at(level)
        lvl.transversal = {lvl.base_point: Permutation.identity(self.degree)}
        frontier = [lvl.base_point]
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = int(s.images[x])
                if y not in lvl.transversal:
                    lvl.transversal[y] = lvl.transversal[x] * s
                    frontier.append(y)
        lvl.inverses = {x: u.inverse() for x, u in lvl.transversal.items()}
        # Every Schreier generator must sift to the identity below this level.
        for x, u in list(lvl.transversal.items()):
            for s in gens:
                y = int(s.images[x])
                schreier = u * s * lvl.inverses[y]
                residue, at = self._sift(schreier, level + 1)
                if not residue.is_identity():
                    at = self._place(at, residue)
                    for i in range(at, level, -1):
                        self._complete_level(i)


# ---------------------------------------------------------------------------
# PermGroup
# ---------------------------------------------------------------------------


class PermGroup:
    """A group of permutations of {0..n-1} given by generators.

    Immutable after construction; the stabilizer chain and element table are
    cached with single-assignment semantics, so shared read-only use is safe.
    """

    def __init__(
        self,
        degree: int,
        generators: Iterable[Permutation],
        name: Optional[str] = None,
        affine=None,
    ):
        gens = [g for g in generators if not g.is_identity()]
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatch("generator degree mismatch")
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self.name = name
        self.affine = affine  # optional AffineSpec provenance
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

        Raises ResourceLimit, before anything is allocated, when the table
        would exceed MAX_TABLE_BYTES.
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
        level first: each level multiplies the rows so far on the right by its
        representatives."""
        n = self.degree
        arr = np.arange(n, dtype=np.int32)[np.newaxis, :]
        for lvl in reversed(self.chain.levels):
            reps = np.stack([u.images for u in lvl.transversal.values()])
            arr = reps[:, arr].reshape(-1, n)
        arr = arr[np.lexsort(arr.T[::-1])]
        arr.setflags(write=False)
        return arr

    def iter_elements(self) -> Iterator[Permutation]:
        for row in self.elements:
            yield Permutation._trusted(row)

    def __contains__(self, g: Permutation) -> bool:
        return g.degree == self.degree and self.chain.contains(g)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(g in other for g in self.generators)

    def subgroup(self, gens: Iterable[Permutation], name: Optional[str] = None) -> "PermGroup":
        return PermGroup(self.degree, gens, name=name, affine=self.affine)

    def subgroup_from_rows(self, rows: np.ndarray, name: Optional[str] = None) -> "PermGroup":
        """The subgroup whose element table is rows, a subset of self.elements
        that is closed under products and still lexicographically sorted.

        Only a generating set is multiplied out: the least row outside the
        subgroup generated so far joins the generators, so each one at least
        doubles the order and there are at most log2|H| of them.
        """
        if rows.shape[0] == self.order:
            return self
        rows.setflags(write=False)
        H = PermGroup(self.degree, (), name=name, affine=self.affine)
        keys = _row_keys(rows)
        generated = rows[:1]  # the identity
        while generated.shape[0] < rows.shape[0]:
            outside = np.flatnonzero(~np.isin(keys, _row_keys(generated)))
            g = Permutation._trusted(rows[outside[0]])
            H.generators += (g,)
            H.chain.add_generator(g)
            generated = H._enumerate()
        assert np.array_equal(generated, rows), "rows are not a sorted subgroup"
        H._elements = rows
        return H

    # -- basic structure -------------------------------------------------------

    def orbits(self) -> list[list[int]]:
        return orbits(self.generators, self.degree)

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def __repr__(self) -> str:
        label = self.name or f"{len(self.generators)} gens"
        return f"PermGroup(degree={self.degree}, {label})"


# ---------------------------------------------------------------------------
# Normalizer, vectorized over the element table
# ---------------------------------------------------------------------------


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque (void) key per row, for vectorized membership tests."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    """N_G(H) = {g in G : g^-1 H g = H}; requires H <= G, both enumerable.

    Each generator h of H is conjugated by all candidate rows g at once:
    g^-1 h g maps x to g[h[g^-1[x]]].  Conjugating the generators into H
    suffices, since |g^-1 H g| = |H|.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    E = G.elements
    inverses = np.empty_like(E)
    np.put_along_axis(inverses, E, np.arange(G.degree, dtype=np.int32)[np.newaxis, :], axis=1)
    hkeys = _row_keys(H.elements)
    keep = np.arange(E.shape[0])
    for h in H.generators:
        conj = np.take_along_axis(E[keep], h.images[inverses[keep]], axis=1)
        keep = keep[np.isin(_row_keys(conj), hkeys)]
    return G.subgroup_from_rows(E[keep], name="normalizer")


def commuting_rows(E: np.ndarray, g: Permutation) -> np.ndarray:
    """Mask of the rows h of E with hg = gh, i.e. g[h[x]] = h[g[x]] for all x."""
    return (g.images[E] == E[:, g.images]).all(axis=1)


# ---------------------------------------------------------------------------
# Blocks / primitivity
# ---------------------------------------------------------------------------


def _block_system_from_seed(gens: Sequence[Permutation], degree: int,
                            a: int, b: int) -> list[list[int]]:
    """Finest G-invariant partition with a, b in one block (union-find)."""
    parent = list(range(degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(a, b)]
    ra, rb = find(a), find(b)
    parent[rb] = ra
    while queue:
        x, y = queue.pop()
        for g in gens:
            gx, gy = find(int(g.images[x])), find(int(g.images[y]))
            if gx != gy:
                parent[gy] = gx
                queue.append((gx, gy))
    blocks: dict[int, list[int]] = {}
    for x in range(degree):
        blocks.setdefault(find(x), []).append(x)
    return sorted((sorted(blk) for blk in blocks.values()), key=lambda blk: blk[0])


def primitivity_blocks(G: PermGroup) -> Optional[list[list[int]]]:
    """A minimal nontrivial block system, or None when G is primitive.

    Seeds (0, beta) are tried for beta = 1, 2, ...; the first nontrivial
    system found is returned, so output is deterministic.
    """
    if not G.is_transitive():
        raise ValueError("block search requires a transitive group")
    n = G.degree
    if n == 1:
        return None
    for beta in range(1, n):
        system = _block_system_from_seed(G.generators, n, 0, beta)
        size = len(system[0])
        if 1 < size < n:
            return system
    return None


def is_primitive(G: PermGroup) -> bool:
    return G.is_transitive() and primitivity_blocks(G) is None
