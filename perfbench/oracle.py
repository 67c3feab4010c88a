"""Answers computed apart from stabparts, for checking its outputs.

Nothing here imports the package.  Groups are built from first principles
(their generators as image lists) and their orders come from closed forms.
Per-subset facts follow from orbit-stabilizer, |Stab(S)| = |G| / |S^G|:

* the orbit sizes of <generators> on all 2^n subset masks, by union-find
  over each generator's mask images (vectorized min-label hooking);
* the orbit of one subset by breadth-first search, for n <= 64.

By Sylow's theorem a subset S is fixed by some Sylow p-subgroup iff p does
not divide |S^G|, so G is p-concealed iff no orbit size is divisible by p.

Point encodings follow the package's documented conventions: GF(p^k)
elements are the base-p digits of their polynomial coefficients (constant
term least significant) modulo the fixed moduli below, vectors of GF(q)^m
are base-q with the last coordinate least significant, and the product
action numbers the pair (a, b) as a * n2 + b.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import re
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

# low degree first, monic; the conventional moduli for q <= 64
MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 0, 1),
    (7, 2): (1, 0, 1),
}


@dataclass(frozen=True)
class Group:
    """A permutation group on {0..degree-1} with a closed-form order."""

    name: str
    degree: int
    gens: tuple[tuple[int, ...], ...]
    order: int


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def p_part(n: int, p: int) -> int:
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def factor_prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    if q != 1:
        raise ValueError("not a prime power")
    return p, k


class Field:
    """GF(p^k) by polynomial arithmetic on base-p digit vectors."""

    def __init__(self, q: int):
        self.p, self.k = factor_prime_power(q)
        self.q = q
        self.mul_table = [[self._mul(a, b) for b in range(q)] for a in range(q)]

    def digits(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.k)]

    def index(self, digits: list[int]) -> int:
        return sum((d % self.p) * self.p**i for i, d in enumerate(digits))

    def add(self, a: int, b: int) -> int:
        return self.index([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def _mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        mod = MODULI[(self.p, self.k)]
        for deg in range(len(prod) - 1, self.k - 1, -1):
            c = prod[deg] % self.p
            for j in range(self.k + 1):
                prod[deg - self.k + j] -= c * mod[j]
        return self.index(prod[: self.k])

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def power(self, a: int, e: int) -> int:
        out = 1
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def primitive(self) -> int:
        for a in range(2, self.q):
            x, order = a, 1
            while x != 1:
                x, order = self.mul(x, a), order + 1
            if order == self.q - 1:
                return a
        return 1  # GF(2)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def affine_gens(q: int, dim: int, maps: list[tuple[list[list[int]], int]]
                ) -> list[tuple[int, ...]]:
    """Translations by a GF(p)-basis of GF(q)^dim, then each v -> (v^sigma) A.

    maps holds (A, e) pairs with sigma = Frobenius^e; A is a list of rows.
    """
    F = Field(q)
    n = q**dim

    def vec(x: int) -> list[int]:
        return [(x // q ** (dim - 1 - i)) % q for i in range(dim)]

    def point(v: list[int]) -> int:
        return sum(c * q ** (dim - 1 - i) for i, c in enumerate(v))

    gens = []
    for i in range(dim):
        for j in range(F.k):
            shift = [0] * dim
            shift[i] = F.p**j
            gens.append(tuple(point([F.add(a, b) for a, b in zip(vec(x), shift)])
                              for x in range(n)))
    for A, e in maps:
        images = []
        for x in range(n):
            v = [F.power(c, F.p**e) for c in vec(x)]
            out = [0] * dim
            for col in range(dim):
                for row in range(dim):
                    out[col] = F.add(out[col], F.mul(v[row], A[row][col]))
            images.append(point(out))
        gens.append(tuple(images))
    return gens


def cycle(n: int) -> tuple[int, ...]:
    return tuple((x + 1) % n for x in range(n))


def product(G1: Group, G2: Group) -> Group:
    n1, n2 = G1.degree, G2.degree
    gens = [tuple(g[x // n2] * n2 + x % n2 for x in range(n1 * n2)) for g in G1.gens]
    gens += [tuple(x // n2 * n2 + g[x % n2] for x in range(n1 * n2)) for g in G2.gens]
    return Group(f"Product({G1.name},{G2.name})", n1 * n2, tuple(gens),
                 G1.order * G2.order)


def catalog(name: str) -> Group:
    """The catalog group of that name, built from first principles."""
    name = name.replace(" ", "")
    if name.startswith("Product(") and name.endswith(")"):
        inner = name[len("Product("):-1]
        depth = 0
        for i, ch in enumerate(inner):
            depth += {"(": 1, ")": -1}.get(ch, 0)
            if ch == "," and depth == 0:
                return product(catalog(inner[:i]), catalog(inner[i + 1:]))
        raise ValueError(f"bad product name {name!r}")
    if name == "J":
        name = "AGammaL(1,8)"
    m = re.fullmatch(r"AG(amma)?L\(1,(\d+)\)", name)
    if m:
        q = int(m.group(2))
        F = Field(q)
        maps = [([[F.primitive()]], 0)]
        semilinear = bool(m.group(1)) and F.k > 1
        if semilinear:
            maps.append(([[1]], 1))
        return Group(name, q, tuple(affine_gens(q, 1, maps)),
                     q * (q - 1) * (F.k if semilinear else 1))
    if name == "AGL(2,3)":
        maps = [([[1, 1], [0, 1]], 0), ([[1, 0], [1, 1]], 0), ([[2, 0], [0, 1]], 0)]
        return Group(name, 9, tuple(affine_gens(3, 2, maps)), 9 * 48)
    m = re.fullmatch(r"D(\d+)", name)
    if m:  # x -> -x and x -> x + 1 on Z/p, p odd prime
        p = int(m.group(1)) // 2
        return Group(name, p, (tuple((-x) % p for x in range(p)), cycle(p)), 2 * p)
    m = re.fullmatch(r"Sym\((\d+)\)", name)
    if m:
        n = int(m.group(1))
        swap = (1, 0) + tuple(range(2, n))
        return Group(name, n, (cycle(n), swap), math.factorial(n))
    m = re.fullmatch(r"C(\d+)", name)
    if m:
        n = int(m.group(1))
        return Group(name, n, (cycle(n),), n)
    raise ValueError(f"no construction for {name!r}")


def order_of(name: str) -> int:
    """Closed-form order of a catalog name, as the package spells it."""
    return catalog(name).order


def relabel(G: Group, pi: list[int]) -> Group:
    """The conjugate of G by the point map x -> pi[x]."""
    gens = []
    for g in G.gens:
        h = [0] * G.degree
        for x in range(G.degree):
            h[pi[x]] = pi[g[x]]
        gens.append(tuple(h))
    return Group(G.name, G.degree, tuple(gens), G.order)


def cycles_text(images: tuple[int, ...]) -> str:
    """0-indexed cycle notation, fixed points omitted."""
    seen, out = set(), []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = images[x]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out)


def document(G: Group) -> dict:
    return {"degree": G.degree, "generators": [cycles_text(g) for g in G.gens]}


# ---------------------------------------------------------------------------
# Orbits on subsets
# ---------------------------------------------------------------------------


def _byte_tables(g: tuple[int, ...]) -> np.ndarray:
    """T[b, v] = image mask of the byte value v placed at byte b."""
    nbytes = (len(g) + 7) // 8
    T = np.zeros((nbytes, 256), dtype=np.uint64)
    values = np.arange(256)
    for x, y in enumerate(g):
        b, bit = divmod(x, 8)
        T[b, (values >> bit) & 1 == 1] |= np.uint64(1) << np.uint64(y)
    return T


def _images(T: np.ndarray, masks: np.ndarray) -> np.ndarray:
    out = np.zeros_like(masks)
    for b in range(T.shape[0]):
        out |= T[b][(masks >> np.uint64(8 * b)) & np.uint64(255)]
    return out


def mask_orbit_sizes(G: Group) -> np.ndarray:
    """|S^G| for every subset mask S in 0..2^n-1."""
    n = G.degree
    masks = np.arange(1 << n, dtype=np.uint64)
    images = [_images(T, masks).astype(np.int64) for T in _gen_tables(G.gens)]
    label = np.arange(1 << n, dtype=np.int64)
    while True:
        before = label
        label = label.copy()
        for img in images:
            np.minimum(label, label[img], out=label)
            label[img] = np.minimum(label[img], label)
        label = label[label]
        if np.array_equal(label, before):
            break
    return np.bincount(label, minlength=1 << n)[label]


def orbit_size(G: Group, points) -> int:
    """|S^G| for one subset S, by breadth-first search over masks."""
    if G.degree > 64:
        raise ValueError("masks hold at most 64 points")
    tables = _gen_tables(G.gens)
    start = mask_of(points)
    seen, frontier = {start}, np.array([start], dtype=np.uint64)
    while frontier.size:
        reached = np.unique(np.concatenate([_images(T, frontier) for T in tables]))
        fresh = [x for x in reached.tolist() if x not in seen]
        seen.update(fresh)
        frontier = np.array(fresh, dtype=np.uint64)
    return len(seen)


@functools.lru_cache(maxsize=8)
def _gen_tables(gens) -> list[np.ndarray]:
    return [_byte_tables(g) for g in gens]


def stab_order(G: Group, points) -> int:
    return G.order // orbit_size(G, points)


def point_orbits(G: Group) -> int:
    """Number of orbits of G on points."""
    parent = list(range(G.degree))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for g in G.gens:
        for x in range(G.degree):
            parent[find(x)] = find(g[x])
    return len({find(x) for x in range(G.degree)})


def mask_of(points) -> int:
    return sum(1 << int(x) for x in points)


def points_of(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# ---------------------------------------------------------------------------
# Per-subset answers
# ---------------------------------------------------------------------------


class SubsetFacts:
    """Every per-subset answer of (G, p), derived from the mask orbit sizes."""

    def __init__(self, G: Group, p: int):
        self.G, self.p = G, p
        self.gp = p_part(G.order, p)
        orbit = mask_orbit_sizes(G)
        if (G.order % orbit).any():
            raise AssertionError(f"orbit size does not divide |{G.name}|")
        stab = G.order // orbit
        parts = np.ones_like(stab)
        while True:
            divisible = stab % p == 0
            if not divisible.any():
                break
            parts[divisible] *= p
            stab[divisible] //= p
        values, counts = np.unique(parts, return_counts=True)
        self._histogram = {int(v): int(c) for v, c in zip(values, counts)}
        self._moderate = bool(((parts > 1) & (parts < self.gp)).any())
        self._concealed = not (orbit % p == 0).any()
        self.orbit = orbit.astype(np.int32)

    def histogram(self) -> dict[int, int]:
        return self._histogram

    def concealed(self) -> bool:
        return self._concealed

    def uncovered(self, mask: int) -> bool:
        return int(self.orbit[mask]) % self.p == 0

    def moderate(self) -> bool:
        return self._moderate

    def part(self, mask: int) -> int:
        return p_part(self.G.order // int(self.orbit[mask]), self.p)


def subset_facts(cases: list[tuple[Group, int]]) -> list[SubsetFacts]:
    """SubsetFacts of each (G, p), computed in a child process."""
    return in_child(_subset_facts, cases)


def _subset_facts(cases):
    return [SubsetFacts(G, p) for G, p in cases]


def stab_orders(G: Group, subsets: list) -> list[int]:
    """|Stab(S)| of each subset, computed in a child process."""
    return in_child(_stab_orders, G, subsets)


def _stab_orders(G, subsets):
    return [stab_order(G, points) for points in subsets]


def in_child(fn, *args):
    """fn(*args) in a child Python process, so that the memory it takes stays
    out of the peak resident memory the benchmark reports.  The call and its
    result travel pickled over the child's standard input and output, and the
    child has ended when this returns (or raises)."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)],
                          input=pickle.dumps((fn, args)), capture_output=True)
    if proc.returncode:
        raise RuntimeError(f"oracle child exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace').strip()[-2000:]}")
    return pickle.loads(proc.stdout)


def sylow_axioms(order: int, p: int, count: int, sylow_order: int) -> bool:
    """n_p = 1 mod p, n_p divides |G| and |P| = |G|_p."""
    return count % p == 1 and order % count == 0 and sylow_order == p_part(order, p)


if __name__ == "__main__":
    # the child of in_child.  Unpickling imports this file again as `oracle`
    # (its directory is sys.path[0]), so the answer pickles as oracle.* too.
    _fn, _args = pickle.load(sys.stdin.buffer)
    sys.stdout.buffer.write(pickle.dumps(_fn(*_args)))
