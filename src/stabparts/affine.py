"""Affine and semilinear permutation groups on the vectors of V = GF(q)^m.

Points are the base-q positional encodings of coordinate vectors, last
coordinate least significant; point 0 is the zero vector.  A semilinear
generator (A, e, b) acts on the right as v -> (v^sigma) A + b with
sigma: x -> x^(p^e) applied entrywise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .fields import MAX_Q, FiniteField, build_field
from .perms import MAX_DEGREE, PermGroup, Permutation, ResourceLimit, parse_cycles


@dataclass(frozen=True)
class SemilinearGen:
    """v -> (v^sigma) A + b over the field, sigma = Frobenius^frob."""

    matrix: tuple[tuple[int, ...], ...]  # m x m, element indices
    frob: int = 0
    translation: tuple[int, ...] = ()


@dataclass(frozen=True)
class AffineSpec:
    field: FiniteField
    dim: int
    generators: tuple[SemilinearGen, ...] = ()
    name: Optional[str] = None

    @property
    def num_points(self) -> int:
        return self.field.q**self.dim

    def vec_to_point(self, coords: Sequence[int]) -> int:
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates")
        point = 0
        for c in coords:
            if not 0 <= c < self.field.q:
                raise ValueError(f"coordinate {c} outside GF({self.field.q})")
            point = point * self.field.q + c
        return point

    def point_to_vec(self, point: int) -> tuple[int, ...]:
        if not 0 <= point < self.num_points:
            raise ValueError(f"point {point} out of range")
        coords = []
        for _ in range(self.dim):
            coords.append(point % self.field.q)
            point //= self.field.q
        return tuple(reversed(coords))

    # -- vector helpers --------------------------------------------------------

    def vadd(self, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.field.add(a, b) for a, b in zip(u, v))

    def vneg(self, u: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.field.neg(a) for a in u)

    def point_add(self, a: int, b: int) -> int:
        return self.vec_to_point(self.vadd(self.point_to_vec(a), self.point_to_vec(b)))

    def point_neg(self, a: int) -> int:
        return self.vec_to_point(self.vneg(self.point_to_vec(a)))

    def apply_gen(self, gen: SemilinearGen, coords: Sequence[int]) -> tuple[int, ...]:
        F = self.field
        v = [F.frobenius(c, gen.frob) if gen.frob else c for c in coords]
        out = []
        for j in range(self.dim):
            acc = 0
            for i in range(self.dim):
                acc = F.add(acc, F.mul(v[i], gen.matrix[i][j]))
            out.append(acc)
        if gen.translation:
            out = [F.add(a, b) for a, b in zip(out, gen.translation)]
        return tuple(out)

    def gen_permutation(self, gen: SemilinearGen) -> Permutation:
        images = [
            self.vec_to_point(self.apply_gen(gen, self.point_to_vec(pt)))
            for pt in range(self.num_points)
        ]
        return Permutation(images)

    def translation_perm(self, vector: Sequence[int]) -> Permutation:
        return self.gen_permutation(SemilinearGen(_identity_matrix(self.dim), 0, tuple(vector)))


def _identity_matrix(dim: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))


def _matrix_invertible(spec: AffineSpec, matrix) -> bool:
    # a matrix over GF(q) is invertible iff the induced map on V is injective
    seen = set()
    gen = SemilinearGen(matrix, 0, ())
    for pt in range(spec.num_points):
        img = spec.apply_gen(gen, spec.point_to_vec(pt))
        if img in seen:
            return False
        seen.add(img)
    return True


def build_affine(spec: AffineSpec) -> PermGroup:
    """The permutation group V . <spec generators> on the points of V.

    Translation generators by x^j e_i (a GF(p)-basis of V) are always
    included, so the translation subgroup is all of V.
    """
    F = spec.field
    for g in spec.generators:
        if not _matrix_invertible(spec, g.matrix):
            raise ValueError("semilinear generator has a singular matrix")
    gens = []
    for i in range(spec.dim):
        for j in range(F.k):
            vec = [0] * spec.dim
            vec[i] = _x_power_index(F, j)  # x^j in slot i; a GF(p)-basis vector
            gens.append(spec.translation_perm(vec))
    for g in spec.generators:
        gens.append(spec.gen_permutation(g))
    return PermGroup(spec.num_points, gens, name=spec.name, affine=spec)


def _x_power_index(F: FiniteField, j: int) -> int:
    # index of x^j: base-p digit 1 in position j
    return F.p**j


def product_action(G1: PermGroup, G2: PermGroup) -> PermGroup:
    """Direct product G1 x G2 on pairs, point (a, b) -> a * n2 + b.

    When both factors are affine over the same field, the pair indexing
    coincides with the base-q encoding of concatenated coordinates, so the
    product is again affine with dim = dim1 + dim2.
    """
    n1, n2 = G1.degree, G2.degree
    if n1 * n2 > MAX_DEGREE:
        raise ResourceLimit(f"product degree {n1 * n2} exceeds MAX_DEGREE = {MAX_DEGREE}")
    idx = np.arange(n1 * n2, dtype=np.int32)
    first, second = idx // n2, idx % n2
    gens = [Permutation(g.images[first] * n2 + second) for g in G1.generators]
    gens += [Permutation(first * n2 + g.images[second]) for g in G2.generators]
    name = f"Product({G1.name},{G2.name})" if G1.name and G2.name else None
    a1, a2 = G1.affine, G2.affine
    affine = None
    if a1 is not None and a2 is not None and a1.field is a2.field:
        affine = AffineSpec(a1.field, a1.dim + a2.dim, (), name=name)
    return PermGroup(n1 * n2, gens, name=name, affine=affine)


# ---------------------------------------------------------------------------
# Named catalog
# ---------------------------------------------------------------------------


def _dihedral_affine(q: int) -> PermGroup:
    """D_{2q} as x -> +-x + b on GF(q), q odd prime."""
    F = build_field(q, 1)
    spec = AffineSpec(F, 1, (SemilinearGen(((F.neg(1),),), 0, ()),),
                      name=f"D{2 * q}")
    return build_affine(spec)


def _agl1(q_p: int, q_k: int) -> PermGroup:
    F = build_field(q_p, q_k)
    g = F.primitive_element()
    spec = AffineSpec(F, 1, (SemilinearGen(((g,),), 0, ()),),
                      name=f"AGL(1,{F.q})")
    return build_affine(spec)


def _agammal1(q_p: int, q_k: int) -> PermGroup:
    F = build_field(q_p, q_k)
    g = F.primitive_element()
    spec = AffineSpec(
        F, 1,
        (SemilinearGen(((g,),), 0, ()), SemilinearGen(((1,),), 1, ())),
        name=f"AGammaL(1,{F.q})",
    )
    return build_affine(spec)


def _agl23() -> PermGroup:
    # GL(2,3) = <transvections, diag(2,1)>, order 48; AGL(2,3) order 432
    F = build_field(3, 1)
    spec = AffineSpec(
        F, 2,
        (
            SemilinearGen(((1, 1), (0, 1)), 0, ()),
            SemilinearGen(((1, 0), (1, 1)), 0, ()),
            SemilinearGen(((2, 0), (0, 1)), 0, ()),
        ),
        name="AGL(2,3)",
    )
    return build_affine(spec)


def _sym(n: int) -> PermGroup:
    gens = [parse_cycles("(" + " ".join(map(str, range(n))) + ")", n)]
    if n > 2:
        gens.append(parse_cycles("(0 1)", n))
    return PermGroup(n, gens, name=f"Sym({n})")


def _cyclic(n: int) -> PermGroup:
    return PermGroup(n, [parse_cycles("(" + " ".join(map(str, range(n))) + ")", n)],
                     name=f"C{n}")


def named_group(name: str) -> PermGroup:
    """Catalog of named groups; see README for the full list."""
    name = name.strip()
    if name.startswith("Product(") and name.endswith(")"):
        inner = name[len("Product("):-1]
        left, right = _split_top_level(inner)
        return product_action(named_group(left), named_group(right))
    key = name.replace(" ", "")
    if key in ("D6", "Dihedral(6)"):
        return _dihedral_affine(3)
    if key in ("D10", "Dihedral(10)"):
        return _dihedral_affine(5)
    if key in ("J", "AGammaL(1,8)"):
        return _agammal1(2, 3)
    if key == "AGammaL(1,9)":
        return _agammal1(3, 2)
    if key.startswith("AGL(1,") and key.endswith(")"):
        q = _named_degree(key[len("AGL(1,"):-1], name)
        p, k = _factor_prime_power(q)
        return _agl1(p, k)
    if key == "AGL(2,3)":
        return _agl23()
    if key in ("Sym(4)", "S4"):
        return _sym(4)
    if key.startswith("C") and key[1:].isdigit():
        return _cyclic(_named_degree(key[1:], name))
    if key.startswith("Trivial(") and key.endswith(")"):
        return PermGroup.trivial(_named_degree(key[len("Trivial("):-1], name))
    raise ValueError(f"unknown group name {name!r}")


def _named_degree(text: str, name: str) -> int:
    degree = int(text)
    if not 0 < degree <= MAX_DEGREE:
        raise ValueError(f"degree {degree} of {name!r} is not in 1..MAX_DEGREE = {MAX_DEGREE}")
    return degree


def _split_top_level(s: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return s[:i], s[i + 1:]
    raise ValueError(f"expected two comma-separated names in {s!r}")


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            if q != 1:
                raise ValueError("not a prime power")
            return p, k
    raise ValueError("not a prime power")


# ---------------------------------------------------------------------------
# GroupSpec documents (consumed by the CLI)
# ---------------------------------------------------------------------------


def group_from_document(doc: dict) -> PermGroup:
    """Build a group from a GroupSpec document.

    Exactly one of the keys "named", "degree"+"generators", "product",
    "affine" must be present.  A malformed document raises ValueError naming
    the JSON path of the bad field, e.g. "$.affine.k: required field is
    missing".
    """
    return _group_at(doc, "$")


_MISSING = object()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _get(doc: dict, key: str, path: str, ok, expected: str, default=_MISSING):
    """doc[key] if it passes ok, else a ValueError naming its JSON path."""
    if key not in doc:
        if default is _MISSING:
            raise ValueError(f"{path}.{key}: required field is missing")
        return default
    value = doc[key]
    if not ok(value):
        raise ValueError(f"{path}.{key}: expected {expected}, got {json.dumps(value)[:40]}")
    return value


def _at(path: str, build, *args):
    """build(*args), with the JSON path prefixed to any ValueError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _group_at(doc, path: str) -> PermGroup:
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a group document object")
    kinds = {k for k in ("named", "degree", "generators", "product", "affine") if k in doc}
    kinds -= {"degree"} if kinds >= {"degree", "generators"} else set()
    if len(kinds) != 1 or kinds == {"degree"}:
        raise ValueError(
            f"{path}: spec must contain exactly one of: named, degree+generators, "
            "product, affine"
        )
    kind = kinds.pop()
    if kind == "named":
        name = _get(doc, "named", path, lambda v: isinstance(v, str), "a string")
        return _at(f"{path}.named", named_group, name)
    if kind == "generators":
        degree = _get(doc, "degree", path, lambda v: _is_int(v) and 0 < v <= MAX_DEGREE,
                      f"a positive integer at most MAX_DEGREE = {MAX_DEGREE}")
        cycles = _get(doc, "generators", path,
                      lambda v: isinstance(v, list) and all(isinstance(c, str) for c in v),
                      "a list of cycle strings")
        return PermGroup(degree, [_at(f"{path}.generators[{i}]", parse_cycles, c, degree)
                                  for i, c in enumerate(cycles)])
    if kind == "product":
        factors = _get(doc, "product", path, lambda v: isinstance(v, list) and len(v) == 2,
                      "a list of two group documents")
        left, right = (_group_at(f, f"{path}.product[{i}]") for i, f in enumerate(factors))
        return product_action(left, right)
    aff = _get(doc, "affine", path, lambda v: isinstance(v, dict), "an object")
    name = _get(doc, "name", path, lambda v: isinstance(v, str), "a string", None)
    path += ".affine"
    p = _get(aff, "p", path, lambda v: _is_int(v) and 2 <= v <= MAX_Q,
             f"a prime at most {MAX_Q}")
    k = _get(aff, "k", path, lambda v: _is_int(v) and 1 <= v < MAX_Q.bit_length(),
             f"an integer with p^k at most {MAX_Q}")
    F = _at(path, build_field, p, k)
    # q^dim points are enumerated; q >= 2 bounds dim before the power is taken
    dim = _get(aff, "dim", path,
               lambda v: (_is_int(v) and 0 < v < MAX_DEGREE.bit_length()
                          and F.q**v <= MAX_DEGREE),
               f"a positive integer with {F.q}^dim at most MAX_DEGREE = {MAX_DEGREE}")

    def vector(v) -> bool:
        return (isinstance(v, list) and len(v) == dim
                and all(_is_int(c) and 0 <= c < F.q for c in v))

    entries = _get(aff, "generators", path, lambda v: isinstance(v, list), "a list", [])
    gens = []
    for i, entry in enumerate(entries):
        at = f"{path}.generators[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{at}: expected an object")
        matrix = _get(entry, "matrix", at,
                      lambda m: isinstance(m, list) and len(m) == dim and all(map(vector, m)),
                      f"a {dim}x{dim} matrix over GF({F.q})")
        frob = _get(entry, "frobenius", at, lambda v: _is_int(v) and v >= 0,
                    "a non-negative integer", 0)
        translation = _get(entry, "translation", at, lambda v: v == [] or vector(v),
                           f"a vector of {dim} elements of GF({F.q})", [])
        gens.append(SemilinearGen(tuple(map(tuple, matrix)), frob, tuple(translation)))
    spec = AffineSpec(F, dim, tuple(gens), name=name)
    return _at(path, build_affine, spec)
