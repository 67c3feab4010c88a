"""Affine and semilinear permutation groups on the vectors of V = GF(q)^m.

Points are the base-q positional encodings of coordinate vectors, last
coordinate least significant; point 0 is the zero vector.  semilinear_map
is the one place that holds this encoding: it computes a map on the
coordinate rows of all points at once, with the field's lookup tables, and
encodes the image rows back.  A semilinear map (A, e, b) acts on the right
as v -> (v^sigma) A + b with sigma: x -> x^(p^e) applied entrywise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import MAX_Q, FiniteField, build_field, prime_power
from .perms import MAX_DEGREE, PermGroup, Permutation, ResourceLimit, parse_cycles


@dataclass(frozen=True)
class SemilinearGen:
    """v -> (v^sigma) A + b over the field, sigma = Frobenius^frob."""

    matrix: tuple[tuple[int, ...], ...]  # m x m, element indices
    frob: int = 0
    translation: tuple[int, ...] = ()


def semilinear_map(F: FiniteField, dim: int, gen: SemilinearGen) -> Permutation:
    """The map's action on all q^dim points at once, through field tables."""
    shape = (F.q,) * dim
    v = np.indices(shape, dtype=np.int32).reshape(dim, -1).T  # row x: x's coordinates
    for _ in range(gen.frob % F.k):  # sigma has order k
        v = F.frobenius_table[v]
    out = np.zeros_like(v)
    for i, row in enumerate(gen.matrix):  # out += v_i * (row i of A)
        out = F.add_table[out, F.mul_table[v[:, i, np.newaxis], row]]
    if gen.translation:
        out = F.add_table[out, gen.translation]
    try:
        return Permutation(np.ravel_multi_index(tuple(out.T), shape))
    except ValueError:  # a bijection of V iff the matrix is invertible
        raise ValueError("semilinear generator has a singular matrix") from None


def affine_group(F: FiniteField, dim: int, gens: tuple[SemilinearGen, ...] = (),
                 name: Optional[str] = None) -> PermGroup:
    """The permutation group V . <gens> on the points of V = F^dim.

    Its generators are the translations by x^j e_i, a GF(p)-basis of V (i
    outer, j inner), so that every translation is in the group; then gens.
    """
    identity = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    basis = [SemilinearGen(identity, 0, tuple(F.p**j if c == i else 0 for c in range(dim)))
             for i in range(dim) for j in range(F.k)]  # x^j has index p^j
    return PermGroup(F.q**dim, [semilinear_map(F, dim, g) for g in basis + list(gens)],
                     name=name)


def product_action(G1: PermGroup, G2: PermGroup) -> PermGroup:
    """Direct product G1 x G2 on pairs, point (a, b) -> a * n2 + b."""
    n1, n2 = G1.degree, G2.degree
    if n1 * n2 > MAX_DEGREE:
        raise ResourceLimit(f"product degree {n1 * n2} exceeds MAX_DEGREE = {MAX_DEGREE}")
    idx = np.arange(n1 * n2, dtype=np.int32)
    first, second = idx // n2, idx % n2
    gens = [Permutation(g.images[first] * n2 + second) for g in G1.generators]
    gens += [Permutation(first * n2 + g.images[second]) for g in G2.generators]
    name = f"Product({G1.name},{G2.name})" if G1.name and G2.name else None
    return PermGroup(n1 * n2, gens, name=name)


# ---------------------------------------------------------------------------
# Named catalog
# ---------------------------------------------------------------------------


def _sym(n: int) -> PermGroup:
    gens = [parse_cycles("(" + " ".join(map(str, range(n))) + ")", n)]
    if n > 2:
        gens.append(parse_cycles("(0 1)", n))
    return PermGroup(n, gens, name=f"Sym({n})")


def _cyclic(n: int) -> PermGroup:
    return PermGroup(n, [parse_cycles("(" + " ".join(map(str, range(n))) + ")", n)],
                     name=f"C{n}")


def named_group(name: str) -> PermGroup:
    """Catalog of named groups; see README for the full list.  Spaces are ignored."""
    name = name.strip()
    key = name.replace(" ", "")
    if key.startswith("Product(") and key.endswith(")"):
        # split name, not key, so that errors quote each factor as written
        left, right = _split_top_level(name[name.index("(") + 1:-1])
        return product_action(named_group(left), named_group(right))
    if key in ("D6", "Dihedral(6)"):  # D_{2q}: x -> +-x + b on GF(q), -1 = q - 1
        return affine_group(build_field(3, 1), 1, (SemilinearGen(((2,),)),), "D6")
    if key in ("D10", "Dihedral(10)"):
        return affine_group(build_field(5, 1), 1, (SemilinearGen(((4,),)),), "D10")
    if key in ("J", "AGammaL(1,8)", "AGammaL(1,9)"):  # x -> g x, then x -> x^p
        F = build_field(3, 2) if key == "AGammaL(1,9)" else build_field(2, 3)
        gens = (SemilinearGen(((F.primitive_element(),),)), SemilinearGen(((1,),), 1))
        return affine_group(F, 1, gens, f"AGammaL(1,{F.q})")
    if key.startswith("AGL(1,") and key.endswith(")"):
        power = prime_power(_named_degree(key[len("AGL(1,"):-1], name))
        if power is None:
            raise ValueError("not a prime power")
        F = build_field(*power)
        return affine_group(F, 1, (SemilinearGen(((F.primitive_element(),),)),),
                            f"AGL(1,{F.q})")
    if key == "AGL(2,3)":  # GL(2,3) = <transvections, diag(2,1)>, order 48
        gens = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (0, 1)))
        return affine_group(build_field(3, 1), 2, tuple(map(SemilinearGen, gens)), "AGL(2,3)")
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
        return product_action(_group_at(factors[0], f"{path}.product[0]"),
                              _group_at(factors[1], f"{path}.product[1]"))
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
    return _at(path, affine_group, F, dim, tuple(gens), name)
