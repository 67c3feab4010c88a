import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabparts import build_field, named_group, parse_cycles, Permutation, PermGroup
from stabparts.affine import (
    SemilinearGen,
    affine_group,
    group_from_document,
    product_action,
    semilinear_map,
)
from stabparts.classify import translations
from stabparts.fields import _MODULI, is_prime, prime_divisors, prime_power
from strategies import vector_add


ALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1),
              (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
              (3, 2), (3, 3), (5, 2), (7, 2)]
# every field build_field supports: the fixed moduli and the primes up to 64
SUPPORTED_FIELDS = sorted(set(_MODULI) | {(p, 1) for p in range(2, 65) if is_prime(p)})


def test_prime_helpers_match_definitions():
    # primes by a sieve; the prime powers p^k, k >= 1, by repeated multiplication
    top = 4100
    sieve = [n >= 2 for n in range(top + 1)]
    for d in range(2, top + 1):
        for m in range(2 * d, top + 1, d):
            sieve[m] = False
    primes = [d for d in range(top + 1) if sieve[d]]
    powers = {p**k: (p, k) for p in primes for k in range(1, 13) if p**k <= top}
    for n in range(top + 1):
        assert prime_divisors(n) == ([d for d in primes if n % d == 0] if n else []), n
        assert is_prime(n) == sieve[n], n
        assert prime_power(n) == powers.get(n), n


@pytest.mark.parametrize("p,k", ALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    F = build_field(p, k)
    q = F.q
    add, mul = F.add_table, F.mul_table
    for a, b in itertools.product(range(q), repeat=2):
        assert add[a, b] == add[b, a]
        assert mul[a, b] == mul[b, a]
    for a, b, c in itertools.product(range(q), repeat=3):
        assert add[add[a, b], c] == add[a, add[b, c]]
        assert mul[mul[a, b], c] == mul[a, mul[b, c]]
        assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
    for a in range(q):
        assert add[a, 0] == a and mul[a, 1] == a and mul[a, 0] == 0
        assert np.count_nonzero(add[a] == 0) == 1  # a has exactly one negative
    for a in range(1, q):
        assert np.count_nonzero(mul[a] == 1) == 1  # a has exactly one inverse


@pytest.mark.parametrize("p,k", ALL_FIELDS)
def test_frobenius_table_is_pth_power(p, k):
    F = build_field(p, k)
    for a in range(F.q):
        power = 1
        for _ in range(p):
            power = F.mul(power, a)
        assert F.frobenius_table[a] == power


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 1)])
def test_frobenius_is_automorphism(p, k):
    F = build_field(p, k)
    frob = F.frobenius_table
    for a, b in itertools.product(range(F.q), repeat=2):
        assert frob[F.add(a, b)] == F.add(frob[a], frob[b])
        assert frob[F.mul(a, b)] == F.mul(frob[a], frob[b])


def test_frobenius_fixed_field_of_gf8():
    F = build_field(2, 3)
    fixed = np.flatnonzero(F.frobenius_table == np.arange(8))
    assert fixed.tolist() == [0, 1]


def test_gf5_is_integers_mod_5():
    F = build_field(5, 1)
    for a, b in itertools.product(range(5), repeat=2):
        assert F.add(a, b) == (a + b) % 5
        assert F.mul(a, b) == (a * b) % 5


def _textbook_product(a: list[int], b: list[int], p: int, modulus) -> list[int]:
    """a * b as coefficient lists (low degree first), reduced by the monic
    modulus one leading term at a time."""
    k = len(a)
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for deg in range(2 * k - 2, k - 1, -1):
        lead, prod[deg] = prod[deg], 0
        for j in range(k):
            prod[deg - k + j] -= lead * modulus[j]
    return [c % p for c in prod[:k]]


@pytest.mark.parametrize("p,k", SUPPORTED_FIELDS)
def test_tables_are_textbook_arithmetic(p, k):
    """The tables equal coefficient-list arithmetic modulo the fixed modulus,
    and the primitive element is the least element of order q - 1."""
    assert len(SUPPORTED_FIELDS) == 27
    F = build_field(p, k)
    q, modulus = p**k, _MODULI.get((p, k), (0, 1))
    digits = [[a // p**i % p for i in range(k)] for a in range(q)]

    def index(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    add = [[index([(x + y) % p for x, y in zip(da, db)]) for db in digits] for da in digits]
    mul = [[index(_textbook_product(da, db, p, modulus)) for db in digits] for da in digits]
    assert F.add_table.tolist() == add and F.mul_table.tolist() == mul

    def order(a):
        power, e = a, 1
        while power != 1:
            power, e = mul[power][a], e + 1
        return e

    assert F.primitive_element() == min(a for a in range(1, q) if order(a) == q - 1)


def test_fixed_moduli():
    assert _MODULI[(2, 3)] == (1, 1, 0, 1)   # x^3 + x + 1
    assert _MODULI[(3, 2)] == (1, 0, 1)      # x^2 + 1
    assert _MODULI[(2, 2)] == (1, 1, 1)      # x^2 + x + 1


def test_build_field_errors():
    with pytest.raises(ValueError):
        build_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        build_field(2, 7)  # q > 64
    with pytest.raises(ValueError):
        build_field(3, 4)  # q > 64


def _translation(vector):
    """The map v -> v + vector, as a semilinear map with the identity matrix."""
    dim = len(vector)
    identity = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    return SemilinearGen(identity, 0, tuple(vector))


class TestVectorIndexing:
    """The point encoding, read off where translations take the zero vector."""

    def test_base_q_last_significant(self):
        F = build_field(3, 1)
        images = [semilinear_map(F, 2, _translation(v))(0) for v in [(1, 1), (1, 0), (0, 1)]]
        assert images == [4, 3, 1]

    def test_dim_one_identity(self):
        F = build_field(2, 3)
        assert [semilinear_map(F, 1, _translation((a,)))(0) for a in range(8)] == list(range(8))

    def test_roundtrip_gf8_squared(self):
        # the translation by (a, b) takes 0 to 8a + b and x to x + (8a + b);
        # by (0, 0) it is the identity, each coordinate row encoded back
        F = build_field(2, 3)
        for a, b in itertools.product(range(8), repeat=2):
            t = semilinear_map(F, 2, _translation((a, b)))
            assert t(0) == 8 * a + b
            assert t.images.tolist() == vector_add(2, 3, 2, np.arange(64), 8 * a + b)

    def test_zero_vector(self):
        # point 0 is fixed by a linear map, and by the translation by (0, 0, 0)
        F = build_field(5, 1)
        linear = SemilinearGen(((2, 1, 0), (0, 3, 0), (1, 0, 4)))  # det 24 = 4
        assert semilinear_map(F, 3, linear)(0) == 0
        assert semilinear_map(F, 3, _translation((0, 0, 0))).images.tolist() == list(range(125))

    def test_out_of_range(self):
        doc = {"affine": {"p": 3, "k": 1, "dim": 2,
                          "generators": [{"matrix": [[1, 0], [0, 1]], "translation": [3, 0]}]}}
        with pytest.raises(ValueError, match=r"^\$\.affine\.generators\[0\]\.translation: "):
            group_from_document(doc)


class TestBuildAffine:
    def test_d6_on_gf3(self):
        G = affine_group(build_field(3, 1), 1, (SemilinearGen(((2,),), 0, ()),))  # -1 = q - 1
        assert (G.degree, G.order) == (3, 6)

    def test_d10_on_gf5(self):
        G = affine_group(build_field(5, 1), 1, (SemilinearGen(((4,),), 0, ()),))  # -1 = q - 1
        assert (G.degree, G.order) == (5, 10)

    def test_j_on_gf8(self):
        G = named_group("AGammaL(1,8)")
        assert (G.degree, G.order) == (8, 168)
        assert G.order == 8 * 7 * 3

    def test_singular_matrix_rejected(self):
        singular = SemilinearGen(((1, 0), (1, 0)), 0, ())
        with pytest.raises(ValueError, match="^semilinear generator has a singular matrix$"):
            affine_group(build_field(3, 1), 2, (singular,))

    def test_translations_act_regularly(self, zoo):
        # exactly one translation maps 0 to each point, and each is in G
        affine = {name for name, G in zoo.items() if translations(G) is not None}
        assert affine == set(zoo) - {"C4"}
        for name in affine:
            G = zoo[name]
            T = translations(G)
            assert T[:, 0].tolist() == list(range(G.degree)), name
            assert all(Permutation(row) in G for row in T), name


def _semilinear_images(F, dim, gen):
    """The images of v -> (v^sigma) A + b, one point at a time: coordinates
    by divmod, sigma = Frobenius^frob by repeated multiplication, and the row
    vector times A by table lookups.  Raises the build's error when two
    points share an image."""
    mul, add = F.mul_table, F.add_table
    images = []
    for pt in range(F.q**dim):
        v = []
        for _ in range(dim):
            pt, c = divmod(pt, F.q)
            v.insert(0, c)
        for _ in range(gen.frob):
            for i, c in enumerate(v):
                power = 1
                for _ in range(F.p):
                    power = int(mul[power, c])
                v[i] = power
        out = [0] * dim
        for j in range(dim):
            for i in range(dim):
                out[j] = int(add[out[j], mul[v[i], gen.matrix[i][j]]])
        if gen.translation:
            out = [int(add[a, b]) for a, b in zip(out, gen.translation)]
        point = 0
        for c in out:
            point = point * F.q + c
        images.append(point)
    if len(set(images)) != len(images):
        raise ValueError("semilinear generator has a singular matrix")
    return images


@st.composite
def semilinear_gens(draw, F):
    dim = draw(st.integers(1, max(d for d in range(1, 11) if F.q**d <= 729)))
    element = st.integers(0, F.q - 1)
    row = st.tuples(*[element] * dim)
    matrix = draw(st.tuples(*[row] * dim))
    frob = draw(st.integers(0, 3 * F.k))
    translation = draw(st.one_of(st.just(()), row))
    return dim, SemilinearGen(matrix, frob, translation)


@pytest.mark.parametrize("p,k", ALL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_gen_permutation_matches_per_point_definition(p, k, data):
    F = build_field(p, k)
    dim, gen = data.draw(semilinear_gens(F))
    try:
        expected = _semilinear_images(F, dim, gen)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            semilinear_map(F, dim, gen)
    else:
        assert semilinear_map(F, dim, gen).images.tolist() == expected


def _times_primitive(p, k):
    """x -> g x for g the least generator of GF(p^k)*."""
    return SemilinearGen(((build_field(p, k).primitive_element(),),))


# (p, k, dim, maps) of every name the catalog builds as V . <maps>
_J = (2, 3, 1, (_times_primitive(2, 3), SemilinearGen(((1,),), 1)))
AFFINE_CATALOG_MAPS = {
    "D6": (3, 1, 1, (SemilinearGen(((2,),)),)),
    "Dihedral(6)": (3, 1, 1, (SemilinearGen(((2,),)),)),
    "D10": (5, 1, 1, (SemilinearGen(((4,),)),)),
    "Dihedral(10)": (5, 1, 1, (SemilinearGen(((4,),)),)),
    "J": _J,
    "AGammaL(1,8)": _J,
    "AGammaL(1,9)": (3, 2, 1, (_times_primitive(3, 2), SemilinearGen(((1,),), 1))),
    "AGL(2,3)": (3, 1, 2, tuple(map(SemilinearGen, [((1, 1), (0, 1)), ((1, 0), (1, 1)),
                                                     ((2, 0), (0, 1))]))),
    **{f"AGL(1,{p**k})": (p, k, 1, (_times_primitive(p, k),)) for p, k in SUPPORTED_FIELDS},
}
# each document and its (p, k, dim, maps): the named catalog groups, the
# README's affine example, and one with dim > 1 and k > 1, so i and j differ
AFFINE_BUILDS = {
    **{name: ({"named": name}, maps) for name, maps in AFFINE_CATALOG_MAPS.items()},
    "README": ({"affine": {"p": 2, "k": 3, "dim": 1, "generators": [
        {"matrix": [[3]]}, {"matrix": [[1]], "frobenius": 1},
        {"matrix": [[1]], "translation": [5]}]}},
        (2, 3, 1, (SemilinearGen(((3,),)), SemilinearGen(((1,),), 1),
                   SemilinearGen(((1,),), 0, (5,))))),
    "GF(4)^2": ({"affine": {"p": 2, "k": 2, "dim": 2, "generators": [
        {"matrix": [[0, 1], [1, 0]], "frobenius": 1, "translation": [3, 2]}]}},
        (2, 2, 2, (SemilinearGen(((0, 1), (1, 0)), 1, (3, 2)),))),
}


@pytest.mark.parametrize("name", AFFINE_BUILDS)
def test_affine_generators_are_basis_translations_then_maps(name):
    # x^j e_i, i outer and j inner, with x^j the field element of index p^j;
    # the group drops an identity, AGL(1,2)'s map x -> 1x
    doc, (p, k, dim, maps) = AFFINE_BUILDS[name]
    F = build_field(p, k)
    basis = [_translation([p**j if c == i else 0 for c in range(dim)])
             for i in range(dim) for j in range(k)]
    expected = [_semilinear_images(F, dim, gen) for gen in basis + list(maps)]
    G = group_from_document(doc)
    assert [g.images.tolist() for g in G.generators] == [
        images for images in expected if images != list(range(G.degree))]


def test_frobenius_exponent_taken_mod_k():
    def doc(frob):
        return {"affine": {"p": 2, "k": 3, "dim": 1,
                           "generators": [{"matrix": [[1]], "frobenius": frob}]}}

    images = [g.images.tolist() for g in group_from_document(doc(10**9)).generators]
    assert images == [g.images.tolist() for g in group_from_document(doc(10**9 % 3)).generators]


def _is_translation(p, dim, row):
    # a translation is addition by the image of 0
    return row.tolist() == vector_add(p, 1, dim, np.arange(len(row)), int(row[0]))


class TestNamedCatalog:
    @pytest.mark.parametrize(
        "name,degree,order",
        [
            ("D6", 3, 6),
            ("D10", 5, 10),
            ("AGammaL(1,8)", 8, 168),
            ("J", 8, 168),
            ("AGammaL(1,9)", 9, 144),
            ("AGL(1,5)", 5, 20),
            ("AGL(1,8)", 8, 56),
            ("AGL(2,3)", 9, 432),
            ("Sym(4)", 4, 24),
            ("C4", 4, 4),
            ("Product(D6,D6)", 9, 36),
            ("Product(J,J)", 64, 28224),
        ],
    )
    def test_catalog(self, name, degree, order):
        G = named_group(name)
        assert (G.degree, G.order) == (degree, order)

    @pytest.mark.parametrize("p,k", SUPPORTED_FIELDS)
    def test_agl1_order(self, p, k):
        q = p**k
        G = named_group(f"AGL(1,{q})")
        assert (G.name, G.degree, G.order) == (f"AGL(1,{q})", q, q * (q - 1))

    def test_agammal_order_formula(self):
        # |AGammaL(1,q)| = q (q - 1) k for q = p^k
        assert named_group("AGammaL(1,8)").order == 8 * 7 * 3
        assert named_group("AGammaL(1,9)").order == 9 * 8 * 2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_group("E8")

    def test_spaces_in_a_product_name_are_ignored(self):
        A, B = named_group("Product (J, J)"), named_group("Product(J,J)")
        assert (A.name, A.degree) == (B.name, B.degree)
        assert [g.images.tolist() for g in A.generators] == [
            g.images.tolist() for g in B.generators]

    def test_agl1_of_non_prime_power(self):
        with pytest.raises(ValueError, match="^not a prime power$"):
            named_group("AGL(1,6)")

    def test_affine_d6_matches_cycle_d6(self):
        A = named_group("D6")
        B = PermGroup.from_cycles(3, ["(0 1 2)", "(1 2)"])
        assert A.order == B.order
        assert np.array_equal(A.elements, B.elements)  # same subgroup of Sym(3)

    def test_affine_d6_cycle_types(self):
        from collections import Counter

        A = named_group("D6")
        B = PermGroup.from_cycles(3, ["(0 1 2)", "(1 2)"])
        ct = lambda G: Counter(tuple(sorted(len(c) for c in g.cycles()))
                               for g in G.iter_elements())
        assert ct(A) == ct(B)


class TestGroupDocuments:
    def test_named(self):
        G = group_from_document({"named": "D10"})
        assert G.order == 10

    def test_generators(self):
        G = group_from_document({"degree": 4, "generators": ["(0 1 2 3)"]})
        assert G.order == 4

    def test_product(self):
        G = group_from_document(
            {"product": [{"named": "D6"}, {"named": "D6"}]}
        )
        assert (G.degree, G.order) == (9, 36)

    def test_affine(self):
        doc = {
            "affine": {
                "p": 3,
                "k": 1,
                "dim": 1,
                "generators": [{"matrix": [[2]], "frobenius": 0}],
            }
        }
        G = group_from_document(doc)
        assert (G.degree, G.order) == (3, 6)

    def test_semilinear_document(self):
        doc = {
            "affine": {
                "p": 2,
                "k": 3,
                "dim": 1,
                "generators": [
                    {"matrix": [[3]]},  # multiplication by a generator of GF(8)*
                    {"matrix": [[1]], "frobenius": 1},
                ],
            }
        }
        G = group_from_document(doc)
        assert G.order == 168

    def test_exactly_one_kind(self):
        with pytest.raises(ValueError):
            group_from_document({"named": "D6", "degree": 3})
        with pytest.raises(ValueError):
            group_from_document({})


def test_product_keeps_affine_structure():
    # D6 x D6 is affine over GF(3)^2, and its point (a, b) is 3a + b
    T = translations(named_group("Product(D6,D6)"))
    assert (int(T[3, 1]), int(T[4, 4]), int(T[8, 4])) == (4, 8, 0)


@pytest.mark.parametrize("name, p, dim", [("Product(AGammaL(1,9),D6)", 3, 3),
                                          ("Product(J,AGL(1,4))", 2, 5)])
def test_product_over_one_characteristic_is_affine(name, p, dim):
    # GF(p^k)^d is GF(p)^(kd), with the same base-p numbering of the points
    G = named_group(name)
    T = translations(G)
    assert T.shape == (p**dim, G.degree)
    assert all(_is_translation(p, dim, row) for row in T)


def test_mixed_characteristic_product_is_not_affine():
    for name in ("Product(D6,D10)", "Product(AGL(1,5),D6)"):
        assert translations(named_group(name)) is None
