import itertools
import json

import numpy as np
import pytest

from stabparts import build_field, named_group, parse_cycles, PermGroup
from stabparts.affine import (
    AffineSpec,
    SemilinearGen,
    build_affine,
    group_from_document,
    product_action,
)
from stabparts.fields import _MODULI


ALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1),
              (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
              (3, 2), (3, 3), (5, 2), (7, 2)]


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
        assert add[a, F.neg(a)] == 0
    for a in range(1, q):
        assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 1)])
def test_frobenius_is_automorphism(p, k):
    F = build_field(p, k)
    for a, b in itertools.product(range(F.q), repeat=2):
        assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
        assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))


def test_frobenius_fixed_field_of_gf8():
    F = build_field(2, 3)
    fixed = [x for x in range(8) if F.frobenius(x) == x]
    assert fixed == [0, 1]


def test_gf5_is_integers_mod_5():
    F = build_field(5, 1)
    for a, b in itertools.product(range(5), repeat=2):
        assert F.add(a, b) == (a + b) % 5
        assert F.mul(a, b) == (a * b) % 5


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


class TestVectorIndexing:
    def test_base_q_last_significant(self):
        F = build_field(3, 1)
        spec = AffineSpec(F, 2)
        assert spec.vec_to_point((1, 1)) == 4

    def test_dim_one_identity(self):
        F = build_field(2, 3)
        spec = AffineSpec(F, 1)
        assert spec.vec_to_point((5,)) == 5

    def test_roundtrip_gf8_squared(self):
        F = build_field(2, 3)
        spec = AffineSpec(F, 2)
        for pt in range(64):
            assert spec.vec_to_point(spec.point_to_vec(pt)) == pt

    def test_zero_vector(self):
        F = build_field(5, 1)
        spec = AffineSpec(F, 3)
        assert spec.vec_to_point((0, 0, 0)) == 0

    def test_out_of_range(self):
        F = build_field(3, 1)
        spec = AffineSpec(F, 2)
        with pytest.raises(ValueError):
            spec.vec_to_point((3, 0))


class TestBuildAffine:
    def test_d6_on_gf3(self):
        F = build_field(3, 1)
        spec = AffineSpec(F, 1, (SemilinearGen(((F.neg(1),),), 0, ()),))
        G = build_affine(spec)
        assert (G.degree, G.order) == (3, 6)

    def test_d10_on_gf5(self):
        F = build_field(5, 1)
        spec = AffineSpec(F, 1, (SemilinearGen(((F.neg(1),),), 0, ()),))
        G = build_affine(spec)
        assert (G.degree, G.order) == (5, 10)

    def test_j_on_gf8(self):
        G = named_group("AGammaL(1,8)")
        assert (G.degree, G.order) == (8, 168)
        assert G.order == 8 * 7 * 3

    def test_singular_matrix_rejected(self):
        F = build_field(3, 1)
        spec = AffineSpec(F, 2, (SemilinearGen(((1, 0), (1, 0)), 0, ()),))
        with pytest.raises(ValueError):
            build_affine(spec)

    def test_translations_act_regularly(self, zoo):
        # exactly one translation maps 0 to each point
        for name, G in zoo.items():
            if G.affine is None:
                continue
            translations = [
                row for row in G.elements
                if _is_translation(G.affine, row)
            ]
            assert len(translations) == G.degree, name
            assert sorted(int(r[0]) for r in translations) == list(range(G.degree))


def _is_translation(spec, row):
    # a translation is addition by the image of 0
    b = int(row[0])
    return all(int(row[x]) == spec.point_add(x, b) for x in range(len(row)))


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

    def test_agammal_order_formula(self):
        # |AGammaL(1,q)| = q (q - 1) k for q = p^k
        assert named_group("AGammaL(1,8)").order == 8 * 7 * 3
        assert named_group("AGammaL(1,9)").order == 9 * 8 * 2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_group("E8")

    def test_affine_d6_matches_cycle_d6(self):
        A = named_group("D6")
        B = PermGroup.from_cycles(3, ["(0 1 2)", "(1 2)"])
        assert A.order == B.order
        assert np.array_equal(A.elements, B.elements)  # same subgroup of Sym(3)

    def test_affine_d6_cycle_types(self):
        from collections import Counter

        A = named_group("D6")
        B = PermGroup.from_cycles(3, ["(0 1 2)", "(1 2)"])
        ct = lambda G: Counter(tuple(sorted(len(c) for c in g.cycles(include_fixed=True)))
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
    G = named_group("Product(D6,D6)")
    assert G.affine is not None
    assert G.affine.dim == 2
    assert G.affine.vec_to_point((1, 1)) == 4
