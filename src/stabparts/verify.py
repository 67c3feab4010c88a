"""End-to-end reproduction suite: every concrete number the classifier is
expected to reproduce, runnable via `stabparts verify-paper` or pytest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import kernels
from .affine import named_group, product_action
from .census import (
    CriterionInapplicable,
    orbit_size_floor_check,
    prop_certificate,
    randomized_witness_from_z,
    subsets_fixed_count,
    sylow_cover_bound,
)
from .classify import classify_moderation, is_p_concealed
from .fields import p_part, prime_divisors
from .perms import (PermGroup, Permutation, PointSet, _least_element_of_order,
                    _stabilizing_rows, orbits, stab_p_part)
from .sylow import all_sylows, frattini_center_element

ZOO_NAMES = (
    "D6",
    "D10",
    "AGL(1,5)",
    "J",
    "AGammaL(1,9)",
    "AGL(2,3)",
    "Sym(4)",
    "C4",
    "Product(D6,D6)",
)

# solvable primitive members with p^2 | |G| and degree <= 16
SPOT_SUITE = (
    ("Sym(4)", 2),
    ("AGL(2,3)", 2),
    ("AGL(2,3)", 3),
    ("AGammaL(1,9)", 2),
)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}" + (
            f"  ({self.detail})" if self.detail else ""
        )


def _check(name: str, condition: bool, detail: str = "") -> Check:
    return Check(name, bool(condition), detail)


def concealed_positives() -> list[Check]:
    """D6 and D10 are 2-concealed, J is 3-concealed (full 2^n coverage)."""
    out = []
    for name, p in (("D6", 2), ("D10", 2), ("J", 3)):
        G = named_group(name)
        ok, _ = is_p_concealed(G, p)
        out.append(_check(f"{name} is {p}-concealed", ok))
    return out


def concealed_negative() -> list[Check]:
    G = named_group("AGL(1,5)")
    ok, counterexample = is_p_concealed(G, 2)
    return [
        _check(
            "AGL(1,5) is not 2-concealed",
            not ok and counterexample is not None,
            f"uncovered subset {counterexample.sorted_points() if counterexample else None}",
        )
    ]


def product_witness() -> list[Check]:
    """The diagonal two-point subset of D6 x D6 has stabilizer of order 2."""
    G = named_group("Product(D6,D6)")
    delta = PointSet(9, [0, 4])  # (0,0) and (1,1)
    order = _stabilizing_rows(G, delta).size
    report = classify_moderation(G, 2)
    return [
        _check("|Stab(D6xD6, {(0,0),(1,1)})| = 2", order == 2, f"order {order}"),
        _check(
            "D6xD6 classifies 2-MODERATE with part 2 of 4",
            report.status == "MODERATE"
            and report.stab_p_part == 2
            and report.group_p_part == 4,
        ),
    ]


def product_counting(seed: int = 0) -> list[Check]:
    """The J x J counting paragraph, every number exact."""
    out = []
    J = named_group("J")
    sd_j = all_sylows(J, 3)
    out.append(_check("J has 28 Sylow 3-subgroups", sd_j.count == 28,
                      f"count {sd_j.count}"))
    sizes = sorted(len(o) for o in sd_j.representative.orbits())
    out.append(_check("Sylow-3 of J has orbit sizes {1,1,3,3}",
                      sizes == [1, 1, 3, 3], f"sizes {sizes}"))
    JJ = product_action(J, J)
    sd = all_sylows(JJ, 3)
    out.append(_check("J x J has 784 Sylow 3-subgroups", sd.count == 784,
                      f"count {sd.count}"))
    r = len(sd.representative.orbits())
    out.append(_check("Sylow-3 of J x J has 16 orbits (2^16 fixed subsets)",
                      r == 16 and subsets_fixed_count(
                          sd.representative.generators, 64) == 2**16))
    t = _order3_first_factor_element(J)
    t_orbits = len(orbits([t], 64))
    out.append(_check("t (order 3, trivial on factor 2) has 32 orbits (2^32)",
                      t_orbits == 32
                      and subsets_fixed_count(t, 64) == 2**32))
    bound = sylow_cover_bound(JJ, 3, sylow=sd)
    out.append(_check("784 * 2^16 < 2^32 (exact integers)",
                      bound.exact == 784 * 2**16 and bound.exact < 2**32))
    delta = randomized_witness_from_z(JJ, 3, t, seed=seed)
    if delta is None:
        out.append(_check("randomized search finds a 3-part-3 subset", False,
                          "no witness found"))
    else:
        order = _stabilizing_rows(JJ, delta).size
        out.append(_check(
            "randomized witness re-verifies: stab 3-part exactly 3",
            p_part(order, 3) == 3,
            f"|Stab| = {order} over all {JJ.order} elements",
        ))
    return out


def _order3_first_factor_element(J) -> Permutation:
    t3 = _least_element_of_order(J.elements, 3)
    return product_action(J.subgroup([t3]), PermGroup.trivial(8)).generators[0]


def counting_certificates() -> list[Check]:
    out = []
    C4 = named_group("C4")
    cert = prop_certificate(C4, 2)
    moderate = classify_moderation(C4, 2, "exhaustive").status == "MODERATE"
    out.append(_check("C4 @ p=2: criterion verdict true, census MODERATE",
                      cert.verdict and moderate))
    S4 = named_group("Sym(4)")
    cert = prop_certificate(S4, 2)
    moderate = classify_moderation(S4, 2, "exhaustive").status == "MODERATE"
    out.append(_check(
        "Sym(4) @ p=2: verdict false (81 >= 16) yet census MODERATE",
        (not cert.verdict) and cert.lhs_power == 81 and cert.rhs_power == 16
        and moderate,
    ))
    JJ = named_group("Product(J,J)")
    try:
        prop_certificate(JJ, 3)
        out.append(_check("J x J @ p=3: criterion inapplicable", False,
                          "unexpectedly applicable"))
    except CriterionInapplicable:
        out.append(_check("J x J @ p=3: criterion inapplicable "
                          "(elementary abelian Sylow)", True))
    return out


def spot_suite() -> list[Check]:
    """The zoo's solvable primitive groups with p^2 | |G| classify
    MODERATE, exhaustive and constructive strategies agreeing."""
    out = []
    for name, p in SPOT_SUITE:
        G = named_group(name)
        exh = classify_moderation(G, p, "exhaustive")
        con = classify_moderation(G, p, "constructive")
        reverified = (
            con.witness is not None
            and 1 < stab_p_part(G, con.witness, p) < con.group_p_part
        )
        out.append(_check(
            f"{name} @ p={p} is MODERATE (both strategies, witness re-verified)",
            exh.status == "MODERATE" and con.status == "MODERATE" and reverified,
        ))
    return out


def property_suite(seed: int = 0) -> list[Check]:
    out = []
    rng = random.Random(seed)
    zoo = {name: named_group(name) for name in ZOO_NAMES}
    # one Sylow search per (G, p), and one census per (G, p) of degree <= 16,
    # serve every check below
    sylows = {(name, p): all_sylows(G, p)
              for name, G in zoo.items() for p in prime_divisors(G.order)}
    exhaustive = {(name, p): classify_moderation(G, p, "exhaustive")
                  for name, G in zoo.items() if G.degree <= 16
                  for p in prime_divisors(G.order)}

    # subsets fixed by a subgroup = 2^{#orbits}, exhaustively for n <= 12
    ok = True
    for name, G in zoo.items():
        if G.degree > 12:
            continue
        for p in prime_divisors(G.order):
            P = sylows[name, p].representative
            expected = subsets_fixed_count(P.generators, G.degree)
            actual = _count_fixed_subsets(P, G.degree)
            ok &= expected == actual
    out.append(_check("subsets fixed by subgroup = 2^{#orbits} (exhaustive)", ok))

    # Sylow axioms on every zoo group and prime
    ok = True
    for name, G in zoo.items():
        for p in prime_divisors(G.order):
            data = sylows[name, p]
            ok &= data.count % p == 1
            ok &= G.order % data.count == 0
            ok &= data.representative.order == p_part(G.order, p)
    out.append(_check("Sylow axioms: n_p = 1 mod p, n_p | |G|, |P| = |G|_p", ok))

    # conjugation covariance of setwise stabilizers
    ok = True
    for G in zoo.values():
        if G.degree > 16:
            continue
        elems = G.elements
        for _ in range(12):
            g = Permutation(elems[rng.randrange(len(elems))])
            delta = PointSet(G.degree,
                             rng.sample(range(G.degree),
                                        rng.randint(1, G.degree - 1)))
            lhs = elems[_stabilizing_rows(G, delta.image(g))]
            # g^-1 s g maps x to g[s[g^-1[x]]], for every row s of Stab(Delta)
            S = elems[_stabilizing_rows(G, delta)]
            rhs = g.images[S[:, g.inverse().images]]
            rhs = rhs[np.lexsort(rhs.T[::-1])]  # conjugation is injective: sort only
            ok &= np.array_equal(lhs, rhs)
    out.append(_check("Stab(Delta.g) = g^-1 Stab(Delta) g", ok))

    # orbit-size floor for every applicable (P, z)
    ok = True
    for name, G in zoo.items():
        for p in prime_divisors(G.order):
            P = sylows[name, p].representative
            z = frattini_center_element(P, p)
            if z is not None:
                ok &= orbit_size_floor_check(P, p, z)
    out.append(_check("orbits of P meeting supp(z) have size >= p^2", ok))

    # concealed implies EXTREME
    ok = True
    for name, p in (("D6", 2), ("D10", 2), ("J", 3)):
        concealed, _ = is_p_concealed(zoo[name], p)
        ok &= concealed and exhaustive[name, p].status == "EXTREME"
    out.append(_check("concealed groups classify EXTREME", ok))

    # every reported witness re-verifies
    ok = True
    for (name, p), rep in exhaustive.items():
        if rep.status == "MODERATE":
            part = stab_p_part(zoo[name], rep.witness, p)
            ok &= 1 < part < rep.group_p_part and part == rep.stab_p_part
    out.append(_check("every MODERATE witness re-verifies", ok))
    return out


def _count_fixed_subsets(P, degree: int) -> int:
    """The masks that every generator of P maps to themselves."""
    masks = np.arange(1 << degree, dtype=np.int32)
    fixed = np.ones(1 << degree, dtype=bool)
    for g in P.generators:
        fixed &= kernels._mask_images(g.images, degree) == masks
    return int(fixed.sum())


def run_all(seed: int = 0) -> list[Check]:
    checks = []
    checks += concealed_positives()
    checks += concealed_negative()
    checks += product_witness()
    checks += product_counting(seed=seed)
    checks += counting_certificates()
    checks += spot_suite()
    checks += property_suite(seed=seed)
    return checks
