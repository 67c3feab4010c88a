"""End-to-end acceptance checks, one reported line per criterion.

Every numeric comparison is exact integer equality; there are no tolerances.
"""

import time

import pytest

from stabparts import (
    PointSet,
    all_sylows,
    classify_moderation,
    find_sylow,
    is_p_concealed,
    named_group,
    orbit_size_floor_check,
    p_part,
    parse_cycles,
    product_action,
    prop_certificate,
    randomized_witness_from_z,
    setwise_stabilizer,
    stab_p_part,
    subsets_fixed_count,
)
from stabparts.census import CriterionInapplicable
from stabparts.sylow import (
    frattini_center_element,
    is_elementary_abelian,
    prime_divisors,
)

import functools
import sys


def _criterion(label):
    """Print one [PASS]/[FAIL] line per criterion, then let pytest report."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kw):
            try:
                fn(*args, **kw)
            except BaseException:
                print(f"[FAIL] {label}", file=sys.stderr)
                raise
            print(f"[PASS] {label}", file=sys.stderr)

        return run

    return wrap


@_criterion("criterion 1: D6, D10 2-concealed and J 3-concealed")
def test_criterion_1_concealed_positives():
    started = time.time()
    for name, p in (("D6", 2), ("D10", 2), ("J", 3)):
        ok, counterexample = is_p_concealed(named_group(name), p)
        assert ok, name
        assert counterexample is None
    assert named_group("J").order == 168
    assert time.time() - started < 10.0


@_criterion("criterion 2: AGL(1,5) is not 2-concealed, with counterexample")
def test_criterion_2_concealed_negative():
    G = named_group("AGL(1,5)")
    ok, counterexample = is_p_concealed(G, 2)
    assert not ok
    assert counterexample is not None
    assert stab_p_part(G, counterexample, 2) < p_part(G.order, 2)


@_criterion("criterion 3: D6 x D6 diagonal pair has stabilizer of order 2")
def test_criterion_3_product_witness():
    G = named_group("Product(D6,D6)")
    # (0,0) -> point 0 and (1,1) -> point 4 under the pair encoding a*3 + b
    delta = PointSet(9, [0, 4])
    assert setwise_stabilizer(G, delta).order == 2
    report = classify_moderation(G, 2)
    assert report.status == "MODERATE"
    assert report.stab_p_part == 2
    assert report.group_p_part == 4


@_criterion("criterion 4: J x J counting paragraph, all integers exact")
def test_criterion_4_product_counting(jxj):
    started = time.time()
    J = named_group("J")
    data_j = all_sylows(J, 3)
    assert data_j.count == 28
    assert sorted(len(o) for o in data_j.representative.orbits()) == [1, 1, 3, 3]
    data = all_sylows(jxj, 3)
    assert data.count == 784 == 28 * 28
    P = data.representative
    assert len(P.orbits()) == 16
    assert subsets_fixed_count(list(P.generators), 64) == 1 << 16
    # t has order 3 and acts trivially on the second factor
    from stabparts.verify import _order3_first_factor_element

    t = _order3_first_factor_element(J)
    assert t.order() == 3
    assert all(int(t.images[x]) % 8 == x % 8 for x in range(64))
    assert subsets_fixed_count(t, 64) == 1 << 32
    assert 784 * (1 << 16) < (1 << 32)
    delta = randomized_witness_from_z(jxj, 3, t, trials=1000, seed=0)
    assert delta is not None
    # brute-force re-verification over all 28224 elements
    assert jxj.order == 28224
    assert p_part(setwise_stabilizer(jxj, delta).order, 3) == 3
    assert time.time() - started < 300.0


@_criterion("criterion 5: counting certificates for C4, Sym(4), J x J")
def test_criterion_5_counting_certificates(jxj):
    cert = prop_certificate(named_group("C4"), 2)
    assert cert.verdict is True
    assert cert.lhs_power == 1 and cert.rhs_power == 16
    assert classify_moderation(named_group("C4"), 2, "exhaustive").status == "MODERATE"

    cert = prop_certificate(named_group("Sym(4)"), 2)
    assert cert.verdict is False
    assert cert.lhs_power == 81 and cert.rhs_power == 16
    assert (
        classify_moderation(named_group("Sym(4)"), 2, "exhaustive").status
        == "MODERATE"
    )

    with pytest.raises(CriterionInapplicable):
        prop_certificate(jxj, 3)


@_criterion("criterion 6: solvable primitive spot-suite is MODERATE both ways")
def test_criterion_6_spot_suite():
    suite = (("Sym(4)", 2), ("AGL(2,3)", 2), ("AGL(2,3)", 3), ("AGammaL(1,9)", 2))
    for name, p in suite:
        G = named_group(name)
        assert G.is_transitive() and G.degree <= 16
        assert G.order % (p * p) == 0
        exh = classify_moderation(G, p, "exhaustive")
        con = classify_moderation(G, p, "constructive")
        assert exh.status == "MODERATE", (name, p)
        assert con.status == "MODERATE", (name, p)
        for report in (exh, con):
            part = stab_p_part(G, report.witness, p)
            assert part == report.stab_p_part
            assert 1 < part < p_part(G.order, p)


@_criterion("criterion 7: property suites over the group zoo")
def test_criterion_7_property_suites(zoo):
    cases = 0
    # subsets fixed by a subgroup = 2^{#orbits}, exhaustive at n <= 12
    for name, G in zoo.items():
        if G.degree > 12:
            continue
        for g in G.iter_elements():
            brute = sum(
                1
                for mask in range(1 << G.degree)
                if PointSet.from_mask(G.degree, mask).image(g).mask == mask
            )
            assert subsets_fixed_count(g, G.degree) == brute
            cases += 1
    # Sylow axioms on every zoo group
    for name, G in zoo.items():
        for p in prime_divisors(G.order):
            data = all_sylows(G, p)
            assert data.count % p == 1
            assert data.representative.order == p_part(G.order, p)
            cases += 1
    # conjugation covariance of setwise stabilizers
    import random

    rng = random.Random(0)
    for name, G in zoo.items():
        if G.degree > 16:
            continue
        elems = list(G.iter_elements())
        for _ in range(5):
            g = rng.choice(elems)
            delta = PointSet(
                G.degree, rng.sample(range(G.degree), G.degree // 2 or 1)
            )
            lhs = {s._key for s in setwise_stabilizer(G, delta.image(g)).iter_elements()}
            rhs = {
                (g.inverse() * s * g)._key
                for s in setwise_stabilizer(G, delta).iter_elements()
            }
            assert lhs == rhs
            cases += 1
    # orbit size floor on every applicable (P, z)
    for name, G in zoo.items():
        for p in prime_divisors(G.order):
            P = find_sylow(G, p)
            if is_elementary_abelian(P, p):
                continue
            z = frattini_center_element(P, p)
            assert orbit_size_floor_check(P, p, z)
            cases += 1
    # concealed implies extreme, and reported witnesses re-verify
    for name, G in zoo.items():
        if G.degree > 16:
            continue
        for p in prime_divisors(G.order):
            concealed, _ = is_p_concealed(G, p)
            report = classify_moderation(G, p, "exhaustive")
            if concealed:
                assert report.status == "EXTREME"
            if report.status == "MODERATE":
                assert (
                    stab_p_part(G, report.witness, p) == report.stab_p_part
                )
            cases += 1
    assert cases >= 100


@_criterion("criterion 8: verify-paper runs clean, deterministic, seed 0")
def test_criterion_8_verify_paper_end_to_end():
    import json

    from click.testing import CliRunner

    from stabparts.cli import main

    started = time.time()
    runner = CliRunner()
    blobs = []
    for _ in range(2):
        result = runner.invoke(main, ["verify-paper", "--seed", "0"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.stdout)
        assert doc["payload"]["failed"] == 0
        blobs.append(json.dumps(doc["payload"], sort_keys=True))
    assert blobs[0] == blobs[1]
    assert time.time() - started < 600.0
