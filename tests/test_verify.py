"""verify-paper reads each checked fact from the code that owns it."""

import numpy as np

from stabparts import Permutation, named_group, verify
from stabparts.perms import _least_element_of_order


def test_run_all_builds_no_stabilizer_subgroup(setwise_calls):
    # |Stab(Delta)| is the number of rows that fix Delta: no subgroup is grown
    checks = verify.run_all(seed=0)
    assert [c.name for c in checks if not c.passed] == []
    assert setwise_calls == []


def test_order3_element_is_product_action_encoding():
    # the reference keeps the pair encoding (a, b) -> a * 8 + b written out
    J = named_group("J")
    t3 = _least_element_of_order(J.elements, 3)
    idx = np.arange(64, dtype=np.int32)
    expected = Permutation(t3.images[idx // 8] * 8 + idx % 8)
    assert verify._order3_first_factor_element(J) == expected


def test_applicable_criterion_on_jxj_fails(monkeypatch):
    # J x J's Sylow 3-subgroup is elementary abelian: a certificate there is
    # the check's one FAIL
    real = verify.prop_certificate

    def certificate(G, p):
        return real(named_group("C4"), 2) if G.degree == 64 else real(G, p)

    monkeypatch.setattr(verify, "prop_certificate", certificate)
    failed = [c.line() for c in verify.counting_certificates() if not c.passed]
    assert failed == ["FAIL  J x J @ p=3: criterion inapplicable  (unexpectedly applicable)"]
