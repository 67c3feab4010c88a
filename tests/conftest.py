import sys

import pytest

from stabparts import classify, named_group
from stabparts.verify import ZOO_NAMES


@pytest.fixture(scope="session")
def zoo():
    return {name: named_group(name) for name in ZOO_NAMES}


@pytest.fixture(scope="session")
def jxj():
    return named_group("Product(J,J)")


@pytest.fixture
def setwise_calls(monkeypatch):
    """The argument tuples of every setwise_stabilizer call, under each name
    a stabparts module binds it to: the one builder of a group from table rows."""
    calls = []
    original = classify.setwise_stabilizer

    def spy(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "setwise_stabilizer", None)
        if name.split(".")[0] == "stabparts" and bound is original:
            monkeypatch.setattr(module, "setwise_stabilizer", spy)
    return calls
