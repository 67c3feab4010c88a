"""The benchmark's traced run can wrap the package and unwrap it again.

`perfbench/tracing.py` replaces functions, properties and CLI callbacks by
name, so deleting or renaming one of them breaks `run.py --trace 1`.
"""

import importlib.util
import sys
from pathlib import Path

import stabparts
import stabparts.cli
from stabparts import perms, sylow, verify

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in a stabparts module, PermGroup's attributes and the
    CLI callbacks, as (owner, name) -> object."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "stabparts" or modname.startswith("stabparts."):
            out.update({(modname, attr): value for attr, value in vars(mod).items()})
    out.update({("PermGroup", attr): value for attr, value in vars(perms.PermGroup).items()})
    out.update({("cli", name): cmd.callback
                for name, cmd in stabparts.cli.main.commands.items()})
    return out


def test_install_and_restore():
    tracing = _load_tracing()
    before = _bindings()
    patches = tracing.install(tracing.Recorder())
    try:
        assert sylow.find_sylow.__wrapped__ is before[("stabparts.sylow", "find_sylow")]
        assert verify.all_sylows is not before[("stabparts.verify", "all_sylows")]
        assert perms.PermGroup.elements is not before[("PermGroup", "elements")]
    finally:
        patches.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
