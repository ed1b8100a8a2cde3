"""The benchmark's traced run wraps binreg functions by module attribute
name (``perfbench/spans.py``). A name that leaves the package makes the
traced run raise AttributeError before any operation; this test fails
first."""

import sys
from pathlib import Path

import binreg.cli
import binreg.core
import binreg.mle
import binreg.overlap
import binreg.verify
from binreg.links import LINKS
from binreg.rng import CounterRng

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

MODULES = (binreg.cli, binreg.core, binreg.mle, binreg.overlap, binreg.verify)


def snapshot():
    state = {m.__name__: dict(vars(m)) for m in MODULES}
    state["CounterRng"] = dict(vars(CounterRng))
    state.update({f"link {name}": dict(vars(link)) for name, link in LINKS.items()})
    return state


def test_install_then_uninstall_restores_every_module():
    before = snapshot()
    undo = spans.install(spans.Tracer())
    try:
        assert binreg.mle.cone_overlap is not before["binreg.mle"]["cone_overlap"]
    finally:
        spans.uninstall(undo)
    after = snapshot()
    assert after.keys() == before.keys()
    for key in before:
        assert after[key].keys() == before[key].keys(), key
        for attr, value in before[key].items():
            assert after[key][attr] is value, (key, attr)

