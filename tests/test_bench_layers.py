"""Every layer the benchmark traces must still exist under the name it rebinds.

bench/spans.py times beamsel's layers by replacing ``owner.__dict__[attr]``
with a wrapper. A renamed or moved function would make ``bench/run.py
--trace 1`` fail with a KeyError, so the names are checked here.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_spans().LAYERS


@pytest.mark.parametrize("owner,attr,name", LAYERS, ids=[name for _, _, name in LAYERS])
def test_traced_layer_exists(owner, attr, name):
    assert attr in owner.__dict__, f"{name}: {owner.__name__} has no {attr!r}"
    assert callable(owner.__dict__[attr])
