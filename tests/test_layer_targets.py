"""The benchmark's layer wrappers name functions that exist.

``benchmarks/e2e/layers.py`` wraps each ``TARGETS`` entry by module and
attribute name when a run is traced; a renamed or deleted entry point would
fail only there.  This resolves every entry the way ``install`` does,
without installing anything.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"
_spec = importlib.util.spec_from_file_location("e2e_layers", _PATH)
layers = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(layers)


@pytest.mark.parametrize("target", layers.TARGETS, ids=lambda t: f"{t.module}.{t.attr}")
def test_every_wrapped_name_resolves(target):
    owner, name = layers._resolve(target)
    # ``install`` reads a method from its class's own ``__dict__``.
    found = name in owner.__dict__ if isinstance(owner, type) else hasattr(owner, name)
    assert found, f"{target.layer}: {target.module}.{target.attr} is gone"
    assert callable(getattr(owner, name))
