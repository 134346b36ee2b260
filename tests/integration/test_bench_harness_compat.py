"""The benchmark harness's layer table still resolves against the code.

``perfbench/layers.py`` times each layer by wrapping named attributes where
the caller looks them up (``repro.core.infer_atom.screen_candidates``,
``ModelChecker.check_batch``, ...).  A rename or move in the program would
silently drop a layer from the per-layer numbers, so every ``(owner,
names)`` entry must resolve.  The table is read without installing any
wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_LAYERS_PY = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def _layers_table():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


_LAYERS = _layers_table()


@pytest.mark.parametrize(
    "layer, owner_spec, names", _LAYERS, ids=[layer for layer, _, _ in _LAYERS]
)
def test_layer_entry_resolves(layer, owner_spec, names):
    module_name, _, class_name = owner_spec.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    for name in names:
        assert callable(getattr(owner, name)), f"{layer}: {owner_spec}.{name}"
