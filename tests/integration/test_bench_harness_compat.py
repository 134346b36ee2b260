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


def test_wrappers_installed_after_a_checker_is_built_still_count(monkeypatch):
    """The ``sl.kernels`` and ``sl.checker.stream`` layers wrap
    ``decide_group`` on its module and ``EnvStream.ensure`` on its class.
    A checker built before the wrappers were installed must still call
    them, or those layers would silently read 0."""
    from repro.lang.types import standard_structs
    from repro.sl import kernels
    from repro.sl.checker import EnvStream, ModelChecker, PureVariant, build_skeleton
    from repro.sl.model import Heap, HeapCell, StackHeapModel
    from repro.sl.parser import parse_formula
    from repro.sl.stdpreds import standard_predicates

    checker = ModelChecker(standard_predicates(), structs=standard_structs())
    calls = {"decide_group": 0, "ensure": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(kernels, "decide_group", counting("decide_group", kernels.decide_group))
    monkeypatch.setattr(EnvStream, "ensure", counting("ensure", EnvStream.ensure))
    cells = {1: HeapCell("SllNode", {"next": 2}), 2: HeapCell("SllNode", {"next": 0})}
    model = StackHeapModel({"x": 1}, Heap(cells), {"x": "SllNode*"})
    variant = PureVariant(parse_formula("lseg(x, nil)"), var_slots=(), nil_slots=(1,))
    (outcome,) = checker.check_batch([model], build_skeleton("lseg", 2, "x", 0), [variant])
    assert outcome is not None
    assert calls["decide_group"] > 0
    assert calls["ensure"] > 0
