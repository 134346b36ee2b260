"""``Tracer.snapshot`` through per-struct layouts equals the per-cell build.

The tracer reads each reachable cell's live values through a layout (field
names and a value reader) built once per struct type.  The models it
builds must be the ones the per-cell construction gives -- the reachable
set, ``RuntimeHeap.cell`` and ``StructDef.field_names`` for every cell --
in content, in heap insertion order (location keys digest cells in that
order) and in ``digest()``.  ``StructDef`` caches its layout views without
changing its equality, hashing or pickled form.
"""

from __future__ import annotations

import pickle
from dataclasses import fields

import pytest

from repro.benchsuite.registry import get_benchmark
from repro.lang.errors import HeapLangError
from repro.lang.heap import RuntimeHeap
from repro.lang.interp import Interpreter
from repro.lang.tracer import Tracer
from repro.lang.types import StructDef, is_pointer_type
from repro.sl.model import Heap, HeapCell, StackHeapModel

#: One single-field struct, int fields, two struct types, and freed cells
#: (``dll/delAll``, ``queue/rmHd``, ``svcomp/destroySlave``).
BENCHMARKS = (
    "sll/insertFront",
    "sorted/insertIter",
    "traversal/tree2list",
    "dll/delAll",
    "queue/rmHd",
    "svcomp/destroySlave",
)


def _reference_snapshot(structs, frame, heap, result=None) -> StackHeapModel:
    """The per-cell construction: one registry lookup, ``field_names``
    call and copied ``heap.cell`` per reachable cell."""
    stack = dict(frame.values)
    var_types = dict(frame.types)
    if result is not None:
        stack["res"] = result
    roots = [
        value
        for name, value in stack.items()
        if value != 0
        and (name == "res" or var_types.get(name) is None or is_pointer_type(var_types[name]))
    ]
    cells = {}
    freed = set()
    for address in heap.reachable(roots, include_freed=True):
        struct = structs.get(heap.type_of(address))
        values = heap.cell(address)
        cells[address] = HeapCell(struct.name, [(name, values[name]) for name in struct.field_names])
        if heap.is_freed(address):
            freed.add(address)
    return StackHeapModel(stack, Heap(cells), var_types, freed)


class _PairedTracer(Tracer):
    """Takes every snapshot both ways."""

    def __init__(self, structs):
        super().__init__(structs)
        self.references: list[StackHeapModel] = []

    def snapshot(self, frame, heap, result=None):
        self.references.append(_reference_snapshot(self.structs, frame, heap, result))
        return super().snapshot(frame, heap, result)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_layout_snapshots_equal_the_per_cell_build(name):
    benchmark = get_benchmark(name)
    program = benchmark.program
    models = references = 0
    freed = 0
    for test_case in benchmark.test_cases(0):
        tracer = _PairedTracer(program.structs)
        heap = RuntimeHeap(program.structs)
        try:
            Interpreter(program, observer=tracer).run(
                benchmark.function, list(test_case(heap)), heap
            )
        except HeapLangError:
            pass
        snapshots = [event.model for event in tracer.events]
        assert len(snapshots) == len(tracer.references)
        for model, reference in zip(snapshots, tracer.references):
            assert model == reference
            assert list(model.heap) == list(reference.heap)
            assert [cell.values for _, cell in model.heap.items()] == [
                cell.values for _, cell in reference.heap.items()
            ]
            assert model.digest() == reference.digest()
            freed += bool(model.freed_addresses)
        models += len(snapshots)
        references += len(tracer.references)
    assert models == references > 0
    if name in ("dll/delAll", "queue/rmHd", "svcomp/destroySlave"):
        assert freed > 0


def test_a_changed_cell_changes_the_digest():
    cell = HeapCell("SNode", [("next", 0), ("data", 1)])
    model = StackHeapModel({"x": 16}, Heap({16: cell}), {"x": "SNode*"})
    changed = model.with_heap(Heap({16: HeapCell("SNode", [("next", 0), ("data", 2)])}))
    assert len(model.digest()) == 20
    assert model.digest() != changed.digest()
    assert pickle.loads(pickle.dumps(model)).digest() == model.digest()


def test_struct_def_equality_hashing_and_pickling_ignore_the_cached_layout():
    fresh = StructDef("DllNode", [("next", "DllNode*"), ("prev", "DllNode*"), ("size", "int")])
    used = StructDef("DllNode", [("next", "DllNode*"), ("prev", "DllNode*"), ("size", "int")])
    assert used.field_names == ("next", "prev", "size")
    assert used.pointer_fields() == ("next", "prev")
    assert used.pointer_fields() is used.pointer_fields()
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert [spec.name for spec in fields(StructDef)] == ["name", "fields"]
    assert pickle.dumps(used) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(used))
    assert restored == used and restored.field_names == used.field_names
    assert restored.pointer_fields() == ("next", "prev")
    assert StructDef("DllNode", [("next", "DllNode*")]) != fresh
