"""Unit tests for stack-heap models and heap operations."""

import pytest

from repro.sl.errors import HeapError
from repro.sl.model import Heap, HeapCell, StackHeapModel, models_difference, models_union


def _cell(next_value=0, prev_value=0):
    return HeapCell("DllNode", {"next": next_value, "prev": prev_value})


class TestHeapCell:
    def test_field_access(self):
        cell = _cell(3, 5)
        assert cell.get("next") == 3
        assert cell.get("prev") == 5
        assert cell.values == (3, 5)
        assert cell.field_names == ("next", "prev")

    def test_unknown_field_raises(self):
        with pytest.raises(HeapError):
            _cell().get("data")


class TestHeap:
    def test_domain_and_lookup(self):
        heap = Heap({1: _cell(2), 2: _cell(0)})
        assert heap.domain() == {1, 2}
        assert heap[1].get("next") == 2
        assert heap.get(3) is None
        with pytest.raises(HeapError):
            heap[3]

    def test_restrict_and_remove(self):
        heap = Heap({1: _cell(), 2: _cell(), 3: _cell()})
        assert heap.restrict([1, 3]).domain() == {1, 3}
        assert heap.remove([2]).domain() == {1, 3}

    def test_union_disjoint(self):
        left = Heap({1: _cell()})
        right = Heap({2: _cell()})
        assert left.union(right).domain() == {1, 2}

    def test_union_overlap_raises(self):
        with pytest.raises(HeapError):
            Heap({1: _cell()}).union(Heap({1: _cell()}))

    def test_difference(self):
        heap = Heap({1: _cell(), 2: _cell()})
        assert heap.difference(Heap({2: _cell()})).domain() == {1}

    def test_disjointness(self):
        assert Heap({1: _cell()}).disjoint_from(Heap({2: _cell()}))
        assert not Heap({1: _cell()}).disjoint_from(Heap({1: _cell()}))

    def test_reachability(self):
        heap = Heap({1: _cell(2), 2: _cell(3), 3: _cell(0), 9: _cell(0)})
        assert heap.reachable_from([1]) == {1, 2, 3}
        assert heap.reachable_from([9]) == {9}
        assert heap.reachable_from([0]) == frozenset()

    def test_equality_and_hash(self):
        assert Heap({1: _cell(2)}) == Heap({1: _cell(2)})
        assert hash(Heap({1: _cell(2)})) == hash(Heap({1: _cell(2)}))


class TestStackHeapModel:
    def test_stack_access(self):
        model = StackHeapModel({"x": 1, "n": 7}, Heap({1: _cell()}), {"x": "DllNode*", "n": "int"})
        assert model.value_of("x") == 1
        assert model.has_var("n")
        assert not model.has_var("z")
        with pytest.raises(KeyError):
            model.value_of("z")

    def test_pointer_vars_respect_types(self):
        model = StackHeapModel(
            {"x": 1, "count": 5, "res": 1},
            Heap({1: _cell()}),
            {"x": "DllNode*", "count": "int"},
        )
        pointer_vars = model.pointer_vars()
        assert "x" in pointer_vars
        assert "count" not in pointer_vars
        # Untyped variables holding addresses are treated as pointers.
        assert "res" in pointer_vars

    def test_freed_cells_flag(self):
        model = StackHeapModel({"x": 1}, Heap({1: _cell()}), freed_addresses=[1])
        assert model.has_freed_cells()

    def test_with_heap(self):
        model = StackHeapModel({"x": 1}, Heap({1: _cell()}))
        emptied = model.with_heap(Heap())
        assert emptied.heap.is_empty()
        assert emptied.stack == model.stack

    def test_with_heap_keeps_only_heap_independent_caches(self):
        model = StackHeapModel({"x": 1, "y": 1}, Heap({1: _cell()}), {"x": "Node*"})
        assert model.pointer_vars() == ("x", "y")
        model.stack_map, model.types_map, hash(model)
        copy = model.with_heap(Heap())
        assert copy == StackHeapModel(model.stack, Heap(), model.var_types)
        assert hash(copy) == hash(StackHeapModel(model.stack, Heap(), model.var_types))
        assert copy.stack_map is model.stack_map
        assert copy.types_map is model.types_map
        # Untyped ``y`` held an address of the old heap, not of the new one.
        assert copy.pointer_vars() == ("x",)


class TestModelSequences:
    def test_union_and_difference(self):
        base = [StackHeapModel({"x": 1}, Heap({1: _cell()}))]
        other = [StackHeapModel({"x": 1}, Heap({2: _cell()}))]
        combined = models_union(base, other)
        assert combined[0].heap.domain() == {1, 2}
        reduced = models_difference(combined, other)
        assert reduced[0].heap.domain() == {1}

    def test_length_mismatch_raises(self):
        with pytest.raises(HeapError):
            models_union([], [StackHeapModel({}, Heap())])
