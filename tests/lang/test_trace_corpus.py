"""The trace layer end to end: the seed-0 trace corpus, copy-on-write
snapshot cells and the step budget.

``corpus_digest`` folds every event of all 150 benchmarks at seed 0 --
location, stack, cells in heap order, typing, freed addresses -- and every
run's outcome, error text and final step count, independently of
``StackHeapModel.digest``.  Its pinned value was computed with the
tree-walking interpreter the closure compiler replaced.
"""

from __future__ import annotations

import pytest

from repro.benchsuite.corpus import PINNED_DIGESTS, collect_corpus, corpus_digest
from repro.lang import Function, If, Label, Program, Return, RuntimeHeap, Store, While
from repro.lang import interp as interp_module
from repro.lang.ast import Alloc, Free
from repro.lang.builder import call, eq, field, i, sub, v
from repro.lang.errors import InterpreterTimeout
from repro.lang.interp import Interpreter
from repro.lang.tracer import Location, collect_models


def test_the_seed0_trace_corpus_is_pinned():
    corpus = collect_corpus(0)
    assert len(corpus) == 150
    assert corpus_digest(corpus) == PINNED_DIGESTS[0]


def _snode_list(heap: RuntimeHeap, data: list[int]) -> int:
    head = 0
    for value in reversed(data):
        head = heap.alloc("SNode", {"next": head, "data": value})
    return head


def _run(structs, body, data=(1, 2, 3)):
    function = Function("f", [("x", "SNode*")], "int", [*body, Return(i(0))])
    traces = collect_models(
        Program(structs, [function]), "f", [lambda heap: [_snode_list(heap, list(data))]]
    )
    assert traces.crashed_runs() == 0
    return {event.location.name: event.model for event in traces.events}


class TestCopyOnWriteCells:
    """A snapshot rebuilds only the cells written since the previous one;
    every model stays what the heap held when it was taken."""

    def test_a_write_between_breakpoints_is_seen_by_the_later_model(self, structs):
        models = _run(
            structs, [Label("before"), Store(v("x"), "data", i(7)), Label("after")]
        )
        before, after = models["before"], models["after"]
        head = before.value_of("x")
        assert before.heap[head].get("data") == 1
        assert after.heap[head].get("data") == 7
        assert list(before.heap) == list(after.heap)
        # The unwritten cells are the earlier snapshot's own objects.
        shared = [a for a in before.heap if a != head]
        assert shared and all(after.heap[a] is before.heap[a] for a in shared)
        assert after.heap[head] is not before.heap[head]

    def test_an_earlier_model_never_changes(self, structs):
        models = _run(
            structs,
            [
                Label("first"),
                Store(field("x", "next"), "data", i(20)),
                Label("second"),
                Store(v("x"), "next", i(0)),
                Alloc("y", "SNode", {"data": i(5)}),
                Free(v("x")),
                Label("third"),
            ],
        )
        first, second, third = models["first"], models["second"], models["third"]
        cells = {address: cell.fields for address, cell in first.heap.items()}
        digest = first.digest()
        assert [cell.get("data") for _, cell in first.heap.items()] == [1, 2, 3]
        assert sorted(cell.get("data") for _, cell in second.heap.items()) == [1, 3, 20]
        # x no longer reaches its tail; y's fresh cell is reachable; x is freed.
        assert len(third.heap) == 2
        assert third.freed_addresses == {third.value_of("x")}
        assert {address: cell.fields for address, cell in first.heap.items()} == cells
        assert first.digest() == digest and not first.freed_addresses

    def test_snapshot_cells_are_dropped_on_write_only(self, structs):
        heap = RuntimeHeap(structs)
        address = heap.alloc("SNode", {"data": 1})
        heap.snapshot_cells[address] = "kept"
        heap.read(address, "data")
        heap.free(address)
        assert heap.snapshot_cells[address] == "kept"
        heap.write(address, "data", 2)
        assert address not in heap.snapshot_cells


class TestStepBudget:
    def test_a_divergent_loop_stops_at_exactly_max_steps(self, structs):
        spin = Function(
            "spin", [("x", "SNode*")], "int", [While(eq(i(0), i(0)), []), Return(i(1))]
        )
        traces = collect_models(Program(structs, [spin]), "spin", [lambda heap: [0]])
        (outcome,) = traces.outcomes
        assert outcome.crashed and outcome.timed_out
        assert outcome.error == (
            f"InterpreterTimeout: execution exceeded {interp_module.MAX_STEPS} steps "
            "(likely a divergent loop)"
        )
        # Each iteration is four steps (the loop, ``==`` and its operands);
        # the step past the budget raises.
        assert outcome.steps == interp_module.MAX_STEPS + 1
        loop_hits = len(traces.models_at(Location("spin", "loop#0")))
        assert loop_hits == traces.total_models() - 1 > 0

    @pytest.mark.parametrize("budget", (1, 2, 500, 501))
    def test_the_budget_is_read_when_the_run_steps(self, structs, monkeypatch, budget):
        """The function body is compiled by the first run; a later run
        still stops at the budget in force when it steps."""
        spin = Function("spin", [], "int", [While(eq(i(0), i(0)), []), Return(i(1))])
        interpreter = Interpreter(Program(structs, [spin]))
        for limit in (3, budget):
            monkeypatch.setattr(interp_module, "MAX_STEPS", limit)
            with pytest.raises(InterpreterTimeout, match=f"exceeded {limit} steps"):
                interpreter.run("spin", [], RuntimeHeap(structs))
            assert interpreter.steps == limit + 1


def _countdown(structs) -> Program:
    """``f(n) = n == 0 ? 0 : f(n - 1)``."""
    f = Function(
        "f",
        [("n", "int")],
        "int",
        [If(eq(v("n"), i(0)), [Return(i(0))]), Return(call("f", sub(v("n"), i(1))))],
    )
    return Program(structs, [f])


class TestCallDepth:
    def test_a_deep_recursion_ends_as_a_crashed_timed_out_run(self, structs):
        # MAX_CALL_DEPTH stops f(5000) long before Python's own recursion
        # limit would, and the next run of the suite goes on.
        traces = collect_models(
            _countdown(structs), "f", [lambda heap: [5000], lambda heap: [3]]
        )
        deep, shallow = traces.outcomes
        assert deep.crashed and deep.timed_out
        assert deep.error == (
            f"InterpreterTimeout: call depth exceeded {interp_module.MAX_CALL_DEPTH}"
        )
        # One entry model per activation that started.
        assert len(traces.runs[0]) == interp_module.MAX_CALL_DEPTH
        assert not shallow.crashed and shallow.result == 0

    def test_the_python_stack_running_out_ends_the_run_the_same_way(
        self, structs, monkeypatch
    ):
        monkeypatch.setattr(interp_module, "MAX_CALL_DEPTH", 10**6)
        traces = collect_models(_countdown(structs), "f", [lambda heap: [5000]])
        (outcome,) = traces.outcomes
        assert outcome.crashed and outcome.timed_out
        assert outcome.error == (
            "InterpreterTimeout: call depth exceeded Python's recursion limit"
        )
