"""Frame-rule verdicts shared through the stream memo.

Inside a shared memo (an engine batch's, a serve daemon's) the verdict of
``Sling._validate`` for one return location -- the Section 4.4 residual
check of the precondition and that location's first postcondition over the
paired entry/exit models -- is looked up by content before
:func:`~repro.core.validate.validate_specification` runs.  These tests pin
that a served verdict is the one a fresh validation gives, in both
directions, that any change to the paired models misses, and that only a
shared memo outside ``reference_search`` is consulted.  A repeated
``infer_function`` call is answered by the function memo first, so the
repeat below runs ``Sling._infer_function``, the traced path beneath it.
"""

from __future__ import annotations

import pytest

from repro.benchsuite.registry import get_benchmark
from repro.core.sling import Sling, SlingConfig
from repro.core.validate import paired_entry_exit_models, validate_specification
from repro.sl.checker import ModelChecker
from repro.sl.model import Heap, HeapCell
from repro.sl.stream import stream_pool

CONFIG = SlingConfig(discard_crashed_runs=True)


def _sling(benchmark, config=CONFIG) -> Sling:
    return Sling(benchmark.program, benchmark.predicates, config)


def _infer(sling: Sling, benchmark):
    return sling.infer_function(benchmark.function, benchmark.test_cases(0))


def _fresh_verdicts(benchmark, specification) -> dict[str, bool]:
    """Each validated return location's verdict from a fresh checker."""
    traces = _sling(benchmark).collect(benchmark.function, benchmark.test_cases(0))
    checker = ModelChecker(benchmark.predicates, structs=benchmark.program.structs)
    verdicts = {}
    for location, invariants in specification.postconditions.items():
        pairs = paired_entry_exit_models(traces, benchmark.function, location)
        if invariants and pairs:
            verdicts[location] = validate_specification(
                specification.preconditions[0], invariants[0], pairs, checker
            )
    return verdicts


@pytest.mark.parametrize(
    "name, validated", [("sll/insertFront", True), ("queue/insertTl", False)]
)
def test_a_served_verdict_equals_a_fresh_validation(name, validated):
    benchmark = get_benchmark(name)
    alone = _infer(_sling(benchmark), benchmark)
    assert alone.validated is validated
    with stream_pool():
        _infer(_sling(benchmark), benchmark)
        second = _sling(benchmark)
        served = second._infer_function(benchmark.function, benchmark.test_cases(0))
    fresh = _fresh_verdicts(benchmark, served)
    assert second.cache_counters().validation_memo_hits == len(fresh) > 0
    assert served.validated is validated is all(fresh.values())
    for location, verdict in fresh.items():
        assert all(inv.spurious is not verdict for inv in served.postconditions[location])
    assert [inv.spurious for inv in served.all_invariants()] == [
        inv.spurious for inv in alone.all_invariants()
    ]


def _one_field_apart(model):
    """``model`` with one integer field of one cell incremented."""
    for address, cell in model.heap.items():
        for position, (name, value) in enumerate(cell.fields):
            if name == "data":
                fields = list(cell.fields)
                fields[position] = (name, value + 1)
                cells = dict(model.heap.items())
                cells[address] = HeapCell(cell.type_name, fields)
                return model.with_heap(Heap(cells))
    raise AssertionError("no data field to change")


def test_an_exit_model_one_field_apart_is_not_served():
    benchmark = get_benchmark("gslist/prepend")
    with stream_pool():
        first = _sling(benchmark)
        specification = _infer(first, benchmark)
        traces = first.collect(benchmark.function, benchmark.test_cases(0))
        (location,) = specification.postconditions
        pairs = paired_entry_exit_models(traces, benchmark.function, location)
        precondition = specification.preconditions[0]
        postcondition = specification.postconditions[location][0]
        changed = [(pairs[0][0], _one_field_apart(pairs[0][1]))] + pairs[1:]
        assert changed[0][1] != pairs[0][1]

        same, other = _sling(benchmark), _sling(benchmark)
        assert same._memoized_verdict(precondition, postcondition, pairs) is True
        verdict = other._memoized_verdict(precondition, postcondition, changed)
    # The unchanged pairs hit, so the miss below is the changed field's doing.
    assert same.cache_counters().validation_memo_hits == 1
    assert other.cache_counters().validation_memo_hits == 0
    assert other.cache_counters().checker_misses > 0
    checker = ModelChecker(benchmark.predicates, structs=benchmark.program.structs)
    assert verdict == validate_specification(precondition, postcondition, changed, checker)


def test_private_memos_and_reference_search_never_consult_it():
    benchmark = get_benchmark("sll/insertFront")
    private = _sling(benchmark)
    for _ in range(2):
        _infer(private, benchmark)
    assert not private.checker.shares_streams
    assert private.checker.locations == {}
    assert private.cache_counters().validation_memo_hits == 0

    config = SlingConfig(discard_crashed_runs=True, reference_search=True)
    with stream_pool() as memo:
        slings = [_sling(benchmark, config) for _ in range(2)]
        for sling in slings:
            _infer(sling, benchmark)
    assert memo.locations == {}
    counters = [sling.cache_counters() for sling in slings]
    assert [stats.validation_memo_hits for stats in counters] == [0, 0]
    assert counters[0].checker_misses == counters[1].checker_misses
