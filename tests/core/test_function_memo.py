"""Whole functions served from the shared memo.

The interpreter is deterministic, so a function's specification is a
function of the program, the inputs its test cases build, the registry and
the config.  Inside a shared memo (an engine batch's, a serve daemon's)
``Sling.infer_function`` builds every input once and looks the function up
by their content before it runs any of them.  These tests pin that:

* a served specification is the one a fresh standalone run infers:
  invariants, spurious and freed flags, ``validated`` and the unreached
  locations, also for a suite with crashed runs;
* any change to what the runs see misses: one input value, one program
  statement, the variable order, an interpreter budget;
* only a shared memo is consulted, never under ``reference_search``;
* a hit draws from the suite's shared random generator exactly what a
  traced run draws;
* a hit's ``function`` span says so, and has no ``location`` child.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.benchsuite.registry import get_benchmark
from repro.core.sling import Sling, SlingConfig
from repro.lang import interp as interp_module
from repro.lang.ast import Alloc, Program
from repro.lang.builder import add, i, v
from repro.lang.errors import NullDereference
from repro.lang.tracer import build_input, collect_models
from repro.sl.stream import stream_pool
from repro.telemetry import Telemetry, read_trace, span_records


def _sling(benchmark, config=None, program=None) -> Sling:
    return Sling(program or benchmark.program, benchmark.predicates, config)


def _rendered(specification) -> tuple:
    return (
        [
            (inv.location, inv.pretty(), inv.spurious, inv.from_freed_traces)
            for inv in specification.all_invariants()
        ],
        specification.validated,
        specification.unreached_locations,
    )


def _crashing(heap):
    raise NullDereference("read of field 'next' through NULL pointer")


#: The suites below: a validated one, one with a spurious verdict, one
#: whose every run crashes, and one with a crashed run among runs that trace.
SUITES = ("sll/insertFront", "queue/insertTl", "sorted/quickSort", "sll/insertFront+crash")


def _suite(name: str):
    """``(benchmark, test cases)`` of one of :data:`SUITES`."""
    benchmark_name, _, crash = name.partition("+")
    benchmark = get_benchmark(benchmark_name)
    cases = benchmark.test_cases(0)
    return benchmark, cases + [_crashing] if crash else cases


@pytest.mark.parametrize("name", SUITES)
def test_a_served_specification_equals_a_standalone_one(name):
    benchmark, _ = _suite(name)

    def cases():
        return _suite(name)[1]

    alone = _sling(benchmark).infer_function(benchmark.function, cases())
    with stream_pool():
        first = _sling(benchmark)
        first.infer_function(benchmark.function, cases())
        second = _sling(benchmark)
        served = second.infer_function(benchmark.function, cases())
    assert first.cache_counters().function_memo_hits == 0
    counters = second.cache_counters()
    assert counters.function_memo_hits == 1
    # A hit runs nothing beneath the function: no trace, no location
    # lookup, no search, no check.
    assert counters.location_memo_hits == 0
    assert counters.skeletons_solved + counters.env_stream_reuses == 0
    assert counters.checker_misses == 0
    assert _rendered(served) == _rendered(alone)
    if name == "queue/insertTl":
        assert not served.validated
        assert any(inv.spurious for inv in served.all_invariants())
    if name == "sorted/quickSort":
        assert served.unreached_locations


def test_a_hit_returns_new_containers():
    benchmark = get_benchmark("sll/insertFront")
    with stream_pool():
        first = _sling(benchmark).infer_function(benchmark.function, benchmark.test_cases(0))
        served = [
            _sling(benchmark).infer_function(benchmark.function, benchmark.test_cases(0))
            for _ in range(2)
        ]
    served[0].preconditions.clear()
    served[0].postconditions.clear()
    served[0].unreached_locations.append("elsewhere")
    assert _rendered(served[1]) == _rendered(first)


# ------------------------------------------------------------------ misses --


BENCHMARK = "gslist/prepend"


def _value_apart(test_cases):
    """The suite with the integer argument of its first case incremented."""
    first, *rest = test_cases

    def changed(heap):
        *structures, value = first(heap)
        return [*structures, value + 1]

    return [changed, *rest]


def _statement_apart(program: Program, function_name: str) -> Program:
    """``program`` with the new node's ``data`` initialised to ``k + 1``."""
    function = program.get_function(function_name)
    alloc, *rest = function.body
    assert isinstance(alloc, Alloc)
    inits = dict(alloc.inits, data=add(v("k"), i(1)))
    changed = replace(function, body=[replace(alloc, inits=inits), *rest])
    functions = [changed if f.name == function_name else f for f in program.functions.values()]
    return Program(program.structs, functions)


@pytest.mark.parametrize("variant", ("input", "statement", "variable_order", "max_steps"))
def test_any_change_to_what_the_runs_see_misses(variant, monkeypatch):
    benchmark = get_benchmark(BENCHMARK)
    cases = lambda: benchmark.test_cases(0)  # noqa: E731
    config, program = None, None
    with stream_pool():
        _sling(benchmark).infer_function(benchmark.function, cases())
        same = _sling(benchmark)
        same.infer_function(benchmark.function, cases())
        if variant == "input":
            cases = lambda: _value_apart(benchmark.test_cases(0))  # noqa: E731
        elif variant == "statement":
            program = _statement_apart(benchmark.program, benchmark.function)
            assert program.digest() != benchmark.program.digest()
        elif variant == "variable_order":
            config = SlingConfig(variable_order="stack")
        else:
            monkeypatch.setattr(interp_module, "MAX_STEPS", interp_module.MAX_STEPS + 1)
        changed = _sling(benchmark, config, program)
        specification = changed.infer_function(benchmark.function, cases())
    # The unchanged suite hits, so the miss below is the change's doing.
    assert same.cache_counters().function_memo_hits == 1
    assert changed.cache_counters().function_memo_hits == 0
    alone = _sling(benchmark, config, program).infer_function(benchmark.function, cases())
    assert _rendered(specification) == _rendered(alone)


def test_a_different_build_error_misses():
    benchmark = get_benchmark("sll/insertFront")

    def other_crash(heap):
        raise NullDereference("read of field 'next' at another place")

    with stream_pool():
        _sling(benchmark).infer_function(benchmark.function, [_crashing])
        same, other = _sling(benchmark), _sling(benchmark)
        same.infer_function(benchmark.function, [_crashing])
        other.infer_function(benchmark.function, [other_crash])
    assert same.cache_counters().function_memo_hits == 1
    assert other.cache_counters().function_memo_hits == 0


def test_a_build_error_is_a_crashed_run():
    benchmark = get_benchmark("sll/insertFront")
    built = build_input(benchmark.program, _crashing)
    assert built.args is None and isinstance(built.error, NullDereference)
    for cases in ([_crashing], [built]):
        (outcome,) = collect_models(benchmark.program, benchmark.function, cases).outcomes
        assert outcome.crashed and not outcome.timed_out
        assert outcome.error == "NullDereference: read of field 'next' through NULL pointer"
        assert outcome.steps == 0 and outcome.result is None


def test_equal_programs_built_apart_share_an_entry():
    """``gh_sll_rec/copy`` is ``sll/copy`` built again: same program
    content, same function name, same inputs."""
    original, twin = get_benchmark("sll/copy"), get_benchmark("gh_sll_rec/copy")
    assert original.program is not twin.program
    assert original.program.digest() == twin.program.digest()
    alone = _sling(twin).infer_function(twin.function, twin.test_cases(0))
    with stream_pool():
        _sling(original).infer_function(original.function, original.test_cases(0))
        served = _sling(twin)
        specification = served.infer_function(twin.function, twin.test_cases(0))
    assert served.cache_counters().function_memo_hits == 1
    assert _rendered(specification) == _rendered(alone)


# ------------------------------------------------------------------ scope --


def test_private_memos_and_reference_search_never_hit():
    benchmark = get_benchmark("sll/insertFront")
    private = _sling(benchmark)
    for _ in range(2):
        private.infer_function(benchmark.function, benchmark.test_cases(0))
    assert private.checker.locations == {}
    assert private.cache_counters().function_memo_hits == 0

    config = SlingConfig(reference_search=True)
    with stream_pool() as memo:
        slings = [_sling(benchmark, config) for _ in range(2)]
        for sling in slings:
            sling.infer_function(benchmark.function, benchmark.test_cases(0))
    assert memo.locations == {}
    assert [sling.cache_counters().function_memo_hits for sling in slings] == [0, 0]


def test_a_hit_and_a_miss_draw_what_a_traced_run_draws():
    """The suite's closures share one seeded generator: after a miss and
    after a hit it is where a plain trace collection leaves it."""
    benchmark = get_benchmark("gslist/prepend")

    def suite():
        rng = random.Random(7)
        return rng, list(benchmark.make_tests(rng))

    rng, cases = suite()
    collect_models(benchmark.program, benchmark.function, cases)
    expected = rng.getstate()
    states = []
    with stream_pool():
        slings = [_sling(benchmark) for _ in range(2)]
        for sling in slings:
            rng, cases = suite()
            sling.infer_function(benchmark.function, cases)
            states.append(rng.getstate())
    assert [sling.cache_counters().function_memo_hits for sling in slings] == [0, 1]
    assert states == [expected, expected]


def test_a_hit_emits_a_function_span_with_no_location_child(tmp_path):
    benchmark = get_benchmark("sll/insertFront")
    path = tmp_path / "memo.ndjson"
    telemetry = Telemetry(path)
    try:
        config = SlingConfig(telemetry=telemetry)
        with stream_pool():
            for _ in range(2):
                _sling(benchmark, config).infer_function(
                    benchmark.function, benchmark.test_cases(0)
                )
    finally:
        telemetry.close()
    spans = span_records(read_trace(path))
    functions = [span for span in spans if span["kind"] == "function"]
    assert [span["attrs"]["memo_hit"] for span in functions] == [False, True]
    miss, hit = functions
    children = {span["parent"] for span in spans if span["kind"] == "location"}
    assert miss["id"] in children
    assert hit["id"] not in {span["parent"] for span in spans}
