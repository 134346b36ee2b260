"""Whole-location results shared through the stream memo.

Inside an engine batch (:func:`repro.sl.stream.stream_pool`) a location
whose models, registry, struct definitions, free variables and variable
order equal those of an earlier job is served from the memo's
``locations`` table instead of running Algorithm 1 again.  These tests pin
what that may and may not do:

* a hit returns exactly what a standalone run infers, as new
  :class:`~repro.core.results.Invariant` objects at the caller's location,
  and a job served whole runs no search, while its frame-rule check still
  runs (no verdict is memoized);
* the key tells apart free variables, registries and struct definitions;
* the memo keeps formulas, never models;
* only a batch's shared memo is consulted, and the ``reference_search``
  oracle is never memoized;
* a hit still emits its ``location`` span, childless and marked
  ``memo_hit``.

A repeated ``infer_function`` call on the same inputs is answered by the
function memo before any location is looked up (``test_function_memo.py``),
so the tests that repeat a whole function drive ``Sling._infer_function``,
the traced path beneath that memo.
"""

from __future__ import annotations

import gc
import types
from dataclasses import replace

import pytest

from repro.benchsuite.registry import get_benchmark
from repro.core import sling as sling_module
from repro.core.sling import Sling, SlingConfig
from repro.lang.ast import Program
from repro.lang.heap import RuntimeHeap
from repro.lang.tracer import BuiltInput, Location
from repro.lang.types import StructDef, StructRegistry
from repro.sl.stream import LocationMemo, stream_pool
from repro.sl.model import HashedKey, Heap, StackHeapModel
from repro.sl.pretty import pretty
from repro.sl.stdpreds import standard_predicates
from repro.telemetry import Telemetry, read_trace, span_records

BENCHMARK = "sll/insertFront"
CONFIG = SlingConfig(discard_crashed_runs=True)


@pytest.fixture(scope="module")
def entry_models():
    benchmark = get_benchmark(BENCHMARK)
    sling = Sling(benchmark.program, benchmark.predicates, CONFIG)
    traces = sling.collect(benchmark.function, benchmark.test_cases(0))
    models = traces.models_at(Location(benchmark.function, "entry"))
    assert models
    return models


def _sling(program=None, predicates=None, config=CONFIG) -> Sling:
    benchmark = get_benchmark(BENCHMARK)
    return Sling(
        program or benchmark.program, predicates or benchmark.predicates, config
    )


def _rendered(invariants) -> list[tuple]:
    return [
        (inv.location, pretty(inv.formula), inv.from_freed_traces, inv.spurious)
        for inv in invariants
    ]


def test_a_hit_equals_a_standalone_recomputation(monkeypatch):
    benchmark = get_benchmark(BENCHMARK)
    standalone = Sling(benchmark.program, benchmark.predicates, CONFIG)
    expected = standalone.infer_function(benchmark.function, benchmark.test_cases(0))
    validations = []
    validate = sling_module.validate_specification

    def counted(*args):
        validations.append(args)
        return validate(*args)

    with stream_pool():
        first = _sling()
        first.infer_function(benchmark.function, benchmark.test_cases(0))
        # Patched at the module-level name ``Sling._validate`` calls (the
        # name perfbench's ``core.validate`` layer wraps).
        monkeypatch.setattr(sling_module, "validate_specification", counted)
        second = _sling()
        served = second._infer_function(benchmark.function, benchmark.test_cases(0))
    assert first.cache_counters().location_memo_hits == 0
    hits = second.cache_counters()
    locations = 1 + len(served.postconditions) + len(served.loop_invariants)
    assert hits.location_memo_hits == locations
    # A hit runs no search at all; the frame-rule check is never served, so
    # it runs once for every non-empty return location.
    assert hits.candidates_checked == 0
    assert hits.skeletons_solved + hits.env_stream_reuses == 0
    validated = sum(1 for invariants in served.postconditions.values() if invariants)
    assert validated and len(validations) == validated
    assert _rendered(served.all_invariants()) == _rendered(expected.all_invariants())
    assert served.validated == expected.validated


def test_hits_are_new_invariants_at_the_callers_location(entry_models):
    with stream_pool():
        first = _sling().infer_from_models(entry_models, location="here", free_vars=["x"])
        second_sling = _sling()
        second = second_sling.infer_from_models(
            entry_models, location="there", free_vars=["x"]
        )
    assert first
    assert second_sling.cache_counters().location_memo_hits == 1
    assert [inv.location for inv in first] == ["here"] * len(first)
    assert [inv.location for inv in second] == ["there"] * len(second)
    assert all(mine is not theirs for mine, theirs in zip(second, first))
    assert [replace(inv, location="here") for inv in second] == first


def _other_structs(program: Program) -> Program:
    """``program`` with one extra, unused struct definition."""
    structs = StructRegistry(list(program.structs) + [StructDef("Unused", [("v", "int")])])
    return Program(structs, program.functions.values())


@pytest.mark.parametrize("variant", ("free_vars", "registry", "structs"))
def test_equal_models_under_another_context_do_not_share(entry_models, variant):
    benchmark = get_benchmark(BENCHMARK)
    other = {"free_vars": ["x"], "program": None, "predicates": None}
    if variant == "free_vars":
        other["free_vars"] = ["x", "res"]
    elif variant == "registry":
        other["predicates"] = standard_predicates()
    else:
        other["program"] = _other_structs(benchmark.program)
    with stream_pool():
        _sling().infer_from_models(entry_models, location="entry", free_vars=["x"])
        same = _sling()
        same.infer_from_models(entry_models, location="entry", free_vars=["x"])
        changed = _sling(other["program"], other["predicates"])
        changed.infer_from_models(
            entry_models, location="entry", free_vars=other["free_vars"]
        )
    # The unchanged context hits, so the miss below is the key's doing.
    assert same.cache_counters().location_memo_hits == 1
    assert changed.cache_counters().location_memo_hits == 0


def _reachable(root) -> list:
    """Every object reachable from ``root`` through ``gc.get_referents``,
    stopping at classes, modules and functions (shared program state)."""
    opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen: set[int] = set()
    found = []
    pending = [root]
    while pending:
        obj = pending.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        found.append(obj)
        pending.extend(gc.get_referents(obj))
    return found


def test_the_memo_holds_no_models():
    """Nor does the function entry the run leaves next to its locations:
    no built input, no runtime heap."""
    benchmark = get_benchmark(BENCHMARK)
    with stream_pool() as memo:
        _sling().infer_function(benchmark.function, benchmark.test_cases(0))
    assert memo.locations
    reachable = _reachable(memo.locations)
    kept = (StackHeapModel, Heap, RuntimeHeap, BuiltInput)
    assert not [obj for obj in reachable if isinstance(obj, kept)]
    # Not vacuous: the walk does reach the stored formulas.
    assert any(type(obj).__name__ == "SymHeap" for obj in reachable)


def test_a_private_memo_is_not_consulted(entry_models):
    sling = _sling()
    for _ in range(2):
        sling.infer_from_models(entry_models, location="entry", free_vars=["x"])
    assert not sling.checker.shares_streams
    assert sling.checker.locations == {}
    assert sling.cache_counters().location_memo_hits == 0


def test_reference_search_never_hits(entry_models):
    config = SlingConfig(discard_crashed_runs=True, reference_search=True)
    with stream_pool() as memo:
        slings = [_sling(config=config) for _ in range(2)]
        for sling in slings:
            sling.infer_from_models(entry_models, location="entry", free_vars=["x"])
    assert memo.locations == {}
    assert [sling.cache_counters().location_memo_hits for sling in slings] == [0, 0]


def test_a_hit_emits_a_childless_location_span(tmp_path):
    benchmark = get_benchmark(BENCHMARK)
    path = tmp_path / "memo.ndjson"
    telemetry = Telemetry(path)
    try:
        config = replace(CONFIG, telemetry=telemetry)
        with stream_pool():
            for _ in range(2):
                _sling(config=config)._infer_function(
                    benchmark.function, benchmark.test_cases(0)
                )
    finally:
        telemetry.close()
    spans = span_records(read_trace(path))
    locations = [span for span in spans if span["kind"] == "location"]
    hits = [span for span in locations if span["attrs"]["memo_hit"]]
    assert hits and len(hits) < len(locations)
    parents = {span["parent"] for span in spans}
    assert all(span["id"] not in parents for span in hits)
    assert all(span["attrs"]["invariants"] > 0 for span in hits)
    # A miss has children: the memo_hit flag is what tells them apart.
    assert all(
        span["id"] in parents for span in locations if not span["attrs"]["memo_hit"]
    )


def test_a_lookup_hashes_its_key_once():
    """A miss, the insert after it and a later hit each hash the key's
    content once, when the :class:`HashedKey` is built."""

    class Counted:
        hashes = 0

        def __hash__(self):
            Counted.hashes += 1
            return 7

        def __eq__(self, other):
            return isinstance(other, Counted)

    memo = LocationMemo()
    key = HashedKey(("location", Counted()))
    assert memo.recall(key) is None
    memo.add(key, ("invariant",))
    assert memo.recall(HashedKey(("location", Counted()))) == ("invariant",)
    assert memo.recall(HashedKey(("other", Counted()))) is None
    assert Counted.hashes == 3
