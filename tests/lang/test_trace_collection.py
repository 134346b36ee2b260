"""``TraceCollection.without_crashed_runs``: filtering without mutation;
``count_models``: the collection's count without its snapshots."""

import pytest

from repro.lang.tracer import (
    Location,
    RunOutcome,
    TraceCollection,
    TraceEvent,
    Tracer,
    collect_models,
    count_models,
)
from repro.sl.model import Heap, StackHeapModel


def _event(tag: int) -> TraceEvent:
    return TraceEvent(
        location=Location("f", "entry"),
        model=StackHeapModel({"x": tag}, Heap()),
    )


def _collection() -> TraceCollection:
    good_run = [_event(1), _event(2)]
    crashed_run = [_event(3)]
    return TraceCollection(
        events=[*good_run, *crashed_run],
        outcomes=[RunOutcome(crashed=False), RunOutcome(crashed=True)],
        runs=[good_run, crashed_run],
    )


class TestWithoutCrashedRuns:
    def test_filters_crashed_events(self):
        filtered = _collection().without_crashed_runs()
        assert filtered.total_models() == 2
        assert filtered.runs[1] == []  # slot kept, events dropped
        assert len(filtered.runs) == len(filtered.outcomes) == 2

    def test_original_collection_is_untouched(self):
        collection = _collection()
        events_before = list(collection.events)
        runs_before = [list(run) for run in collection.runs]
        collection.without_crashed_runs()
        assert collection.events == events_before
        assert [list(run) for run in collection.runs] == runs_before

    def test_copy_owns_its_lists(self):
        collection = _collection()
        filtered = collection.without_crashed_runs()
        filtered.events.append(_event(9))
        filtered.runs[0].append(_event(9))
        assert len(collection.events) == 3
        assert len(collection.runs[0]) == 2

    def test_no_crashes_is_identity_in_content(self):
        run = [_event(1)]
        collection = TraceCollection(
            events=list(run), outcomes=[RunOutcome(crashed=False)], runs=[run]
        )
        filtered = collection.without_crashed_runs()
        assert filtered.events == collection.events
        assert filtered.runs == collection.runs


class TestCountModels:
    """``count_models`` counts what ``collect_models`` would capture, and
    runs the suite the same way, so a shared input generator advances
    exactly as before."""

    @staticmethod
    def _suite(name: str):
        from repro.benchsuite.registry import get_benchmark

        benchmark = get_benchmark(name)
        return benchmark, benchmark.test_cases(0)

    @pytest.mark.parametrize("name", ("sll/reverse", "bst/rmRoot"))
    @pytest.mark.parametrize("entry_only", (False, True))
    @pytest.mark.parametrize("discard", (False, True))
    def test_count_equals_the_collected_models(self, name, entry_only, discard):
        benchmark, cases = self._suite(name)
        breakpoints = [Location(benchmark.function, "entry")] if entry_only else None
        collected = collect_models(benchmark.program, benchmark.function, cases, breakpoints)
        if discard:
            collected = collected.without_crashed_runs()
        benchmark, cases = self._suite(name)
        counted = count_models(
            benchmark.program, benchmark.function, cases, breakpoints,
            discard_crashed_runs=discard,
        )
        assert counted == collected.total_models()

    def test_crashed_runs_are_dropped(self):
        benchmark, cases = self._suite("bst/rmRoot")
        collected = collect_models(benchmark.program, benchmark.function, cases)
        assert collected.crashed_runs() > 0
        assert any(
            run for run, outcome in zip(collected.runs, collected.outcomes) if outcome.crashed
        )
        benchmark, cases = self._suite("bst/rmRoot")
        kept = count_models(
            benchmark.program, benchmark.function, cases, discard_crashed_runs=True
        )
        assert kept < collected.total_models()

    @pytest.mark.parametrize("name", ("sll/reverse", "bst/rmRoot"))
    def test_the_next_run_draws_the_same_inputs(self, name):
        benchmark, cases = self._suite(name)
        collect_models(benchmark.program, benchmark.function, cases)
        after_collect = collect_models(benchmark.program, benchmark.function, cases)
        benchmark, cases = self._suite(name)
        count_models(benchmark.program, benchmark.function, cases)
        after_count = collect_models(benchmark.program, benchmark.function, cases)
        assert after_count.events == after_collect.events
        assert after_count.total_models() > 0

    def test_the_event_cap_applies_to_counted_hits(self):
        from repro.lang.heap import RuntimeHeap
        from repro.lang.interp import Interpreter

        benchmark, cases = self._suite("sll/reverse")
        observed = []
        for snapshots in (True, False):
            tracer = Tracer(benchmark.program.structs, max_events=2, snapshots=snapshots)
            heap = RuntimeHeap(benchmark.program.structs)
            args = list(cases[0](heap))
            Interpreter(benchmark.program, observer=tracer).run(
                benchmark.function, args, heap
            )
            observed.append((tracer.hits, len(tracer.events)))
        assert observed == [(2, 2), (2, 0)]
