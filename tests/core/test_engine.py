"""The batch-inference engine: ordering, determinism, failure handling."""

from dataclasses import replace

import pytest

from repro.benchsuite.registry import get_benchmark
from repro.core.engine import (
    EngineError,
    EngineJob,
    InferenceEngine,
    SpecPayload,
    warm_worker_state,
)
from repro.core.sling import Sling, SlingConfig
from repro.evaluation.table1 import run_table1

#: Three fast registry benchmarks from different categories.
_BENCHMARKS = ["sll/insertFront", "bst/insert", "queue/insertHd"]


def _spec_jobs(names):
    return [EngineJob(kind="spec", benchmark=name) for name in names]


def _spec_fingerprint(report):
    spec = report.payload.specification
    return (
        report.job.benchmark,
        tuple(invariant.pretty() for invariant in spec.all_invariants()),
        spec.validated,
    )


class TestEngineBasics:
    def test_inline_run_returns_reports_in_job_order(self):
        engine = InferenceEngine(jobs=1)
        reports = engine.run(_spec_jobs(_BENCHMARKS))
        assert [report.job.benchmark for report in reports] == _BENCHMARKS
        for report in reports:
            assert report.ok, report.error
            assert isinstance(report.payload, SpecPayload)
            assert report.payload.specification.invariant_count() > 0
            assert report.seconds > 0

    def test_unknown_benchmark_reports_failure_without_raising(self):
        engine = InferenceEngine(jobs=1)
        reports = engine.run([EngineJob(kind="spec", benchmark="no/such")])
        assert len(reports) == 1
        assert not reports[0].ok
        assert "no/such" in reports[0].error or "KeyError" in reports[0].error

    def test_unknown_kind_reports_failure(self):
        engine = InferenceEngine(jobs=1)
        reports = engine.run([EngineJob(kind="tableau", benchmark=_BENCHMARKS[0])])
        assert not reports[0].ok
        assert "tableau" in reports[0].error

    def test_zero_workers_rejected(self):
        with pytest.raises(EngineError):
            InferenceEngine(jobs=0)

    def test_empty_batch(self):
        assert InferenceEngine(jobs=4).run([]) == []

    def test_cache_counters_reported_per_job(self):
        engine = InferenceEngine(jobs=1)
        [report] = engine.run(_spec_jobs(_BENCHMARKS[:1]))
        assert report.cache.checker_misses > 0
        assert report.cache.unfold_hits + report.cache.unfold_misses > 0

    def test_cache_counters_is_a_snapshot(self):
        """The checker counts into its own struct in place, so a snapshot
        must copy it: two snapshots in a row agree, and taking one (which
        subtracts the unfolding baseline) leaves the checker's counters be."""
        sling = _standalone_run("sll/insertFront")
        own = replace(sling.checker.stats)
        first = sling.cache_counters()
        second = sling.cache_counters()
        assert first == second
        assert first is not second
        assert sling.checker.stats == own
        assert first.checker_misses == own.checker_misses > 0
        assert first.unfold_hits + first.unfold_misses > 0

    def test_identical_standalone_runs_report_equal_counters(self):
        """The unfolding counters live on the shared registry; each driver
        reports only its own share of them."""
        first = _standalone_run("sll/insertFront").cache_stats()
        second = _standalone_run("sll/insertFront").cache_stats()
        assert first["unfold_hits"] > 0
        assert first == second

    def test_warm_worker_state_reports_inherited_state(self):
        report = warm_worker_state()
        assert report["predicate_case_screens"] > 0
        # The intern table's size depends on what this process canonicalized
        # before (test order is not fixed), so only the key is asserted.
        assert "interned_canonical_forms" in report


def _standalone_run(name: str) -> Sling:
    benchmark = get_benchmark(name)
    sling = Sling(
        benchmark.program, benchmark.predicates, SlingConfig(discard_crashed_runs=True)
    )
    sling.infer_function(benchmark.function, benchmark.test_cases(0))
    return sling


class TestEngineParallel:
    def test_parallel_specs_match_sequential_exactly(self):
        sequential = InferenceEngine(jobs=1).run(_spec_jobs(_BENCHMARKS))
        parallel = InferenceEngine(jobs=4).run(_spec_jobs(_BENCHMARKS))
        assert [_spec_fingerprint(r) for r in sequential] == [
            _spec_fingerprint(r) for r in parallel
        ]

    def test_parallel_failure_is_isolated(self):
        jobs = [
            EngineJob(kind="spec", benchmark=_BENCHMARKS[0]),
            EngineJob(kind="spec", benchmark="no/such"),
            EngineJob(kind="spec", benchmark=_BENCHMARKS[1]),
        ]
        reports = InferenceEngine(jobs=2).run(jobs)
        assert [report.ok for report in reports] == [True, False, True]

    def test_timeout_is_reported_not_raised(self):
        jobs = [EngineJob(kind="spec", benchmark="dll/concat", timeout=0.001)]
        # jobs=2 forces the pool path; inline execution cannot time out.
        [report] = InferenceEngine(jobs=2).run(jobs + jobs[:1])[:1]
        assert not report.ok
        assert report.timed_out


class TestTable1Determinism:
    def test_jobs1_equals_jobs4_on_a_category(self):
        sequential = run_table1(categories=["SLL"], max_programs_per_category=3, jobs=1)
        parallel = run_table1(categories=["SLL"], max_programs_per_category=3, jobs=4)
        assert sequential.fingerprints() == parallel.fingerprints()
        # Timings differ; every counted column must not.
        seq_totals = sequential.totals()
        par_totals = parallel.totals()
        for key in ("programs", "loc", "locations", "traces", "invariants", "spurious"):
            assert seq_totals[key] == par_totals[key]

    def test_failed_benchmark_raises_engine_error(self, monkeypatch):
        import repro.core.engine as engine_module

        class _Boom:
            def __init__(self, jobs=1):
                del jobs

            def run(self, batch):
                from repro.core.engine import EngineReport

                return [
                    EngineReport(job=job, ok=False, error="boom", seconds=0.0)
                    for job in batch
                ]

        monkeypatch.setattr(engine_module, "InferenceEngine", _Boom)
        with pytest.raises(EngineError, match="boom"):
            run_table1(categories=["SLL"], max_programs_per_category=1)
