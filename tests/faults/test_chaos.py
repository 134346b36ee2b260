"""Chaos suite: the Table 1 smoke workload under injected faults.

Each scenario runs the workload under one fault plan and asserts the
resilience contract end to end: jobs that succeed are bit-identical to the
fault-free inline reference, the plan provably fired, healing counters
account for what happened, and failures land on exactly the jobs that
earned them.  These are the slowest tests of the suite (they spawn real
worker pools and run real inference); the workloads are the smallest ones
that still exercise the machinery.  See docs/resilience.md.
"""

from __future__ import annotations

import pytest

from repro.core.engine import (
    EngineJob,
    InferenceEngine,
    PermanentFault,
    PoisonedJob,
    TransientFault,
    classify_failure,
)
from repro.core.sling import SlingConfig
from repro.faults import FaultPlan, FaultRule, reset_injector
from repro.telemetry import Telemetry, read_trace, span_records

#: Same shape as the acceptance workload: 2 SLL + 2 DLL programs, 4 jobs.
_BENCHMARKS = ("sll/insertFront", "sll/reverse", "dll/append", "dll/concat")

#: The scenario workload: the first two SLL and the first two DLL programs
#: of the registry.  Every plan targets the second one, so the healing
#: machinery also has unaffected jobs to keep intact.
WORKLOAD = ("sll/append", "sll/delAll", "dll/concat", "dll/append")
TARGET = WORKLOAD[1]

#: Resilience counters summed over a sweep.
_TOTALS = (
    "jobs_retried",
    "workers_respawned",
    "jobs_poisoned",
    "degraded_sequential",
    "faults_injected",
    "disk_load_errors",
)

_POOL = {"jobs": 4, "max_retries": 2}
_INLINE = {"jobs": 1, "max_retries": 2}


def _run(benchmarks, config, **engine_kwargs):
    engine = InferenceEngine(**engine_kwargs)
    return engine.run(
        [EngineJob(kind="table1", benchmark=name, config=config) for name in benchmarks]
    )


def _invariants(report) -> list[tuple]:
    """Every invariant of a job, in order: what healing must not change."""
    return [
        (invariant.location, invariant.pretty(), invariant.spurious)
        for invariant in report.payload.specification.all_invariants()
    ]


@pytest.fixture(scope="module")
def reference():
    """The fault-free inline sweep that every ok faulted job must match."""
    reports = _run(WORKLOAD, SlingConfig(), jobs=1)
    assert [report.error for report in reports if not report.ok] == []
    return {report.job.benchmark: _invariants(report) for report in reports}


def _check_worker_kill(by_name, totals):
    assert totals["workers_respawned"] >= 1
    assert totals["degraded_sequential"] == 0
    assert not any("worker lost" in (report.error or "") for report in by_name.values())
    assert by_name[TARGET].cache.jobs_retried >= 1


def _check_job_hang(by_name, totals):
    assert by_name[TARGET].cache.jobs_retried >= 1, "hung target never retried"


def _check_cache_fault(by_name, totals):
    assert totals["faults_injected"] >= 1, "no cache fault was injected"
    assert totals["disk_load_errors"] >= 1, "the fault was not absorbed"


def _check_poison(by_name, totals):
    assert by_name[TARGET].error.startswith("poisoned")
    assert totals["jobs_poisoned"] == 1


def _sweep(rule, engine_kwargs, cache_file):
    """Run the workload under one fault rule: reports by name, summed counters."""
    plan = FaultPlan(rules=(rule,), seed=0)
    # Equal plans share matching state in one process: start this one over.
    reset_injector(plan)
    config = SlingConfig(fault_plan=plan, persistent_cache=cache_file)
    by_name = {
        report.job.benchmark: report
        for report in _run(WORKLOAD, config, **engine_kwargs)
    }
    totals = {
        counter: sum(getattr(report.cache, counter, 0) for report in by_name.values())
        for counter in _TOTALS
    }
    return by_name, totals


_KILL_TARGET_ONCE = FaultRule("job_exec", "exit", match=TARGET, attempt=0)

#: One row per named scenario: the injected rule, the engine settings, whether
#: it needs a persistent cache file, the jobs that must fail, its own checks.
SCENARIOS = [
    pytest.param(
        _KILL_TARGET_ONCE,
        _POOL, False, (), _check_worker_kill,
        id="worker_kill",
    ),
    pytest.param(
        FaultRule("job_exec", "hang", match=TARGET, attempt=0, seconds=30.0),
        {**_POOL, "retry_timeouts": True, "job_timeout": 5.0}, False, (), _check_job_hang,
        id="job_hang",
    ),
    pytest.param(
        FaultRule("cache_read", "corrupt", at=2),
        _INLINE, True, (), _check_cache_fault,
        id="cache_corrupt",
    ),
    pytest.param(
        FaultRule("cache_write", "disk_full"),
        _INLINE, True, (), _check_cache_fault,
        id="disk_full",
    ),
    pytest.param(
        FaultRule("job_exec", "exit", match=TARGET),
        _POOL, False, (TARGET,), _check_poison,
        id="poison",
    ),
]


class TestChaosScenarios:
    """The five named scenarios, and the trace that healing leaves."""

    @pytest.mark.parametrize("rule, engine_kwargs, cached, failed, check", SCENARIOS)
    def test_scenario_passes(
        self, rule, engine_kwargs, cached, failed, check, reference, tmp_path
    ):
        cache_file = str(tmp_path / "chaos.sqlite") if cached else None
        by_name, totals = _sweep(rule, engine_kwargs, cache_file)

        assert [name for name, report in by_name.items() if not report.ok] == list(failed)
        diverged = [
            name
            for name, report in by_name.items()
            if report.ok and _invariants(report) != reference[name]
        ]
        assert diverged == [], "ok jobs diverged from the fault-free reference"
        fired = sum(
            totals[counter]
            for counter in (
                "faults_injected", "jobs_retried", "workers_respawned", "jobs_poisoned"
            )
        )
        assert fired > 0, "the fault plan never fired"
        check(by_name, totals)

    def test_worker_kill_acceptance_details(self, reference):
        """The acceptance criterion, spelled out: kill 1 of 4 workers with
        max_retries=2; every job ok, the killed job respawned and retried,
        nothing reported 'worker lost', results bit-identical."""
        by_name, totals = _sweep(_KILL_TARGET_ONCE, _POOL, None)
        assert all(report.ok for report in by_name.values())
        assert all(
            _invariants(report) == reference[name] for name, report in by_name.items()
        )
        assert totals["workers_respawned"] >= 1
        assert totals["degraded_sequential"] == 0
        assert not any("worker lost" in (report.error or "") for report in by_name.values())
        assert by_name[TARGET].cache.jobs_retried >= 1

    def test_worker_kill_trace_records_the_healing(self, tmp_path):
        """The engine's healing shows in the trace as aux-track ``retry`` and
        ``pool_heal`` spans carrying their documented attributes."""
        plan = FaultPlan(rules=(_KILL_TARGET_ONCE,), seed=0)
        reset_injector(plan)
        path = tmp_path / "chaos.ndjson"
        telemetry = Telemetry(path)
        try:
            config = SlingConfig(fault_plan=plan, telemetry=telemetry)
            reports = _run(WORKLOAD, config, **_POOL)
        finally:
            telemetry.close()
        assert all(report.ok for report in reports)
        spans = span_records(read_trace(path))
        retries = [span for span in spans if span["kind"] == "retry"]
        heals = [span for span in spans if span["kind"] == "pool_heal"]
        assert [span["name"] for span in retries] == [TARGET]
        assert {"attempt", "delay", "reason"} <= retries[0]["attrs"].keys()
        # How many workers a rebuild respawns depends on how many jobs are
        # still outstanding when the death is reaped, so only its presence
        # is deterministic.
        assert heals
        assert all({"event", "respawned"} <= span["attrs"].keys() for span in heals)
        assert {span["track"] for span in retries + heals} == {"aux"}


class TestWorkerLossAttribution:
    """Satellite: a broken pool fails only the job that was actually
    running on the dead worker (the old pool marked the whole in-flight
    batch 'worker lost')."""

    def test_only_the_running_job_is_blamed_without_retries(self):
        plan = FaultPlan(
            rules=(FaultRule("job_exec", "exit", match="sll/reverse"),), seed=11
        )
        reports = _run(
            _BENCHMARKS,
            SlingConfig(fault_plan=plan),
            jobs=4,
            max_retries=0,
        )
        by_name = {report.job.benchmark: report for report in reports}
        assert not by_name["sll/reverse"].ok
        assert "worker lost" in by_name["sll/reverse"].error
        for name in _BENCHMARKS:
            if name != "sll/reverse":
                assert by_name[name].ok, (
                    f"{name} was collateral damage of another job's worker: "
                    f"{by_name[name].error}"
                )


class TestFailureTaxonomy:
    def test_classification_of_report_errors(self):
        def fake(error, timed_out=False, ok=False):
            class Report:
                pass

            report = Report()
            report.ok = ok
            report.error = error
            report.timed_out = timed_out
            return report

        assert classify_failure(fake(None, ok=True)) is None
        assert classify_failure(fake("poisoned: killed 2 workers")) is PoisonedJob
        assert classify_failure(fake("worker lost: exited 137")) is TransientFault
        assert classify_failure(fake("timed out", timed_out=True)) is PermanentFault
        assert (
            classify_failure(fake("timed out", timed_out=True), retry_timeouts=True)
            is TransientFault
        )
        assert (
            classify_failure(fake("InjectedFault: injected raise at job_exec [transient]"))
            is TransientFault
        )
        assert classify_failure(fake("ZeroDivisionError: boom")) is PermanentFault

    def test_permanent_failures_are_not_retried(self):
        # raise_permanent injects a non-transient fault on every attempt
        # budgeted; with times=0 the rule would fire forever, so a retrying
        # engine must classify it permanent and not spend its budget.
        plan = FaultPlan(
            rules=(
                FaultRule(
                    "job_exec", "raise_permanent", match="sll/insertFront", times=0
                ),
            ),
            seed=5,
        )
        reports = _run(
            ("sll/insertFront",),
            SlingConfig(fault_plan=plan),
            jobs=1,
            max_retries=3,
        )
        assert not reports[0].ok
        assert reports[0].cache.jobs_retried == 0
        assert reports[0].cache.faults_injected == 1


class TestInertness:
    """fault_plan=None must be a provable no-op (the default path)."""

    def test_no_plan_means_zero_resilience_counters(self):
        reports = _run(("sll/insertFront",), SlingConfig(), jobs=1)
        assert reports[0].ok
        cache = reports[0].cache
        for counter in (
            "jobs_retried",
            "workers_respawned",
            "jobs_poisoned",
            "pool_rebuilds",
            "degraded_sequential",
            "faults_injected",
        ):
            assert getattr(cache, counter) == 0, f"{counter} nonzero without a plan"

    def test_config_default_is_none(self):
        assert SlingConfig().fault_plan is None
