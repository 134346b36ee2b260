"""Parent-side healing counters reach the Table 1 output.

A retry happens in the engine, outside the worker that computed the Table 1
row, so the row's counters only show it if the engine's accounting and the
row share one record.  One transient ``job_exec`` fault on the first attempt
of the first SLL program forces exactly that retry, inline and on a pool,
and the retry leaves exactly one ``retry`` span in the trace either way.
"""

from __future__ import annotations

import pytest

from repro.core.engine import EngineJob, InferenceEngine
from repro.core.sling import SlingConfig
from repro.evaluation.table1 import run_table1
from repro.faults import FaultPlan, FaultRule, reset_injector
from repro.telemetry import Telemetry, read_trace, span_records

FAULTED = "sll/append"

#: The per-program ``--json`` keys, in order (the historical flat schema).
PROGRAM_KEYS = [
    "name", "loc", "locations", "traces", "invariants", "spurious",
    "classification", "seconds", "singleton_atoms", "inductive_atoms",
    "pure_atoms", "checker_cache_misses", "unfold_cache_hits",
    "unfold_cache_misses", "atom_cache_hits", "atom_cache_misses",
    "candidates_generated", "candidates_prefiltered", "candidates_checked",
    "refuted_by_first_model", "pruned_cases", "max_trail_depth",
    "candidate_groups", "skeletons_solved", "env_stream_reuses",
    "pure_variant_evals", "batch_exact_fallbacks", "canonical_stream_hits",
    "kernel_groups", "stream_index_hits", "kernel_scan_fallbacks",
    "disk_hits", "disk_misses", "disk_evictions",
    "cache_file_bytes", "disk_load_errors", "jobs_retried",
    "workers_respawned", "jobs_poisoned", "pool_rebuilds",
    "degraded_sequential", "faults_injected", "serve_requests",
    "serve_queue_high_water", "serve_rejections", "serve_deadline_expiries",
    "serve_client_disconnects", "serve_requests_resumed", "location_memo_hits",
    "validation_memo_hits",
]


def _config(telemetry=None) -> SlingConfig:
    plan = FaultPlan(rules=(FaultRule("job_exec", "raise", match=FAULTED, attempt=0),))
    reset_injector(plan)
    return SlingConfig(discard_crashed_runs=True, fault_plan=plan, telemetry=telemetry)


@pytest.mark.parametrize("jobs", (1, 2))
def test_retries_reach_table1_totals_and_rows(jobs, tmp_path):
    result = run_table1(
        categories=("SLL",), max_programs_per_category=2, jobs=jobs, config=_config()
    )
    assert result.cache_totals().jobs_retried >= 1
    programs = [program for row in result.rows for program in row.programs]
    assert programs[0].name == FAULTED
    for program in programs:
        assert list(program.as_dict()) == PROGRAM_KEYS

    path = tmp_path / "retry.ndjson"
    telemetry = Telemetry(path)
    try:
        config = _config(telemetry)
        report, _ = InferenceEngine(jobs=jobs).run(
            [
                EngineJob(kind="table1", benchmark=program.name, config=config)
                for program in programs
            ]
        )
    finally:
        telemetry.close()
    assert report.job.benchmark == FAULTED
    assert report.ok
    assert report.cache.jobs_retried == 1
    assert report.payload.as_dict()["jobs_retried"] == report.cache.jobs_retried
    retries = [span for span in span_records(read_trace(path)) if span["kind"] == "retry"]
    assert [span["name"] for span in retries] == [FAULTED]
