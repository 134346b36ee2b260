"""Multiprocessing traces: worker segments merge and re-parent correctly."""

import glob

from repro.core.engine import EngineJob, InferenceEngine
from repro.core.sling import SlingConfig
from repro.telemetry import Telemetry, read_trace, span_records

BENCHMARKS = ("sll/insertFront", "sll/reverse", "dll/append", "dll/concat")


def test_worker_spans_reparent_under_origin(tmp_path):
    """A jobs=4 sweep yields one merged file with every job span re-parented.

    Workers write per-pid segment files; the engine folds them back into the
    main trace after the pool joins and deletes the segments.  The workers'
    root (job) spans must end up parented under the origin process's
    currently open span -- here the origin has none open at merge time, so
    they become roots -- and carry their own worker pids.
    """
    trace_path = tmp_path / "parallel.ndjson"
    telemetry = Telemetry(trace_path)
    config = SlingConfig(telemetry=telemetry)
    engine = InferenceEngine(jobs=4)
    reports = engine.run(
        [EngineJob(kind="spec", benchmark=name, config=config) for name in BENCHMARKS]
    )
    telemetry.close()
    assert all(report.ok for report in reports)

    # Segments were merged and removed.
    assert glob.glob(f"{trace_path}.seg-*") == []

    records = read_trace(trace_path)
    job_spans = [span for span in span_records(records) if span["kind"] == "job"]
    assert sorted(span["name"] for span in job_spans) == sorted(BENCHMARKS)
    # The work genuinely ran in forked workers, not inline.
    origin_pid = telemetry.origin_pid
    assert {span["pid"] for span in job_spans} - {origin_pid}
    # Each job's children stayed attached across the merge.
    job_ids = {span["id"] for span in job_spans}
    function_spans = [s for s in span_records(records) if s["kind"] == "function"]
    assert len(function_spans) == len(BENCHMARKS)
    assert {span["parent"] for span in function_spans} <= job_ids


def test_workers_running_several_jobs_keep_every_job_span(tmp_path):
    """More jobs than workers: each worker's segment keeps all its jobs.

    Every job unpickles a fresh ``Telemetry``; the worker must keep writing
    through one segment tracer instead of reopening (and truncating) its
    segment per job, so each job appears exactly once and span ids stay
    unique across the whole merged trace.
    """
    trace_path = tmp_path / "reused.ndjson"
    telemetry = Telemetry(trace_path)
    config = SlingConfig(telemetry=telemetry)
    engine = InferenceEngine(jobs=2)
    reports = engine.run(
        [EngineJob(kind="spec", benchmark=name, config=config) for name in BENCHMARKS]
    )
    telemetry.close()
    assert all(report.ok for report in reports)

    spans = span_records(read_trace(trace_path))
    job_spans = [span for span in spans if span["kind"] == "job"]
    assert sorted(span["name"] for span in job_spans) == sorted(BENCHMARKS)
    ids = [span["id"] for span in spans]
    assert len(ids) == len(set(ids))


def test_worker_spans_parent_to_open_sweep_span(tmp_path):
    """With a sweep span open at merge time, worker jobs nest under it."""
    from repro.core.engine import run_category_batch

    trace_path = tmp_path / "sweep.ndjson"
    telemetry = Telemetry(trace_path)
    config = SlingConfig(telemetry=telemetry)
    run_category_batch(
        "spec", categories=["SLL"], max_programs_per_category=4,
        config=config, jobs=4,
    )
    telemetry.close()

    records = read_trace(trace_path)
    sweeps = [span for span in span_records(records) if span["kind"] == "sweep"]
    assert len(sweeps) == 1
    job_spans = [span for span in span_records(records) if span["kind"] == "job"]
    assert job_spans
    assert {span["parent"] for span in job_spans} == {sweeps[0]["id"]}


def test_telemetry_pickles_without_tracer(tmp_path):
    import pickle

    telemetry = Telemetry(tmp_path / "t.ndjson")
    tracer = telemetry.tracer()
    with tracer.span("sweep", name="x"):
        clone = pickle.loads(pickle.dumps(telemetry))
    assert clone.path == telemetry.path
    assert clone.origin_pid == telemetry.origin_pid
    assert clone._tracer is None
    telemetry.close()
