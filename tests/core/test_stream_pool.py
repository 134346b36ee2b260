"""The jobs of an engine batch share one stream memo.

An engine batch of two or more jobs opens one stream memo
(:func:`repro.sl.stream.stream_pool`): every checker built in the batch
reads and fills it, so a later job takes the streams an earlier job
enumerated instead of solving the skeleton again.  These tests pin what
that may and may not change:

* the invariants are those of standalone runs, for ``jobs=1``, ``jobs=2``
  and under different ``PYTHONHASHSEED``s;
* fewer skeletons are solved, while every job that was served no whole
  location from the memo makes the same stream requests and runs the
  same candidate search, and a job that was served one does no more;
* a stream whose enumeration was interrupted is enumerated again by the
  next job that asks for it;
* the memo never outlives its batch, and a batch inside an open pool
  fills that pool's memo and leaves it open;
* a memo that serves many jobs keeps its streams, locations and
  finished-stream log within their bounds;
* only complete streams reach a cache file, and a cache file never gets a
  stream row written twice because the memo served it.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys
from contextlib import closing, contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from repro.benchsuite.registry import get_benchmark
from repro.cache import store as store_module
from repro.cache.serialize import stable_key_bytes
from repro.cache.tier import KIND_STREAM
from repro.core import engine as engine_module
from repro.core.engine import EngineJob, InferenceEngine
from repro.core.sling import Sling, SlingConfig
from repro.faults import FaultPlan, FaultRule, reset_injector
from repro.evaluation.table1 import (
    CategoryRow,
    Table1Result,
    evaluate_program,
    run_table1,
)
from repro.serve.protocol import records_for_report
from repro.sl import search as search_module
from repro.sl import stream as stream_module
from repro.sl.checker import ModelChecker
from repro.sl.model import CanonicalForm, Heap, HeapCell
from repro.sl.stream import EnvStream

_ROOT = Path(__file__).resolve().parents[2]

#: The batch sweep: four programs from each of two categories, seed 0.
SUBSET = {"categories": ("SLL", "DLL"), "max_programs_per_category": 4, "seed": 0}


@contextmanager
def _recording_memos(monkeypatch):
    """Collect every memo the engine opens."""
    memos = []
    open_memo = stream_module.stream_pool

    @contextmanager
    def recorded():
        with open_memo() as memo:
            memos.append(memo)
            yield memo

    monkeypatch.setattr(engine_module, "stream_pool", recorded)
    yield memos


def _standalone(batch: Table1Result) -> Table1Result:
    """Each program of ``batch`` evaluated by its own ``Sling``, no engine."""
    rows = []
    for row in batch.rows:
        programs = [
            evaluate_program(get_benchmark(program.name), seed=SUBSET["seed"])
            for program in row.programs
        ]
        rows.append(CategoryRow(category=row.category, programs=programs))
    return Table1Result(rows=rows)


@pytest.fixture(scope="module")
def sweeps():
    with pytest.MonkeyPatch.context() as monkeypatch:
        with _recording_memos(monkeypatch) as memos:
            batch = run_table1(**SUBSET)
    return batch, _standalone(batch), memos


def _programs(result: Table1Result):
    return [program for row in result.rows for program in row.programs]


def test_pooled_sweep_matches_standalone_runs(sweeps):
    batch, standalone, _ = sweeps
    assert len(batch.fingerprints()) == 8
    assert batch.fingerprints() == standalone.fingerprints()


def test_parallel_pooled_sweep_matches_standalone_runs(sweeps):
    _, standalone, _ = sweeps
    assert run_table1(jobs=2, **SUBSET).fingerprints() == standalone.fingerprints()


def test_pool_saves_solves_without_changing_the_search(sweeps):
    """Programs that hit no memoized location make the same stream requests
    and run the same candidate search as standalone runs; a location served
    from the memo skips its search, so a program that hit does no more."""
    batch, standalone, _ = sweeps
    assert (
        batch.cache_totals().skeletons_solved
        < standalone.cache_totals().skeletons_solved
    )
    assert batch.cache_totals().location_memo_hits > 0
    exact = 0
    for shared, alone in zip(_programs(batch), _programs(standalone)):
        assert shared.name == alone.name
        assert alone.cache.location_memo_hits == 0
        requests = shared.cache.skeletons_solved + shared.cache.env_stream_reuses
        alone_requests = alone.cache.skeletons_solved + alone.cache.env_stream_reuses
        if shared.cache.location_memo_hits + shared.cache.function_memo_hits == 0:
            exact += 1
            assert requests == alone_requests
            assert shared.cache.candidates_checked == alone.cache.candidates_checked
            assert shared.cache.candidate_groups == alone.cache.candidate_groups
        else:
            assert requests <= alone_requests
            assert shared.cache.candidates_checked <= alone.cache.candidates_checked
            assert shared.cache.candidate_groups <= alone.cache.candidate_groups
    assert exact > 0


def test_sweep_shares_one_bounded_memo(sweeps):
    _, _, memos = sweeps
    assert len(memos) == 1
    assert 0 < len(memos[0]) <= stream_module._STREAM_MEMO_LIMIT


@pytest.mark.parametrize("limit", ("max_steps", "entry_cap"))
def test_cut_off_streams_are_never_published(limit, monkeypatch):
    """A stream cut off by a budget stays in the memo, where the kernel
    treats it as incomplete, but never reaches a cache file."""
    benchmark = get_benchmark("dll/concat")
    config = SlingConfig(discard_crashed_runs=True)
    if limit == "max_steps":
        monkeypatch.setattr(search_module, "MAX_STEPS", 40)
    else:
        monkeypatch.setattr(stream_module, "STREAM_MAX_ENTRIES", 2)
    with stream_module.stream_pool():
        sling = Sling(benchmark.program, benchmark.predicates, config)
        sling.infer_function(benchmark.function, benchmark.test_cases(0))
    cut_off = [
        key[1:] for key, stream in sling.checker._streams.items() if not stream.complete
    ]
    assert cut_off, f"the {limit} workload must cut some stream off"
    shareable = dict(sling.checker.shareable_streams())
    assert shareable
    assert set(shareable).isdisjoint(cut_off)
    assert all(stream.complete for stream in shareable.values())


# --------------------------------------------------------- interruptions --


def test_interrupted_enumeration_leaves_the_stream_empty_and_restartable():
    calls = []

    def leaves():
        calls.append(len(calls))
        yield {"x": 1}, {2}, [], set()
        if len(calls) == 1:
            raise engine_module._JobTimeout
        yield {"x": 1}, set(), [], set()

    cells = {addr: HeapCell("SllNode", {"next": 0}) for addr in (1, 2)}
    stream = EnvStream(leaves, ("x",), 2, Heap(cells).canonical(1))
    with pytest.raises(engine_module._JobTimeout):
        stream.ensure()
    assert stream.entries == []
    assert not stream.complete
    assert stream.ensure() is True
    assert [entry.nconsumed for entry in stream.entries] == [1, 2]
    assert stream.ensure() is True
    assert len(calls) == 2


def _entries(stream: EnvStream) -> list[tuple]:
    fields = ("values", "avail", "nconsumed", "env", "unknowns", "deferred")
    return [tuple(getattr(entry, name) for name in fields) for entry in stream.entries]


def test_stream_interrupted_in_one_job_is_completed_by_the_next(monkeypatch):
    """The first job times out while enumerating its first stream; the
    second job of the batch asks for the same stream and gets it complete,
    with the entries a fresh checker enumerates."""
    first: dict = {}
    get_stream = ModelChecker._get_stream

    def recording_get(self, skeleton, model, root_position, root_value):
        stream, view = get_stream(self, skeleton, model, root_position, root_value)
        first.setdefault("call", (self, skeleton, model, root_position, root_value))
        first.setdefault("stream", stream)
        return stream, view

    iter_leaves = search_module.skeleton_leaves

    def interrupted_once(registry, stats, model, skeleton):
        leaves = iter_leaves(registry, stats, model, skeleton)
        if first.get("interrupted"):
            yield from leaves
            return
        first["interrupted"] = True
        yield next(leaves)
        raise engine_module._JobTimeout

    monkeypatch.setattr(ModelChecker, "_get_stream", recording_get)
    monkeypatch.setattr(search_module, "skeleton_leaves", interrupted_once)
    jobs = [
        EngineJob(kind="spec", benchmark="sll/insertFront", seed=0, timeout=600.0)
        for _ in range(2)
    ]
    reports = InferenceEngine(jobs=1).run(jobs)
    assert reports[0].error.startswith("timeout")
    assert reports[1].ok, reports[1].error
    assert reports[1].cache.skeletons_solved < _standalone_counters()[0]

    stream = first["stream"]
    assert stream.complete
    checker, skeleton, model, root_position, root_value = first["call"]
    fresh = ModelChecker(checker.registry, structs=checker.structs)
    expected, _ = fresh._get_stream(skeleton, model, root_position, root_value)
    assert expected.ensure() is True
    assert _entries(stream) == _entries(expected)


# ----------------------------------------------------------- batch scope --


def _standalone_counters(name: str = "sll/insertFront") -> tuple[int, int]:
    """``(skeletons_solved, env_stream_reuses)`` of a standalone run."""
    benchmark = get_benchmark(name)
    config = SlingConfig(discard_crashed_runs=True)
    sling = Sling(benchmark.program, benchmark.predicates, config)
    assert not sling.checker.shares_streams
    sling.infer_function(benchmark.function, benchmark.test_cases(0))
    counters = sling.cache_counters()
    return counters.skeletons_solved, counters.env_stream_reuses


def test_no_pool_outlives_its_batch():
    alone = _standalone_counters("sll/insertBack")
    jobs = [
        EngineJob(kind="spec", benchmark=name, seed=0)
        for name in ("sll/insertFront", "sll/insertBack")
    ]
    reports = InferenceEngine(jobs=1).run(jobs)
    assert reports[1].cache.skeletons_solved < alone[0]
    assert _standalone_counters("sll/insertBack") == alone

    def fail(index, report):  # noqa: ARG001 -- on_report shape
        raise RuntimeError("caller gave up")

    with pytest.raises(RuntimeError, match="caller gave up"):
        InferenceEngine(jobs=1).run(jobs, on_report=fail)
    assert _standalone_counters("sll/insertBack") == alone


# ----------------------------------------------------------- nested pools --


def test_a_batch_inside_an_open_pool_fills_the_outer_memo():
    """An engine batch (and a one-job run, which opens no pool) inside an
    open pool uses that memo instead of shadowing it, and leaves it open
    when the batch returns or raises."""
    jobs = [
        EngineJob(kind="spec", benchmark=name, seed=0)
        for name in ("sll/insertFront", "sll/insertBack")
    ]
    with stream_module.stream_pool() as outer:
        reports = InferenceEngine(jobs=1).run(jobs)
        assert all(report.ok for report in reports)
        assert stream_module.batch_memo() is outer
        assert len(outer) > 0 and outer.locations
        locations = dict(outer.locations)
        again = InferenceEngine(jobs=1).run(jobs[1:])[0]
        assert again.ok and again.cache.function_memo_hits == 1
        assert again.cache.skeletons_solved == 0
        assert dict(outer.locations) == locations

        def fail(index, report):  # noqa: ARG001 -- on_report shape
            raise RuntimeError("caller gave up")

        with pytest.raises(RuntimeError, match="caller gave up"):
            InferenceEngine(jobs=1).run(jobs, on_report=fail)
        assert stream_module.batch_memo() is outer
    assert stream_module.batch_memo() is None


def test_a_long_lived_memo_stays_within_its_bounds(monkeypatch):
    """Streams, locations and the finished log are bounded however many
    distinct jobs one pool serves; the results are a standalone run's.

    The location bound holds the last job's four locations and its
    function entry, so the repeated job is served from the memo."""
    limits = {
        "_STREAM_MEMO_LIMIT": 24,
        "_LOCATION_MEMO_LIMIT": 5,
        "_FINISHED_LOG_LIMIT": 16,
    }
    for name, limit in limits.items():
        monkeypatch.setattr(stream_module, name, limit)
    names = [
        "sll/insertFront",
        "sll/insertBack",
        "sll/append",
        "sll/reverse",
        "dll/append",
        "dll/concat",
        "dll/midDelMid",
        "dll/insertBack",
    ]
    job = EngineJob(kind="spec", benchmark=names[-1], seed=0)
    with stream_module.stream_pool() as memo:
        for name in names:
            report = InferenceEngine(jobs=1).run([replace(job, benchmark=name)])[0]
            assert report.ok, report.error
            assert len(memo) <= limits["_STREAM_MEMO_LIMIT"]
            assert len(memo.locations) <= limits["_LOCATION_MEMO_LIMIT"]
            assert len(memo.finished) <= limits["_FINISHED_LOG_LIMIT"]
        served = InferenceEngine(jobs=1).run([job])[0]
    assert memo.finished_dropped > 0
    assert len(memo.locations) == limits["_LOCATION_MEMO_LIMIT"]
    assert served.cache.function_memo_hits == 1
    assert served.cache.skeletons_solved == 0
    alone = InferenceEngine(jobs=1).run([job])[0]
    assert records_for_report("r", served) == records_for_report("r", alone)


# ------------------------------------------------------------ cache files --


def _two_spec_jobs(monkeypatch, *configs) -> set[bytes]:
    """Run one spec job per config inline; returns the row keys of the
    streams the first job left shareable in the batch memo."""
    memos: list = []
    left: set[bytes] = set()

    def snapshot(index, report):  # noqa: ARG001 -- on_report shape
        if index == 0:
            left.update(
                stable_key_bytes(key[1:])
                for key, stream in memos[0].items()
                if stream.complete and isinstance(key[-1], CanonicalForm)
            )

    with _recording_memos(monkeypatch) as memos:
        jobs = [
            EngineJob(kind="spec", benchmark=name, seed=0, config=config)
            for name, config in zip(("sll/insertFront", "sll/insertBack"), configs)
        ]
        reports = InferenceEngine(jobs=1).run(jobs, on_report=snapshot)
    assert all(report.ok for report in reports)
    assert left
    return left


def _stream_rows(path) -> dict[bytes, int]:
    """``{key: hit_count}`` of the stream rows in one cache file."""
    with closing(sqlite3.connect(path)) as conn:
        rows = conn.execute(
            "SELECT key, hit_count FROM entries WHERE kind = ?", (KIND_STREAM,)
        ).fetchall()
    return {bytes(key): hits for key, hits in rows}


def test_pool_hits_are_not_written_to_the_cache_file_again(tmp_path, monkeypatch):
    # Every stream row key each job wrote, over all of its flushes.
    written: list[set[bytes]] = []
    put_many = store_module.CacheStore.put_many
    execute_job = engine_module.execute_job

    def record_puts(self, fingerprint, kind, rows):
        if kind == KIND_STREAM:
            written[-1].update(bytes(key) for key, _ in rows)
        return put_many(self, fingerprint, kind, rows)

    def per_job(job):
        written.append(set())
        return execute_job(job)

    monkeypatch.setattr(store_module.CacheStore, "put_many", record_puts)
    monkeypatch.setattr(engine_module, "execute_job", per_job)
    path = str(tmp_path / "pool.sqlite")
    config = SlingConfig(discard_crashed_runs=True, persistent_cache=path)
    left = _two_spec_jobs(monkeypatch, config, config)
    first, second = written
    assert left <= first
    assert second.isdisjoint(left)
    assert set(_stream_rows(path)) == first | second


@pytest.mark.parametrize("publisher", ("other_file", "failed_flush"))
def test_pool_hits_are_written_when_the_publisher_did_not(
    publisher, tmp_path, monkeypatch
):
    path = str(tmp_path / "pool.sqlite")
    config = SlingConfig(discard_crashed_runs=True, persistent_cache=path)
    if publisher == "other_file":
        first = replace(config, persistent_cache=str(tmp_path / "other.sqlite"))
    else:
        # The first stream write fails: the first job's tier disables
        # itself and its file gets no stream row.
        plan = FaultPlan(rules=(FaultRule("cache_write", "raise"),))
        reset_injector(plan)
        first = replace(config, fault_plan=plan)
    left = _two_spec_jobs(monkeypatch, first, config)
    rows = _stream_rows(path)
    assert all(rows.get(key) == 0 for key in left)


_SWEEP = """
import json
from repro.evaluation.table1 import run_table1
result = run_table1(categories=("SLL", "DLL"), max_programs_per_category=4, seed=0)
print(json.dumps(
    {"fingerprints": result.fingerprints(),
     "solved": result.cache_totals().skeletons_solved}
))
"""


def _sweep_in_subprocess(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    completed = subprocess.run(
        [sys.executable, "-c", _SWEEP],
        capture_output=True,
        text=True,
        env=env,
        cwd=_ROOT,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_pooled_sweep_is_independent_of_the_hash_seed(sweeps):
    _, standalone, _ = sweeps
    first = _sweep_in_subprocess("11")
    second = _sweep_in_subprocess("4242")
    assert first["solved"] < standalone.cache_totals().skeletons_solved
    assert first["fingerprints"] == second["fingerprints"]
    expected = json.loads(json.dumps(standalone.fingerprints()))
    assert first["fingerprints"] == expected
