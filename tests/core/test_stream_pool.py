"""The run-scoped stream pool shares finished streams across one batch.

An engine batch of two or more jobs opens a :class:`StreamPool`: every job
publishes the complete, canonically keyed streams of its checker, and later
jobs of the batch take them instead of solving the skeleton again.  These
tests pin what that may and may not change:

* the invariants are those of standalone runs, for ``jobs=1``, ``jobs=2``
  and under different ``PYTHONHASHSEED``s;
* fewer skeletons are solved, while the candidate search is unchanged;
* only complete streams are ever pooled;
* the pool never outlives its batch, and a cache file never gets a stream
  row written twice because the pool served it.
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
from repro.cache.tier import KIND_STREAM, PersistentCache
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
from repro.sl import checker as checker_module

_ROOT = Path(__file__).resolve().parents[2]

#: The pooled sweep: four programs from each of two categories, seed 0.
SUBSET = {"categories": ("SLL", "DLL"), "max_programs_per_category": 4, "seed": 0}


@contextmanager
def _recording_pools(monkeypatch):
    """Collect every pool the engine opens, checking each publish as it lands."""
    pools = []
    open_pool = checker_module.stream_pool

    @contextmanager
    def recorded():
        with open_pool() as pool:
            pools.append(pool)
            yield pool

    publish = checker_module.StreamPool.publish

    def checked_publish(self, space, streams):
        publish(self, space, streams)
        assert all(stream.complete for stream in self._streams.values())

    monkeypatch.setattr(engine_module, "stream_pool", recorded)
    monkeypatch.setattr(checker_module.StreamPool, "publish", checked_publish)
    yield pools


def _standalone(pooled: Table1Result) -> Table1Result:
    """Each program of ``pooled`` evaluated by its own ``Sling``, no engine."""
    rows = []
    for row in pooled.rows:
        programs = [
            evaluate_program(get_benchmark(program.name), seed=SUBSET["seed"])
            for program in row.programs
        ]
        rows.append(CategoryRow(category=row.category, programs=programs))
    return Table1Result(rows=rows)


@pytest.fixture(scope="module")
def sweeps():
    with pytest.MonkeyPatch.context() as monkeypatch:
        with _recording_pools(monkeypatch) as pools:
            pooled = run_table1(**SUBSET)
    return pooled, _standalone(pooled), pools


def _programs(result: Table1Result):
    return [program for row in result.rows for program in row.programs]


def test_pooled_sweep_matches_standalone_runs(sweeps):
    pooled, standalone, _ = sweeps
    assert len(pooled.fingerprints()) == 8
    assert pooled.fingerprints() == standalone.fingerprints()


def test_parallel_pooled_sweep_matches_standalone_runs(sweeps):
    _, standalone, _ = sweeps
    assert run_table1(jobs=2, **SUBSET).fingerprints() == standalone.fingerprints()


def test_pool_saves_solves_without_changing_the_search(sweeps):
    pooled, standalone, _ = sweeps
    assert pooled.cache_totals().stream_pool_hits > 0
    assert standalone.cache_totals().stream_pool_hits == 0
    assert (
        pooled.cache_totals().skeletons_solved
        < standalone.cache_totals().skeletons_solved
    )
    for with_pool, alone in zip(_programs(pooled), _programs(standalone)):
        assert with_pool.name == alone.name
        assert with_pool.cache.candidates_checked == alone.cache.candidates_checked
        assert with_pool.cache.candidate_groups == alone.cache.candidate_groups


def test_sweep_pool_holds_only_complete_streams(sweeps):
    _, _, pools = sweeps
    assert len(pools) == 1
    assert 0 < len(pools[0]._streams) <= checker_module._STREAM_POOL_LIMIT
    assert all(stream.complete for stream in pools[0]._streams.values())


@pytest.mark.parametrize("limit", ("max_steps", "entry_cap"))
def test_cut_off_streams_are_never_published(limit, monkeypatch):
    benchmark = get_benchmark("dll/concat")
    config = SlingConfig(discard_crashed_runs=True)
    if limit == "max_steps":
        monkeypatch.setattr(checker_module, "MAX_STEPS", 40)
    else:
        monkeypatch.setattr(checker_module, "STREAM_MAX_ENTRIES", 2)
    with checker_module.stream_pool() as pool:
        sling = Sling(benchmark.program, benchmark.predicates, config)
        sling.infer_function(benchmark.function, benchmark.test_cases(0))
    memo = sling.checker._streams
    cut_off = [key for key, stream in memo.items() if not stream.complete]
    assert cut_off, f"the {limit} workload must cut some stream off"
    assert pool._streams
    pooled_keys = {key for _, key in pool._streams}
    assert pooled_keys.isdisjoint(cut_off)
    assert all(stream.complete for stream in pool._streams.values())


def _standalone_pool_hits() -> int:
    benchmark = get_benchmark("sll/insertFront")
    config = SlingConfig(discard_crashed_runs=True)
    sling = Sling(benchmark.program, benchmark.predicates, config)
    assert sling.checker.stream_pool is None
    sling.infer_function(benchmark.function, benchmark.test_cases(0))
    return sling.cache_counters().stream_pool_hits


def test_no_pool_outlives_its_batch():
    jobs = [
        EngineJob(kind="spec", benchmark=name, seed=0)
        for name in ("sll/insertFront", "sll/insertBack")
    ]
    reports = InferenceEngine(jobs=1).run(jobs)
    assert reports[1].cache.stream_pool_hits > 0
    assert _standalone_pool_hits() == 0

    def fail(index, report):  # noqa: ARG001 -- on_report shape
        raise RuntimeError("caller gave up")

    with pytest.raises(RuntimeError, match="caller gave up"):
        InferenceEngine(jobs=1).run(jobs, on_report=fail)
    assert _standalone_pool_hits() == 0


def _pooled_spec_jobs(monkeypatch, *configs):
    """Run one spec job per config inline; returns the stream keys each
    job's checker took from the pool (as stored in a cache file)."""
    pooled_keys: list[set[bytes]] = [set() for _ in configs]
    note_pooled = PersistentCache.note_pooled
    tiers: list[PersistentCache] = []

    def record_pooled(self, key):
        pooled_keys[tiers.index(self)].add(stable_key_bytes(key))
        note_pooled(self, key)

    attach = PersistentCache.attach

    def record_attach(self, checker):
        tiers.append(self)
        attach(self, checker)

    monkeypatch.setattr(PersistentCache, "note_pooled", record_pooled)
    monkeypatch.setattr(PersistentCache, "attach", record_attach)
    jobs = [
        EngineJob(kind="spec", benchmark=name, seed=0, config=config)
        for name, config in zip(("sll/insertFront", "sll/insertBack"), configs)
    ]
    reports = InferenceEngine(jobs=1).run(jobs)
    assert all(report.ok for report in reports)
    assert reports[0].cache.stream_pool_hits == 0
    assert reports[1].cache.stream_pool_hits > 0
    return pooled_keys


def _stream_rows(path) -> dict[bytes, int]:
    """``{key: hit_count}`` of the stream rows in one cache file."""
    with closing(sqlite3.connect(path)) as conn:
        rows = conn.execute(
            "SELECT key, hit_count FROM entries WHERE kind = ?", (KIND_STREAM,)
        ).fetchall()
    return {bytes(key): hits for key, hits in rows}


def test_pool_hits_are_not_written_to_the_cache_file_again(tmp_path, monkeypatch):
    written: list[set[bytes]] = []
    put_many = store_module.CacheStore.put_many

    def record_puts(self, fingerprint, kind, rows):
        if kind == KIND_STREAM:
            written.append({bytes(key) for key, _ in rows})
        return put_many(self, fingerprint, kind, rows)

    monkeypatch.setattr(store_module.CacheStore, "put_many", record_puts)
    path = str(tmp_path / "pool.sqlite")
    config = SlingConfig(discard_crashed_runs=True, persistent_cache=path)
    _, pooled = _pooled_spec_jobs(monkeypatch, config, config)
    first, second = written
    assert pooled <= first
    assert second.isdisjoint(pooled)
    # Served from the pool, the rows still get a disk hit's recency bump.
    rows = _stream_rows(path)
    assert all(rows[key] == 1 for key in pooled)


@pytest.mark.parametrize("publisher", ("other_file", "failed_flush"))
def test_pool_hits_are_written_when_the_publisher_did_not(
    publisher, tmp_path, monkeypatch
):
    path = str(tmp_path / "pool.sqlite")
    config = SlingConfig(discard_crashed_runs=True, persistent_cache=path)
    if publisher == "other_file":
        first = replace(config, persistent_cache=str(tmp_path / "other.sqlite"))
    else:
        # The first stream write fails: the publisher's tier disables
        # itself and its file gets no stream row.
        plan = FaultPlan(rules=(FaultRule("cache_write", "raise"),))
        reset_injector(plan)
        first = replace(config, fault_plan=plan)
    _, pooled = _pooled_spec_jobs(monkeypatch, first, config)
    rows = _stream_rows(path)
    assert pooled
    assert all(rows.get(key) == 0 for key in pooled)


_SWEEP = """
import json
from repro.evaluation.table1 import run_table1
result = run_table1(categories=("SLL", "DLL"), max_programs_per_category=4, seed=0)
print(json.dumps(
    {"fingerprints": result.fingerprints(),
     "pool_hits": result.cache_totals().stream_pool_hits}
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
    assert first["pool_hits"] > 0
    assert first["fingerprints"] == second["fingerprints"]
    expected = json.loads(json.dumps(standalone.fingerprints()))
    assert first["fingerprints"] == expected
