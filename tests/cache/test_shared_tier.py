"""The process-lifetime disk tier: one tier per file and registry per thread.

Every ``Sling`` binds to its thread's tier for (cache file, registry
fingerprint), and the tiers of one file share one sqlite connection.  These
tests pin what sharing must not change:

* cache row keys render byte for byte as before, so old files stay warm;
* every job still counts only its own disk hits, misses and errors;
* a failed tier or store is reopened by the next job, and so is a file
  deleted under it; rows cleared by another connection are written again;
* forked workers and other threads never touch a connection they did not
  open, and rows written from two threads all land;
* a daemon closes its connections when it stops.
"""

from __future__ import annotations

import io
import os
import sqlite3
import sys
import threading
from contextlib import closing

import pytest

from repro.benchsuite.registry import get_benchmark
from repro.cache import close_tiers
from repro.cache import serialize, tier as tier_module
from repro.cache.store import CacheStore
from repro.cache.tier import KIND_STREAM
from repro.core.engine import EngineJob, InferenceEngine
from repro.core.sling import Sling, SlingConfig
from repro.evaluation.table1 import run_table1
from repro.faults import FaultPlan, FaultRule, reset_injector
from repro.serve.client import submit
from repro.serve.protocol import ServeRequest
from repro.sl.model import CanonicalForm


def _strip_forms(value):
    """The key rendering before forms cached theirs: the oracle."""
    if isinstance(value, CanonicalForm):
        return ("__cf__", value.key)
    if isinstance(value, tuple):
        return tuple(_strip_forms(item) for item in value)
    return value


def _oracle_key_bytes(key) -> bytes:
    return repr(_strip_forms(key)).encode("utf-8")


def _row_keys(path, kind=None) -> set[bytes]:
    with closing(sqlite3.connect(path)) as conn:
        if kind is None:
            rows = conn.execute("SELECT key FROM entries").fetchall()
        else:
            rows = conn.execute("SELECT key FROM entries WHERE kind = ?", (kind,))
            rows = rows.fetchall()
    return {bytes(key) for (key,) in rows}


def _infer(name: str, config: SlingConfig) -> Sling:
    benchmark = get_benchmark(name)
    sling = Sling(benchmark.program, benchmark.predicates, config)
    sling.infer_function(benchmark.function, benchmark.test_cases(0))
    return sling


def _cached(path, **kwargs) -> SlingConfig:
    return SlingConfig(discard_crashed_runs=True, persistent_cache=str(path), **kwargs)


@pytest.fixture(autouse=True)
def _fresh_tiers():
    yield
    close_tiers()


# ------------------------------------------------------------ key rendering --


def test_row_keys_render_as_before(tmp_path, monkeypatch):
    path = tmp_path / "sweep.sqlite"
    rendered: set[bytes] = set()
    render = serialize.stable_key_bytes

    def checked(key):
        key_bytes = render(key)
        assert key_bytes == _oracle_key_bytes(key)
        rendered.add(key_bytes)
        return key_bytes

    monkeypatch.setattr(serialize, "stable_key_bytes", checked)
    monkeypatch.setattr(tier_module, "stable_key_bytes", checked)
    run_table1(
        categories=("SLL", "DLL"),
        config=_cached(path),
        max_programs_per_category=4,
    )
    rows = _row_keys(path)
    assert _row_keys(path, KIND_STREAM)
    assert rows <= rendered


def test_file_written_with_the_old_rendering_stays_warm(tmp_path, monkeypatch):
    path = tmp_path / "old.sqlite"
    with monkeypatch.context() as patched:
        patched.setattr(serialize, "stable_key_bytes", _oracle_key_bytes)
        patched.setattr(tier_module, "stable_key_bytes", _oracle_key_bytes)
        cold = _infer("dll/append", _cached(path)).cache_counters()
        close_tiers()
    warm = _infer("dll/append", _cached(path)).cache_counters()
    assert cold.skeletons_solved > 0
    assert warm.disk_hits > 0
    assert warm.disk_load_errors == 0
    assert warm.skeletons_solved < cold.skeletons_solved


# ---------------------------------------------------------------- counters --


def test_each_warm_job_counts_only_its_own_disk_lookups(tmp_path):
    path = tmp_path / "warm.sqlite"
    _infer("sll/insertFront", _cached(path))
    first = _infer("sll/insertFront", _cached(path))
    first_counters = first.cache_counters()
    second = _infer("sll/insertFront", _cached(path))
    second_counters = second.cache_counters()
    assert first.persistent_cache is second.persistent_cache
    assert first_counters.disk_hits > 0
    assert second_counters.disk_hits == first_counters.disk_hits
    assert second_counters.disk_misses == first_counters.disk_misses


def test_each_job_counts_only_its_own_undecodable_rows(tmp_path):
    path = tmp_path / "vandalized.sqlite"

    def vandalized_run():
        # Every job's flush repairs the rows, so vandalize before each.
        with closing(sqlite3.connect(path)) as conn:
            conn.execute("UPDATE entries SET payload = X'DEADBEEF' WHERE kind = 'stream'")
            conn.commit()
        return _infer("sll/insertFront", _cached(path)).cache_counters()

    _infer("sll/insertFront", _cached(path))
    first = vandalized_run()
    second = vandalized_run()
    assert first.disk_load_errors > 0
    assert second.disk_load_errors == first.disk_load_errors


def test_corrupt_job_then_healthy_job_reopens_the_file(tmp_path):
    path = tmp_path / "flaky.sqlite"
    _infer("sll/insertFront", _cached(path))
    plan = FaultPlan(rules=(FaultRule("cache_read", "corrupt", at=2),), seed=9)
    reset_injector(plan)
    faulted = _infer("sll/insertFront", _cached(path, fault_plan=plan))
    assert faulted.cache_counters().disk_load_errors >= 1
    assert faulted.persistent_cache.store.failed

    healthy = _infer("sll/insertFront", _cached(path))
    assert healthy.persistent_cache is not faulted.persistent_cache
    assert healthy.cache_counters().disk_load_errors == 0
    assert healthy.cache_counters().disk_hits > 0


def test_rows_cleared_by_another_connection_are_written_again(tmp_path):
    path = tmp_path / "cleared.sqlite"
    _infer("sll/insertFront", _cached(path))
    other = CacheStore(path)
    assert other.clear() > 0
    other.close()
    _infer("sll/insertFront", _cached(path))
    assert _row_keys(path, KIND_STREAM)


def test_file_deleted_under_the_tier_is_recreated(tmp_path):
    path = tmp_path / "deleted.sqlite"
    first = _infer("sll/insertFront", _cached(path))
    for name in (str(path), f"{path}-wal", f"{path}-shm"):
        if os.path.exists(name):
            os.unlink(name)
    second = _infer("sll/insertFront", _cached(path))
    assert second.persistent_cache is not first.persistent_cache
    assert second.cache_counters().disk_load_errors == 0
    assert _row_keys(path, KIND_STREAM)


def test_pool_hits_flushed_by_an_earlier_job_are_not_written_again(
    tmp_path, monkeypatch
):
    written: list[set[bytes]] = []
    put_many = CacheStore.put_many

    def record_puts(self, fingerprint, kind, rows):
        if kind == KIND_STREAM:
            written.append({key for key, _ in rows})
        return put_many(self, fingerprint, kind, rows)

    monkeypatch.setattr(CacheStore, "put_many", record_puts)
    config = _cached(tmp_path / "pool.sqlite")
    jobs = [
        EngineJob(kind="spec", benchmark=name, seed=0, config=config)
        for name in ("sll/insertFront", "sll/insertBack")
    ]
    reports = InferenceEngine(jobs=1).run(jobs)
    assert reports[1].cache.stream_pool_hits > 0
    first, second = written
    assert first
    assert first.isdisjoint(second)


# ------------------------------------------------------- processes, threads --


def test_inline_job_then_forked_batch_on_one_file(tmp_path):
    path = tmp_path / "shared.sqlite"
    subset = {"categories": ("SLL",), "max_programs_per_category": 3}
    expected = run_table1(**subset).fingerprints()
    inline = run_table1(config=_cached(path), **subset)
    # The parent keeps its connection open across the fork below.
    forked = run_table1(config=_cached(path), jobs=2, **subset)
    assert inline.fingerprints() == expected
    assert forked.fingerprints() == expected
    assert forked.cache_totals().disk_load_errors == 0
    assert forked.cache_totals().disk_hits > 0


def test_threads_and_a_threaded_daemon_share_one_file(
    tmp_path, monkeypatch, serve_daemon
):
    path = tmp_path / "shared.sqlite"
    written: set[bytes] = set()
    lock = threading.Lock()
    put_many = CacheStore.put_many

    def record_puts(self, fingerprint, kind, rows):
        count = put_many(self, fingerprint, kind, rows)
        if kind == KIND_STREAM and count:
            with lock:
                written.update(key for key, _ in rows)
        return count

    monkeypatch.setattr(CacheStore, "put_many", record_puts)
    local: list = []

    def infer_locally(names):
        local.extend(_infer(name, _cached(path)).cache_counters() for name in names)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    host = serve_daemon(cache_file=str(path))
    try:
        terminal = {}

        def client():
            request = ServeRequest(id="shared", benchmarks=("dll/append", "sll/reverse"))
            terminal.update(submit(host.socket_path, request, io.StringIO()))

        others = [
            threading.Thread(target=client),
            threading.Thread(target=infer_locally, args=(("dll/concat", "sll/insertBack"),)),
        ]
        for thread in others:
            thread.start()
        infer_locally(("sll/insertFront", "dll/concat", "sll/reverse"))
        for thread in others:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        host.stop()
        sys.setswitchinterval(switch_interval)
    assert terminal["status"] == "complete"
    assert host.daemon.stats.disk_load_errors == 0
    assert len(local) == 5
    assert all(counters.disk_load_errors == 0 for counters in local)
    assert written
    assert written <= _row_keys(path, KIND_STREAM)


def _open_files() -> set[str]:
    opened = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            opened.add(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:
            pass
    return opened


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_no_connection_outlives_serve(tmp_path, serve_daemon):
    path = str(tmp_path / "daemon.sqlite")
    host = serve_daemon(cache_file=path)
    request = ServeRequest(id="one", benchmarks=("sll/insertFront",))
    assert submit(host.socket_path, request, io.StringIO())["status"] == "complete"
    assert path in _open_files()
    host.stop()
    assert not any(name.startswith(path) for name in _open_files())

