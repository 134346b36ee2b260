"""``repro cache verify``: a cache file must reproduce the cache-less sweep.

The command's sweep covers two programs of every category; these tests cut
it down to the SLL category so each verify run takes about a second.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import cli
from repro.cache import CacheStore
from repro.cache import serialize
from repro.cache.serialize import stable_key_bytes
from repro.evaluation import table1
from repro.lang import standard_structs

from tests.conftest import sll_model


@pytest.fixture(autouse=True)
def sll_only(monkeypatch):
    run_table1 = table1.run_table1
    monkeypatch.setattr(
        table1, "run_table1", lambda **kwargs: run_table1(categories=["SLL"], **kwargs)
    )


def _verify(cache_file, capsys) -> dict:
    cli.main(["cache", "verify", "--file", str(cache_file)])
    return json.loads(capsys.readouterr().out)


def test_fresh_file_is_written_then_resumed(tmp_path, capsys):
    cache_file = tmp_path / "warm.sqlite"
    cold = _verify(cache_file, capsys)
    assert cold["resumed"] is False
    assert cold["benchmarks"] == table1.VERIFY_PROGRAMS_PER_CATEGORY
    assert cold["identical"] and cold["passed"]

    resumed = _verify(cache_file, capsys)
    assert resumed["resumed"] is True
    assert resumed["identical"] and resumed["passed"]
    assert resumed["warm"]["hit_rate"] >= table1.MIN_WARM_HIT_RATE


def test_diverging_warm_sweep_exits_1(tmp_path, monkeypatch):
    fingerprints = table1.Table1Result.fingerprints
    calls = iter(range(3))

    def drifting(result):
        # reference, cold, warm: only the warm sweep's invariants change
        return fingerprints(result) + ([("drift",)] if next(calls) == 2 else [])

    monkeypatch.setattr(table1.Table1Result, "fingerprints", drifting)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["cache", "verify", "--file", str(tmp_path / "warm.sqlite")])
    assert "diverged" in str(excinfo.value.code)


def test_empty_resumed_file_exits_1(tmp_path):
    # An existing but empty cache file counts as resumed, so its warm sweep
    # is served from nothing: every lookup misses.
    cache_file = tmp_path / "empty.sqlite"
    cli.main(["cache", "clear", "--file", str(cache_file)])
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["cache", "verify", "--file", str(cache_file)])
    assert "hit rate 0.0" in str(excinfo.value.code)


def test_warm_sweep_writes_nothing(tmp_path):
    # The warm sweep reads the file read-only: what it measures is the
    # file as it was, never rows its own earlier jobs wrote.
    cache_file = tmp_path / "empty.sqlite"
    cli.main(["cache", "clear", "--file", str(cache_file)])
    with pytest.raises(SystemExit):
        cli.main(["cache", "verify", "--file", str(cache_file)])
    store = CacheStore(cache_file)
    assert store.stats()["entries"] == 0
    store.close()


def test_file_with_old_refuter_rows_still_verifies(tmp_path, capsys, monkeypatch):
    # Older files hold row kinds nothing reads any more: ``refuter`` rows,
    # (shape, canonical model form key) pairs from the learned-refuter
    # table, and ``unfold`` rows, (predicate, case index, argument shape)
    # triples from when unfolding templates were persisted.  They must not
    # get in the way of a resume, and a resume must not touch them.
    cache_file = tmp_path / "old.sqlite"
    assert _verify(cache_file, capsys)["passed"]
    shape = (("app", "sll", 1),)
    form_key = sll_model(2).canonical(standard_structs()).form.key
    refuter_row = (stable_key_bytes(shape), pickle.dumps((shape, form_key), protocol=5))
    unfold_rows = [
        (stable_key_bytes(record), pickle.dumps(record, protocol=5))
        for record in (("sll", 0, ("?a0",)), ("sll", 1, ("?a0",)), ("lseg", 1, ("?a0", "nil")))
    ]
    store = CacheStore(cache_file)
    fingerprints = list(store.stats()["fingerprints"])
    for fingerprint in fingerprints:
        assert store.put_many(fingerprint, "refuter", [refuter_row]) == 1
        assert store.put_many(fingerprint, "unfold", unfold_rows) == len(unfold_rows)
    before = store.stats()["kinds"]
    store.close()
    assert before["refuter"]["entries"] == len(fingerprints)
    assert before["unfold"]["entries"] == len(fingerprints) * len(unfold_rows)

    # Any process of the sweep that looks up an unfold row or decodes an
    # unfold payload leaves a mark; the pool's forked workers inherit these
    # wrappers.
    marks = tmp_path / "unfold_reads"
    unfold_payloads = {payload for _, payload in unfold_rows}
    loads, get = serialize._loads, CacheStore.get

    def mark(what: str) -> None:
        with open(marks, "a") as handle:
            handle.write(what + "\n")

    def watched_loads(payload):
        if bytes(payload) in unfold_payloads:
            mark("decoded")
        return loads(payload)

    def watched_get(self, fingerprint, kind, key):
        if kind == "unfold":
            mark("looked up")
        return get(self, fingerprint, kind, key)

    monkeypatch.setattr(serialize, "_loads", watched_loads)
    monkeypatch.setattr(CacheStore, "get", watched_get)

    resumed = _verify(cache_file, capsys)
    assert resumed["resumed"] is True
    assert resumed["identical"] and resumed["passed"]
    assert not marks.exists(), marks.read_text()
    store = CacheStore(cache_file)
    after = store.stats()["kinds"]
    store.close()
    for kind in ("refuter", "unfold"):
        assert after[kind]["entries"] == before[kind]["entries"]
