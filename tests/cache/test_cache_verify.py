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


def test_file_with_old_refuter_rows_still_verifies(tmp_path, capsys):
    # Files written while the checker kept a learned-refuter table hold
    # ``refuter`` rows: (shape, canonical model form key) pairs.  Nothing
    # reads them any more, and they must not get in the way of a resume.
    cache_file = tmp_path / "old.sqlite"
    assert _verify(cache_file, capsys)["passed"]
    shape = (("app", "sll", 1),)
    form_key = sll_model(2).canonical(standard_structs()).form.key
    row = (stable_key_bytes(shape), pickle.dumps((shape, form_key), protocol=5))
    store = CacheStore(cache_file)
    fingerprints = list(store.stats()["fingerprints"])
    for fingerprint in fingerprints:
        assert store.put_many(fingerprint, "refuter", [row]) == 1
    store.close()

    resumed = _verify(cache_file, capsys)
    assert resumed["resumed"] is True
    assert resumed["passed"] is True
    store = CacheStore(cache_file)
    assert store.stats()["kinds"]["refuter"]["entries"] == len(fingerprints)
    store.close()
