"""``repro cache verify``: a cache file must reproduce the cache-less sweep.

The command's sweep covers two programs of every category; these tests cut
it down to the SLL category so each verify run takes about a second.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.evaluation import table1


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
