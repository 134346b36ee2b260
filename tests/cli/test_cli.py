"""Smoke tests for the ``repro`` CLI (``python -m repro ...``)."""

import base64
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache import CACHE_SCHEMA_VERSION, CacheStore

from tests.conftest import CreatesFileOnUnpickle

_ROOT = Path(__file__).resolve().parents[2]


def _run(
    *args: str, timeout: float = 120.0, stdin: str | bytes | None = None
) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=not isinstance(stdin, bytes),
        input=stdin,
        timeout=timeout,
        env=env,
        cwd=_ROOT,
    )


def test_table1_json_parses():
    process = _run("table1", "--category", "SLL", "--limit", "2", "--json")
    assert process.returncode == 0, process.stderr
    data = json.loads(process.stdout)
    assert data["totals"]["programs"] == 2
    assert data["rows"][0]["category"] == "SLL"
    programs = data["rows"][0]["programs"]
    assert all(p["classification"] in "ASX" for p in programs)
    assert data["cache"]["checker_misses"] > 0


def test_table2_json_parses():
    process = _run("table2", "--category", "SLL", "--limit", "2", "--json")
    assert process.returncode == 0, process.stderr
    data = json.loads(process.stdout)
    assert data["summary"]["total"] > 0


#: Per-program counters of the skeleton work the batch's shared stream memo
#: saves.  With ``--jobs 2`` they depend on which earlier jobs shared each
#: worker's memo, so only sequential runs reproduce them exactly.
POOL_DEPENDENT = (
    "skeletons_solved",
    "env_stream_reuses",
    "pruned_cases",
    "max_trail_depth",
    "pure_variant_evals",
    "kernel_scan_fallbacks",
    "canonical_stream_hits",
)


def _drop(data, keys):
    for row in data["rows"]:
        for program in row["programs"]:
            for key in keys:
                program.pop(key)


def test_table1_parallel_jobs_flag():
    process = _run("table1", "--category", "SLL", "--limit", "2", "--jobs", "2", "--json")
    assert process.returncode == 0, process.stderr
    parallel = json.loads(process.stdout)
    sequential, again = (
        json.loads(_run("table1", "--category", "SLL", "--limit", "2", "--json").stdout)
        for _ in range(2)
    )
    # A parallel run agrees on the stream requests, which each job makes
    # alone, whether they were solved or served by the memo -- as long as
    # no job was served a whole location an earlier job inferred.
    assert not any(
        program["location_memo_hits"]
        for data in (parallel, sequential)
        for row in data["rows"]
        for program in row["programs"]
    )
    requests = [
        [
            program["skeletons_solved"] + program["env_stream_reuses"]
            for row in data["rows"]
            for program in row["programs"]
        ]
        for data in (parallel, sequential)
    ]
    assert requests[0] == requests[1]
    # Drop the timing/cache fields: two sequential runs agree on every
    # counted column, a parallel one on all but the pool-dependent ones.
    for data in (parallel, sequential, again):
        del data["cache"]
        data["totals"].pop("seconds")
        _drop(
            data,
            (
                "seconds",
                "checker_cache_misses",
                "unfold_cache_hits",
                "unfold_cache_misses",
            ),
        )
    assert again == sequential
    _drop(parallel, POOL_DEPENDENT)
    _drop(sequential, POOL_DEPENDENT)
    assert parallel == sequential


def test_infer_json():
    process = _run("infer", "--benchmark", "sll/insertFront", "--json")
    assert process.returncode == 0, process.stderr
    [report] = json.loads(process.stdout)
    assert report["ok"] is True
    assert report["benchmark"] == "sll/insertFront"
    assert any(inv["formula"] for inv in report["invariants"])


def test_infer_list():
    process = _run("infer", "--list")
    assert process.returncode == 0, process.stderr
    assert "sll/insertFront" in process.stdout


def test_infer_without_selection_errors():
    process = _run("infer")
    assert process.returncode != 0


def test_docs_stdout():
    process = _run("docs", "--stdout")
    assert process.returncode == 0, process.stderr
    assert process.stdout.startswith("# Inductive predicate reference")
    assert "## `sll(x: SllNode*)`" in process.stdout
    assert "Example model" in process.stdout


def test_generated_docs_are_in_sync():
    """docs/predicates.md must match what ``python -m repro docs`` produces."""
    committed = (_ROOT / "docs" / "predicates.md").read_text(encoding="utf-8")
    process = _run("docs", "--stdout")
    assert process.stdout == committed, (
        "docs/predicates.md is stale; regenerate it with `python -m repro docs`"
    )


def test_bench_subcommand_is_gone():
    """The benchmark lives in perfbench/ (BENCHMARK.json), not in the CLI."""
    process = _run("bench")
    assert process.returncode == 2
    assert "invalid choice: 'bench'" in process.stderr


# ---------------------------------------------------------------------------
# cache export / import
# ---------------------------------------------------------------------------


def _populated_cache(path) -> None:
    """A cache file with rows of two fingerprints and kinds, some hit."""
    store = CacheStore(path)
    store.put_many("fp-a", "stream", [(b"k1", b"\x00payload"), (b"k2", b"\xffz")], now=10.0)
    store.put_many("fp-b", "unfold", [(b"k3", b"template")], now=20.0)
    store.touch_many("fp-a", "stream", [b"k2"], now=30.0)
    store.close()


def _contents(path) -> dict:
    store = CacheStore(path)
    try:
        stats = store.stats()
        rows = sorted(
            (
                row["fingerprint"],
                row["kind"],
                base64.b64decode(row["key"]),
                base64.b64decode(row["payload"]),
            )
            for row in store.export_rows()["rows"]
        )
    finally:
        store.close()
    return {
        "entries": stats["entries"],
        "kinds": stats["kinds"],
        "fingerprints": stats["fingerprints"],
        "rows": rows,
    }


def test_cache_export_import_round_trip(tmp_path):
    source, dump, target = tmp_path / "a.sqlite", tmp_path / "dump.json", tmp_path / "b.sqlite"
    _populated_cache(source)
    exported = _run("cache", "export", "--file", str(source), "--dump", str(dump))
    assert exported.returncode == 0, exported.stderr
    data = json.loads(dump.read_text(encoding="utf-8"))
    assert len(data["rows"]) == 3
    imported = _run("cache", "import", "--file", str(target), "--dump", str(dump))
    assert imported.returncode == 0, imported.stderr
    assert _contents(target) == _contents(source)
    assert _contents(target)["entries"] == 3


def test_cache_export_import_round_trip_through_pipes(tmp_path):
    source, target = tmp_path / "a.sqlite", tmp_path / "b.sqlite"
    _populated_cache(source)
    exported = _run("cache", "export", "--file", str(source))
    assert exported.returncode == 0, exported.stderr
    imported = _run("cache", "import", "--file", str(target), stdin=exported.stdout)
    assert imported.returncode == 0, imported.stderr
    assert _contents(target) == _contents(source)


def _valid_row() -> dict:
    return {
        "fingerprint": "fp", "kind": "stream", "key": "azE=", "payload": "cA==",
        "hit_count": 0, "last_used": 1.0, "created": 1.0,
    }


@pytest.mark.parametrize(
    "dump",
    ("pickled", "crafted-pickle", "garbage", "not-an-object", "bad-row", "bad-base64"),
)
def test_cache_import_refuses_malformed_dump(tmp_path, dump):
    """A dump that is not export's JSON exits 1 and writes no row at all."""
    marker = tmp_path / "unpickled"
    schema = CACHE_SCHEMA_VERSION
    bad_row = dict(_valid_row(), hit_count="many")
    bad_base64 = dict(_valid_row(), payload="not base64!")
    contents = {
        "pickled": pickle.dumps({"schema_version": schema, "rows": []}),
        "crafted-pickle": pickle.dumps(CreatesFileOnUnpickle(str(marker))),
        "garbage": b"\x00\x01 definitely not a dump",
        "not-an-object": json.dumps([schema]).encode(),
        # A valid row first: validation must reject the dump before writing.
        "bad-row": json.dumps({"schema_version": schema, "rows": [_valid_row(), bad_row]}).encode(),
        "bad-base64": json.dumps({"schema_version": schema, "rows": [bad_base64]}).encode(),
    }[dump]
    path = tmp_path / "dump.bin"
    path.write_bytes(contents)
    target = tmp_path / "target.sqlite"
    process = _run("cache", "import", "--file", str(target), "--dump", str(path))
    assert process.returncode == 1
    assert "malformed dump" in process.stderr
    assert not marker.exists()
    assert _contents(target)["entries"] == 0
    piped = _run("cache", "import", "--file", str(target), stdin=contents)
    assert piped.returncode == 1
    assert _contents(target)["entries"] == 0
