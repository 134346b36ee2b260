"""Smoke tests for the ``repro`` CLI (``python -m repro ...``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]


def _run(*args: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
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


#: Per-program counters of the skeleton work the batch's stream pool saves.
#: With ``--jobs 2`` they depend on which earlier jobs shared each worker's
#: pool, so only sequential runs reproduce them exactly.
POOL_DEPENDENT = (
    "skeletons_solved",
    "stream_pool_hits",
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
    # A parallel run agrees on the stream-memo misses, whether solved or
    # served by a pool.
    misses = [
        [
            program["skeletons_solved"] + program["stream_pool_hits"]
            for row in data["rows"]
            for program in row["programs"]
        ]
        for data in (parallel, sequential)
    ]
    assert misses[0] == misses[1]
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
