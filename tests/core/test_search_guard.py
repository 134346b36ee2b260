"""Deterministic search-space guard for the candidate-screening pipeline.

Timing-based performance tests flake; candidate counts do not.  Inference
is deterministic per (benchmark, seed, config), so the number of Algorithm 2
candidates that reach the model checker on a fixed sll/dll workload is an
exact, machine-independent measure of the search space.  The committed
baseline (``tests/data/search_guard_baseline.json``) pins it: a regression
in the pre-filter, the case screens or the fail-fast ordering shows up here
as a counter increase long before it shows up in wall time.
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.benchsuite.registry import get_benchmark
from repro.core.sling import Sling, SlingConfig
from repro.telemetry.counters import CacheStats

BASELINE_PATH = Path(__file__).parent.parent / "data" / "search_guard_baseline.json"

#: The fixed guard workload (benchmark names, all run with seed 0).
WORKLOAD = ("sll/insertFront", "sll/reverse", "dll/append", "dll/concat")


@pytest.fixture(scope="module")
def baseline():
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        data = json.load(handle)
    return {name: counters for name, counters in data.items() if not name.startswith("_")}


def run_workload(name: str) -> dict[str, int]:
    benchmark = get_benchmark(name)
    config = SlingConfig(discard_crashed_runs=True)
    sling = Sling(benchmark.program, benchmark.predicates, config)
    sling.infer_function(benchmark.function, benchmark.test_cases(0))
    return sling.cache_stats()


class TestSearchSpaceGuard:
    @pytest.mark.parametrize("name", WORKLOAD)
    def test_candidates_checked_does_not_regress(self, baseline, name):
        stats = run_workload(name)
        recorded = baseline[name]
        assert stats["candidates_checked"] <= recorded["candidates_checked"], (
            f"{name}: candidates checked grew from "
            f"{recorded['candidates_checked']} to {stats['candidates_checked']} -- "
            "the screening pipeline lets more candidates through than the "
            "recorded baseline (see tests/data/search_guard_baseline.json)"
        )

    @pytest.mark.parametrize("name", WORKLOAD)
    def test_group_and_skeleton_counts_are_pinned(self, baseline, name):
        """The skeleton-batching layout is deterministic and exactly pinned.

        ``candidate_groups`` measures how well the candidate lattice
        collapses onto spatial skeletons, ``skeletons_solved`` how many
        shared searches actually ran and ``env_stream_reuses`` how often the
        stream memo served one for free.  A drift in any of them means the
        grouping or the stream memo keying changed -- deliberate changes
        must regenerate the baseline and say why.
        """
        stats = run_workload(name)
        recorded = baseline[name]
        for key in (
            "candidate_groups",
            "skeletons_solved",
            "env_stream_reuses",
            "canonical_stream_hits",
            # The columnar-kernel shape is deterministic too: invocations,
            # index-resolved variants and full scans run for pin-free
            # variants per workload only move when the grouping or the
            # kernel's resolution strategy changes.
            "kernel_groups",
            "stream_index_hits",
            "kernel_scan_fallbacks",
            # Pinned at zero: the persistent cache tier must be provably
            # inert for default (cache-off) runs.
            "disk_hits",
            "disk_misses",
            "disk_evictions",
            "cache_file_bytes",
            "disk_load_errors",
            # Pinned at zero: the fault-injection subsystem (repro.faults)
            # must be provably inert for default (fault_plan=None) runs.
            "jobs_retried",
            "workers_respawned",
            "jobs_poisoned",
            "pool_rebuilds",
            "degraded_sequential",
            "faults_injected",
            # Pinned at zero: the serving layer (repro.serve) must be
            # provably inert for one-shot (non-daemon) runs.
            "serve_requests",
            "serve_queue_high_water",
            "serve_rejections",
            "serve_deadline_expiries",
            "serve_client_disconnects",
            "serve_requests_resumed",
        ):
            assert stats[key] == recorded[key], (
                f"{name}: {key} changed from {recorded[key]} to {stats[key]} "
                "(see tests/data/search_guard_baseline.json)"
            )

    @pytest.mark.parametrize("name", WORKLOAD)
    def test_prefilter_fires(self, baseline, name):
        stats = run_workload(name)
        assert stats["candidates_prefiltered"] > 0
        assert (
            stats["candidates_generated"]
            == stats["candidates_prefiltered"] + stats["candidates_checked"]
        )

    def test_counters_exposed_in_cache_stats(self):
        stats = run_workload("sll/insertFront")
        for spec in fields(CacheStats):
            assert spec.name in stats, f"cache_stats() lost the {spec.name!r} counter"


class TestScreeningNeverChangesResults:
    """The whole fast path is a pure optimisation of the reference search."""

    @pytest.mark.parametrize("name", WORKLOAD)
    def test_invariants_identical_with_screening_off(self, name):
        benchmark = get_benchmark(name)

        def run(config: SlingConfig) -> tuple[list[str], dict]:
            sling = Sling(benchmark.program, benchmark.predicates, config)
            spec = sling.infer_function(benchmark.function, benchmark.test_cases(0))
            invariants = [invariant.pretty() for invariant in spec.all_invariants()]
            return invariants, sling.cache_stats()

        fast, fast_stats = run(SlingConfig(discard_crashed_runs=True))
        reference, reference_stats = run(
            SlingConfig(discard_crashed_runs=True, reference_search=True)
        )
        assert fast == reference
        # The work counts stand in for a wall-time ratio: the pre-filter
        # sends fewer candidates to the checker, and skeleton batching
        # replaces most exact per-candidate checks.
        for key in ("candidates_checked", "checker_misses"):
            assert fast_stats[key] < reference_stats[key], (
                f"{name}: fast path {key} {fast_stats[key]} is not below the "
                f"reference search's {reference_stats[key]}"
            )
