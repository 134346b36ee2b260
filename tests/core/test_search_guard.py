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
import os
from pathlib import Path

import pytest

from repro.benchsuite.registry import get_benchmark
from repro.core.sling import Sling, SlingConfig

BASELINE_PATH = Path(__file__).parent.parent / "data" / "search_guard_baseline.json"

#: The fixed guard workload (benchmark names, all run with seed 0).
WORKLOAD = ("sll/insertFront", "sll/reverse", "dll/append", "dll/concat")

#: Escape hatch someone will eventually reach for: point this env var at a
#: cache file to run the guard workload with the disk tier on.  The guard
#: then fails -- deliberately, see ``run_workload``.
CACHE_ENV_VAR = "REPRO_SEARCH_GUARD_CACHE"


@pytest.fixture(scope="module")
def baseline():
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        data = json.load(handle)
    return {name: counters for name, counters in data.items() if not name.startswith("_")}


def run_workload(name: str) -> dict[str, int]:
    benchmark = get_benchmark(name)
    config = SlingConfig(
        discard_crashed_runs=True,
        persistent_cache=os.environ.get(CACHE_ENV_VAR) or None,
    )
    sling = Sling(benchmark.program, benchmark.predicates, config)
    sling.infer_function(benchmark.function, benchmark.test_cases(0))
    stats = sling.cache_stats()
    if "counter_semantics" in stats:
        # The pinned baselines only mean anything cache-off: a stream served
        # from disk counts neither ``skeletons_solved`` nor
        # ``env_stream_reuses`` (see docs/performance.md), so every exact
        # pin below would "drift" for reasons that have nothing to do with
        # the screening pipeline.  Fail loudly instead of mysteriously.
        pytest.fail(
            f"search-guard workload ran with the persistent cache on "
            f"({CACHE_ENV_VAR} is set): disk-served streams count neither "
            "skeletons_solved nor env_stream_reuses, so the pinned baselines "
            "in tests/data/search_guard_baseline.json are not comparable. "
            "Unset the variable to run the guard."
        )
    return stats


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
            "iso_classes",
            "models_deduped",
            "canonical_stream_hits",
            "iso_exact_fallbacks",
            # The columnar-kernel shape is deterministic too: invocations,
            # index-resolved variants and pin-free scan fallbacks per
            # workload only move when the grouping or the kernel's
            # resolution strategy changes.
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
        for key in (
            "checker_misses",
            "unfold_hits",
            "unfold_misses",
            "atom_cache_hits",
            "atom_cache_misses",
            "candidates_generated",
            "candidates_prefiltered",
            "candidates_checked",
            "refuted_by_first_model",
            "pruned_cases",
            "max_trail_depth",
            "candidate_groups",
            "skeletons_solved",
            "env_stream_reuses",
            "pure_variant_evals",
            "batch_exact_fallbacks",
            "kernel_groups",
            "stream_index_hits",
            "kernel_scan_fallbacks",
            "iso_classes",
            "models_deduped",
            "canonical_stream_hits",
            "iso_exact_fallbacks",
            "disk_hits",
            "disk_misses",
            "disk_evictions",
            "cache_file_bytes",
            "disk_load_errors",
            "jobs_retried",
            "workers_respawned",
            "jobs_poisoned",
            "pool_rebuilds",
            "degraded_sequential",
            "faults_injected",
            "serve_requests",
            "serve_queue_high_water",
            "serve_rejections",
            "serve_deadline_expiries",
            "serve_client_disconnects",
            "serve_requests_resumed",
        ):
            assert key in stats, f"cache_stats() lost the {key!r} counter"


class TestScreeningNeverChangesResults:
    """The whole fast path is a pure optimisation of the reference search."""

    @pytest.mark.parametrize("name", ("sll/reverse", "dll/append"))
    def test_invariants_identical_with_screening_off(self, name):
        benchmark = get_benchmark(name)

        def invariants(config: SlingConfig) -> list[str]:
            sling = Sling(benchmark.program, benchmark.predicates, config)
            spec = sling.infer_function(benchmark.function, benchmark.test_cases(0))
            return [invariant.pretty() for invariant in spec.all_invariants()]

        screened = invariants(SlingConfig(discard_crashed_runs=True))
        unscreened = invariants(
            SlingConfig(discard_crashed_runs=True, reference_search=True)
        )
        assert screened == unscreened


class TestGuardRefusesPersistentCache:
    """The guard must refuse to run against a disk tier, pointedly."""

    def test_cache_env_var_fails_with_pointed_message(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "guard.sqlite"))
        with pytest.raises(pytest.fail.Exception) as excinfo:
            run_workload("sll/insertFront")
        message = str(excinfo.value)
        assert "skeletons_solved" in message
        assert "env_stream_reuses" in message
        assert CACHE_ENV_VAR in message


class TestNocacheSweepDisablesPersistentCache:
    """The bench's reference-search fingerprint baseline must not read or
    write a persistent cache either -- warm state leaking into the reference
    sweep would make the identity assertion vacuous."""

    def test_nocache_sweep_config_has_no_persistent_cache(self):
        from repro.core.engine import nocache_sweep_config

        config = nocache_sweep_config()
        assert config.persistent_cache is None
        assert config.reference_search is True
