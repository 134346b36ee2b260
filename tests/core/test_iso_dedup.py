"""Isomorphism-deduplicated inference: bit-identical to the reference search.

``Sling.infer_from_models`` on the fast path collapses the location's models
into canonical-form classes and runs Algorithm 2 on one representative per
class; these tests drive it with hand-built renamed model copies (where
deduplication provably fires) and assert the inferred invariants are exactly
those of the reference search, which checks every model itself.
"""

from __future__ import annotations

import pytest

from repro.benchsuite.registry import get_benchmark
from repro.core.engine import warm_worker_state
from repro.core.sling import Sling, SlingConfig
from repro.sl.model import Heap, HeapCell, StackHeapModel


def _sll_model(base: int, size: int, extra: int = 0) -> StackHeapModel:
    cells = {
        base + index: HeapCell(
            "SllNode", {"next": base + index + 1 if index + 1 < size else 0}
        )
        for index in range(size)
    }
    return StackHeapModel(
        {"x": base if size else 0, "y": extra},
        Heap(cells),
        {"x": "SllNode*", "y": "SllNode*"},
    )


@pytest.fixture(scope="module")
def sll_benchmark():
    return get_benchmark("sll/insertFront")


def _infer(benchmark, models, dedupe: bool):
    sling = Sling(
        benchmark.program,
        benchmark.predicates,
        SlingConfig(discard_crashed_runs=True, reference_search=not dedupe),
    )
    invariants = sling.infer_from_models(models, location="entry")
    return [invariant.pretty() for invariant in invariants], sling


class TestIsoDedupEquivalence:
    def test_renamed_copies_collapse_and_match(self, sll_benchmark):
        # Three isomorphism classes presented as five models: sizes 2, 3 and
        # 3 again under two different address layouts, plus a renamed copy
        # of the size-2 model.
        models = [
            _sll_model(1, 2),
            _sll_model(1, 3),
            _sll_model(700, 3),
            _sll_model(40, 2),
            _sll_model(1, 4),
        ]
        with_dedup, sling = _infer(sll_benchmark, models, dedupe=True)
        without, _ = _infer(sll_benchmark, models, dedupe=False)
        assert with_dedup == without
        assert sling.models_deduped == 2
        assert sling.iso_classes == 3
        assert sling.iso_exact_fallbacks == 0

    def test_full_function_inference_matches(self, sll_benchmark):
        def spec(dedupe: bool):
            sling = Sling(
                sll_benchmark.program,
                sll_benchmark.predicates,
                SlingConfig(discard_crashed_runs=True, reference_search=not dedupe),
            )
            result = sling.infer_function(
                sll_benchmark.function, sll_benchmark.test_cases(0)
            )
            return [invariant.pretty() for invariant in result.all_invariants()]

        assert spec(True) == spec(False)

    def test_counters_surface_in_cache_stats(self, sll_benchmark):
        models = [_sll_model(1, 2), _sll_model(90, 2)]
        _, sling = _infer(sll_benchmark, models, dedupe=True)
        stats = sling.cache_stats()
        assert stats["iso_classes"] >= 1
        assert stats["models_deduped"] >= 1
        assert stats["iso_exact_fallbacks"] == 0


class TestAmbiguityFallback:
    """Order-dependent checker selections must disable replay for the location."""

    def test_truncated_enumeration_forces_per_model_path(self, sll_benchmark):
        models = [_sll_model(1, 3), _sll_model(600, 3)]

        def infer(dedupe: bool):
            sling = Sling(
                sll_benchmark.program,
                sll_benchmark.predicates,
                SlingConfig(discard_crashed_runs=True, reference_search=not dedupe),
            )
            # A solution cap of 1 makes every multi-solution selection
            # enumeration-order dependent -- exactly what must not be
            # replayed through a bijection.
            sling.checker.max_solutions = 1
            invariants = sling.infer_from_models(models, location="entry")
            return [invariant.pretty() for invariant in invariants], sling

        with_dedup, sling = infer(True)
        without, _ = infer(False)
        assert with_dedup == without
        assert sling.checker.screen_stats.exact_selection_ambiguities > 0
        assert sling.iso_exact_fallbacks >= 1


class TestWarmPool:
    def test_warm_worker_state_reports_inherited_state(self):
        report = warm_worker_state()
        assert report["predicate_case_screens"] > 0
        # This process has canonicalized models in the tests above (module
        # order is not guaranteed, so only assert the key is present).
        assert "interned_canonical_forms" in report
