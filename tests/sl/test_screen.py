"""Candidate screening: case metadata, feasibility and the pre-filter.

The contract under test is soundness: screening may let a doomed candidate
through (the checker then refutes it), but whenever it *rejects* one, the
checker must agree -- either by refuting the candidate in some model or by
reducing it vacuously everywhere (both outcomes drop the candidate).
"""

import itertools

import pytest

from repro.sl import search as search_module
from repro.sl.checker import ModelChecker
from repro.sl.exprs import Nil, Var
from repro.sl.model import Heap, HeapCell, StackHeapModel
from repro.sl.screen import ModelFacts, candidate_refuted, case_feasible
from repro.sl.spatial import PredApp, SymHeap
from repro.sl.stdpreds import standard_predicates
from repro.telemetry.counters import CacheStats

from tests.conftest import dll_model, sll_model


@pytest.fixture(scope="module")
def registry():
    return standard_predicates()


class TestCaseScreens:
    def test_sll_screens(self, registry):
        base, recursive = registry.get("sll").case_screens()
        # Base case: x = nil, no allocation.
        assert base.eq_nil == (0,)
        assert base.pts == () and base.pt_total == 0
        # Recursive case: x -> SllNode{...} * sll(<local>).
        assert recursive.pt_total == 1
        assert len(recursive.pts) == 1 and recursive.pts[0].src == 0
        assert recursive.pts[0].type_name == "SllNode"
        assert recursive.calls and recursive.calls[0][0] == "sll"

    def test_lseg_recursive_call_maps_second_param(self, registry):
        base, recursive = registry.get("lseg").case_screens()
        # Base case equates the two parameters.
        assert (0, 1) in base.eq_pp or (1, 0) in base.eq_pp
        # Recursive call lseg(n, y): first arg is a local, second is param 1.
        (name, argmap) = recursive.calls[0]
        assert name == "lseg"
        assert argmap[0] is None
        assert argmap[1] == ("p", 1)

    def test_screens_are_cached(self, registry):
        predicate = registry.get("sll")
        assert predicate.case_screens() is predicate.case_screens()


class TestCaseFeasible:
    def test_recursive_case_needs_available_root(self, registry):
        model = sll_model(2)
        _, recursive = registry.get("sll").case_screens()
        heap_get = model.heap.get
        dom = model.heap.domain()
        assert case_feasible(recursive, (1,), heap_get, dom)
        # Address 99 is not allocated; the recursive case cannot fire.
        assert not case_feasible(recursive, (99,), heap_get, dom)
        # A consumed (unavailable) root cannot anchor the points-to either.
        assert not case_feasible(recursive, (1,), heap_get, dom - {1})

    def test_base_case_equalities(self, registry):
        model = sll_model(2)
        base, _ = registry.get("sll").case_screens()
        heap_get = model.heap.get
        dom = model.heap.domain()
        assert case_feasible(base, (0,), heap_get, dom)
        assert not case_feasible(base, (7,), heap_get, dom)
        # Unknown values never refute.
        assert case_feasible(base, (None,), heap_get, dom)

    def test_wrong_cell_type_refutes(self, registry):
        model = dll_model(2)  # DllNode cells
        _, recursive = registry.get("sll").case_screens()
        assert not case_feasible(
            recursive, (1,), model.heap.get, model.heap.domain()
        )


class TestPrefilterSoundness:
    """Exhaustive agreement check between the pre-filter and the checker."""

    @pytest.mark.parametrize("size", [0, 1, 3])
    def test_never_rejects_a_kept_candidate(self, registry, size):
        checker = ModelChecker(registry)
        models = [sll_model(size), sll_model(max(size - 1, 0)), dll_model(size)]
        facts = [ModelFacts(model) for model in models]
        names = ["x", "nil", "u9"]  # boundary var, nil, fresh existential
        fresh = {"u9"}
        tested = 0
        for predicate in registry:
            if predicate.arity > 3:
                continue
            for combo in itertools.product(names, repeat=predicate.arity):
                if "x" not in combo:
                    continue
                used_fresh = tuple(name for name in combo if name in fresh)
                formula = SymHeap(
                    exists=used_fresh,
                    spatial=PredApp(
                        predicate.name,
                        [Nil() if name == "nil" else Var(name) for name in combo],
                    ),
                )
                refuted = candidate_refuted(predicate, combo, fresh, facts, registry)
                if not refuted:
                    continue
                tested += 1
                check = checker.check_all(models, formula)
                kept = check is not None and any(result.consumed for result in check)
                assert not kept, (
                    f"pre-filter wrongly rejected {predicate.name}({', '.join(combo)})"
                )
        assert tested > 0  # the filter actually fired on something


class TestModelFacts:
    def test_argument_values(self):
        facts = ModelFacts(sll_model(2))
        assert facts.argument_values(("x", "nil", "u1"), {"u1"}) == (1, 0, None)
        # A non-fresh name missing from the stack refutes outright.
        assert facts.argument_values(("ghost",), set()) is None


class TestCheckerStats:
    def test_screen_counters_are_checker_stats_fields(self):
        # The screening, batching and kernel counters live in the checker's
        # CacheStats, the one struct that declares every counter.
        stats = ModelChecker(standard_predicates()).stats
        assert isinstance(stats, CacheStats)
        assert set(stats.as_dict()) >= {
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
            "canonical_stream_hits",
        }


class TestFailFastEquivalence:
    """Fail-fast ordering and case pruning never change a check_all outcome."""

    @pytest.mark.parametrize("size", [0, 2, 4])
    def test_check_all_agrees_with_reference(self, registry, size, monkeypatch):
        models = [sll_model(size), sll_model(size + 1), sll_model(max(size - 1, 0))]
        formulas = [
            SymHeap(spatial=PredApp("sll", [Var("x")])),
            SymHeap(exists=("u1",), spatial=PredApp("lseg", [Var("x"), Var("u1")])),
            SymHeap(spatial=PredApp("lseg", [Var("x"), Nil()])),
            SymHeap(exists=("p", "t", "n"), spatial=PredApp("dll", [Var("x"), Var("p"), Var("t"), Var("n")])),
        ]
        fast = ModelChecker(registry)
        actuals = [fast.check_all(models, formula) for formula in formulas]
        # The reference checks every model on its own, in input order, with
        # case screening switched off.
        monkeypatch.setattr(search_module, "case_feasible", lambda *args: True)
        slow = ModelChecker(registry)
        for formula, actual in zip(formulas, actuals):
            expected = [slow.check(model, formula) for model in models]
            if any(result is None for result in expected):
                assert actual is None
            else:
                assert actual is not None
                assert [r.consumed for r in actual] == [r.consumed for r in expected]
                assert [r.instantiation for r in actual] == [
                    r.instantiation for r in expected
                ]
        assert fast.stats.pruned_cases > 0
        assert slow.stats.pruned_cases == 0
