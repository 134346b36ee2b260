"""Unit tests for the SLING core: SplitHeap, InferAtom, InferPure, validation
and the Algorithm 1 driver."""

import pytest

from repro.core.boundary import split_heap
from repro.core import infer_atom
from repro.core.infer_atom import infer_atoms
from repro.core.infer_pure import infer_pure_equalities
from repro.core.results import Invariant
from repro.core.sling import Sling, SlingConfig
from repro.sl.checker import ModelChecker
from repro.sl.exprs import Eq
from repro.sl.model import Heap, HeapCell, StackHeapModel
from repro.sl.parser import parse_formula
from repro.sl.spatial import PointsTo, PredApp
from repro.sl.stdpreds import predicates_for

from tests.conftest import dll_model, sll_model


class TestSplitHeap:
    def test_whole_list_reachable_from_root(self, structs):
        model = sll_model(3)
        result = split_heap([model], "x", structs)
        assert result.sub_models[0].heap.domain() == {1, 2, 3}
        assert result.rest_models[0].heap.is_empty()
        assert "x" in result.boundary and "nil" in result.boundary

    def test_traversal_stops_at_other_stack_variables(self, structs):
        model = dll_model(3, extra_stack={"tmp": 2})
        result = split_heap([model], "x", structs)
        # The sub-heap of x stops at the cell tmp points to.
        assert result.sub_models[0].heap.domain() == {1}
        assert result.rest_models[0].heap.domain() == {2, 3}
        assert "tmp" in result.boundary

    def test_aliases_do_not_stop_traversal(self, structs):
        model = dll_model(3, extra_stack={"res": 1})
        result = split_heap([model], "x", structs)
        assert result.sub_models[0].heap.domain() == {1, 2, 3}
        assert "res" in result.boundary  # alias of the root

    def test_nil_root(self, structs):
        model = dll_model(0)
        result = split_heap([model], "x", structs)
        assert result.sub_models[0].heap.is_empty()
        assert "nil" in result.boundary

    def test_common_boundary_is_intersection(self, structs):
        with_tmp = dll_model(3, extra_stack={"tmp": 2})
        without_tmp = dll_model(2)
        result = split_heap([with_tmp, without_tmp], "x", structs)
        assert "tmp" not in result.boundary
        assert "x" in result.boundary

    def test_boundary_order_starts_with_root(self, structs):
        model = dll_model(3, extra_stack={"tmp": 2, "res": 1})
        result = split_heap([model], "x", structs)
        assert result.boundary[0] == "x"


class TestInferAtom:
    @pytest.fixture()
    def dll_checker(self):
        return ModelChecker(predicates_for("dll"))

    def test_infers_dll_for_full_list(self, dll_checker, structs):
        models = [dll_model(3), dll_model(1)]
        split = split_heap(models, "x", structs)
        results = infer_atoms(
            "x", list(split.sub_models), split.boundary, dll_checker.registry, dll_checker, structs
        )
        predicate_atoms = [r for r in results if isinstance(r.atom, PredApp)]
        assert predicate_atoms, "expected at least one inductive predicate result"
        best = predicate_atoms[0]
        assert best.atom.name == "dll"
        assert best.covers_everything()

    def test_singleton_when_single_cell(self, structs):
        checker = ModelChecker(predicates_for("sll"))
        model = StackHeapModel(
            {"x": 1, "y": 2},
            Heap({1: HeapCell("SllNode", {"next": 2}), 2: HeapCell("SllNode", {"next": 0})}),
            {"x": "SllNode*", "y": "SllNode*"},
        )
        split = split_heap([model], "x", structs)
        assert split.sub_models[0].heap.domain() == {1}
        results = infer_atoms(
            "x", list(split.sub_models), split.boundary, checker.registry, checker, structs
        )
        assert any(
            isinstance(r.atom, PointsTo) and r.atom.source.name == "x" for r in results
        )

    def test_emp_fallback_when_nothing_matches(self, structs):
        checker = ModelChecker(predicates_for("tree"))  # no list predicates available
        models = [sll_model(2)]
        split = split_heap(models, "x", structs)
        results = infer_atoms(
            "x", list(split.sub_models), split.boundary, checker.registry, checker, structs
        )
        assert len(results) == 1
        assert results[0].is_emp
        assert results[0].residual_models[0].heap.domain() == {1, 2}

    def test_result_cap_respected(self, dll_checker, structs, monkeypatch):
        models = [dll_model(4, extra_stack={"tmp": 3, "res": 1})]
        split = split_heap(models, "x", structs)
        monkeypatch.setattr(infer_atom, "MAX_RESULTS", 2)
        results = infer_atoms(
            "x", list(split.sub_models), split.boundary, dll_checker.registry, dll_checker, structs
        )
        assert len(results) <= 2

    def test_type_inconsistent_arguments_rejected(self, structs):
        # sll takes an SllNode*; a DllNode* root must not produce sll atoms.
        checker = ModelChecker(predicates_for("sll", "dll"))
        models = [dll_model(2)]
        split = split_heap(models, "x", structs)
        results = infer_atoms(
            "x", list(split.sub_models), split.boundary, checker.registry, checker, structs
        )
        assert all(not (isinstance(r.atom, PredApp) and r.atom.name == "sll") for r in results)


class TestInferPure:
    def test_res_equality_found(self):
        models = [
            StackHeapModel({"x": 1, "res": 1}, Heap({1: HeapCell("SllNode", {"next": 0})})),
            StackHeapModel({"x": 5, "res": 5}, Heap({5: HeapCell("SllNode", {"next": 0})})),
        ]
        equalities = infer_pure_equalities(models, [{}, {}])
        assert any(
            isinstance(eq, Eq) and {getattr(eq.left, "name", None), getattr(eq.right, "name", None)} == {"x", "res"}
            for eq in equalities
        )

    def test_nil_equality_found(self):
        models = [StackHeapModel({"x": 0, "res": 0}, Heap())]
        equalities = infer_pure_equalities(models, [{}])
        rendered = {frozenset({getattr(e.left, "name", "nil"), getattr(e.right, "name", "nil")}) for e in equalities}
        assert frozenset({"x", "nil"}) in rendered

    def test_existential_instantiations_used(self):
        models = [
            StackHeapModel({"x": 1}, Heap({1: HeapCell("SllNode", {"next": 0})})),
            StackHeapModel({"x": 7}, Heap({7: HeapCell("SllNode", {"next": 0})})),
        ]
        equalities = infer_pure_equalities(models, [{"u1": 1}, {"u1": 7}])
        assert any(
            {getattr(e.left, "name", None), getattr(e.right, "name", None)} == {"x", "u1"}
            for e in equalities
        )

    def test_no_equality_on_differing_values(self):
        models = [
            StackHeapModel({"x": 1, "y": 2}, Heap({1: HeapCell("SllNode", {"next": 0}), 2: HeapCell("SllNode", {"next": 0})})),
        ]
        equalities = infer_pure_equalities(models, [{}])
        assert not any(
            {getattr(e.left, "name", None), getattr(e.right, "name", None)} == {"x", "y"}
            for e in equalities
        )

    def test_data_values_are_not_related(self):
        # Values that are not heap addresses are excluded (the paper only
        # relates memory addresses).
        models = [StackHeapModel({"n": 42, "m": 42}, Heap())]
        equalities = infer_pure_equalities(models, [{}], stack_vars=["n", "m"])
        assert not equalities


class TestSlingDriver:
    def test_infer_at_entry_produces_dll_precondition(self, concat_program, concat_tests):
        sling = Sling(concat_program, predicates_for("dll"))
        invariants = sling.infer_at("concat", "entry", concat_tests)
        assert invariants
        assert any("dll(x" in inv.pretty() for inv in invariants)
        assert any("dll(y" in inv.pretty() for inv in invariants)

    def test_specification_matches_paper_shape(self, concat_program, concat_tests):
        sling = Sling(concat_program, predicates_for("dll"))
        spec = sling.infer_function("concat", concat_tests)
        assert spec.validated
        assert spec.preconditions
        # ret#0 is the x == NULL branch: the result is y and x is nil.
        ret0 = [inv.pretty() for inv in spec.postconditions["ret#0"]]
        assert any("x = nil" in text for text in ret0)
        assert any("y = res" in text or "res = y" in text for text in ret0)
        # ret#1 returns x.
        ret1 = [inv.pretty() for inv in spec.postconditions["ret#1"]]
        assert any("x = res" in text or "res = x" in text for text in ret1)

    def test_postconditions_quantify_locals(self, concat_program, concat_tests):
        sling = Sling(concat_program, predicates_for("dll"))
        spec = sling.infer_function("concat", concat_tests)
        for invariant in spec.postconditions["ret#1"]:
            assert "tmp" not in invariant.formula.free_vars()

    def test_variable_order_strategies(self, concat_program, concat_tests):
        for strategy in ("reachability", "stack", "reverse"):
            config = SlingConfig(variable_order=strategy)
            sling = Sling(concat_program, predicates_for("dll"), config)
            spec = sling.infer_function("concat", concat_tests)
            assert spec.invariant_count() > 0

    def test_no_models_yields_no_invariants(self, concat_program):
        sling = Sling(concat_program, predicates_for("dll"))
        assert sling.infer_from_models([]) == []

    def test_invariant_metrics(self):
        formula = parse_formula("exists u1. dll(x, u1, u1, nil) * y -> DllNode(nil, nil) & x = res")
        invariant = Invariant(location="entry", formula=formula)
        assert invariant.predicate_count() == 1
        assert invariant.singleton_count() == 1
        assert invariant.pure_count() == 1
        assert invariant.is_useful()

    def test_discard_crashed_runs(self, structs):
        from repro.lang import Function, Program, Return
        from repro.lang.builder import field as f, v as var

        crash = Function("crash", [("x", "SllNode*")], "int", [Return(f("x", "next"))])
        program = Program(structs, [crash])
        config = SlingConfig(discard_crashed_runs=True)
        sling = Sling(program, predicates_for("sll"), config)
        traces = sling.collect("crash", [lambda heap: [0]])
        assert traces.total_models() == 0

    def test_the_default_config_discards_crashed_runs(self, structs):
        from repro.lang import Function, Program, Return
        from repro.lang.builder import field as f

        crash = Function("crash", [("x", "SllNode*")], "int", [Return(f("x", "next"))])
        program = Program(structs, [crash])
        cases = [lambda heap: [0]]
        default = Sling(program, predicates_for("sll"), SlingConfig())
        assert default.collect("crash", cases).total_models() == 0
        kept = Sling(program, predicates_for("sll"), SlingConfig(discard_crashed_runs=False))
        assert kept.collect("crash", cases).total_models() == 1


class TestValidation:
    def test_frame_rule_accepts_consistent_spec(self, concat_program, concat_tests, checker):
        from repro.core.validate import paired_entry_exit_models, validate_specification

        sling = Sling(concat_program, predicates_for("dll"))
        traces = sling.collect("concat", concat_tests)
        spec = sling.infer_function("concat", concat_tests)
        pairs = paired_entry_exit_models(traces, "concat", "ret#1")
        assert pairs
        assert validate_specification(
            spec.preconditions[0], spec.postconditions["ret#1"][0], pairs, sling.checker
        )

    def test_frame_rule_rejects_wrong_postcondition(self, concat_program, concat_tests):
        from repro.core.validate import paired_entry_exit_models, validate_specification

        sling = Sling(concat_program, predicates_for("dll"))
        traces = sling.collect("concat", concat_tests)
        spec = sling.infer_function("concat", concat_tests)
        pairs = paired_entry_exit_models(traces, "concat", "ret#1")
        bogus_post = Invariant(location="ret#1", formula=parse_formula("emp & x = y"))
        assert not validate_specification(spec.preconditions[0], bogus_post, pairs, sling.checker)
