"""Unit tests for inductive predicate definitions and the registry."""

import pytest

from repro.cache.fingerprint import registry_fingerprint
from repro.sl.errors import SLError, UnknownPredicateError
from repro.sl.exprs import Nil, Var
from repro.sl.predicates import (
    InductivePredicate,
    PredCase,
    PredicateRegistry,
    canonical_unfold_key,
    predicate_complexity,
)
from repro.sl.spatial import PredApp, SymHeap
from repro.sl.stdpreds import STRUCT_FIELDS, predicates_for, standard_predicates
from repro.telemetry.counters import CacheStats


class TestInductivePredicate:
    def test_unfold_substitutes_arguments(self, predicates):
        dll = predicates.get("dll")
        args = [Var("a"), Nil(), Var("t"), Nil()]
        cases = [case.instantiate(dll.params, args) for case in dll.cases]
        assert len(cases) == 2
        # The recursive case mentions the actual argument a as the source.
        recursive = cases[1]
        assert "a" in recursive.free_vars()

    def test_arity_mismatch_raises(self, predicates):
        with pytest.raises(SLError):
            predicates.get("sll").apply(["x", "y"])

    def test_apply_builds_application(self, predicates):
        app = predicates.get("lseg").apply(["x", "y"])
        assert isinstance(app, PredApp)
        assert app.args == (Var("x"), Var("y"))

    def test_root_types_and_complexity(self, predicates):
        dll = predicates.get("dll")
        assert dll.root_types() == {"DllNode"}
        metrics = predicate_complexity(dll)
        assert metrics == {"params": 4, "singletons": 1, "inductives": 1}

    def test_param_type_count_checked(self):
        with pytest.raises(SLError):
            InductivePredicate("p", ["a", "b"], [PredCase(SymHeap())], ["T*"])


class TestRegistry:
    def test_lookup_and_membership(self, predicates):
        assert "sll" in predicates
        assert predicates.get("sll").name == "sll"
        with pytest.raises(UnknownPredicateError):
            predicates.get("nosuch")

    def test_subset_pulls_dependencies(self):
        registry = predicates_for("cll")
        # cll refers to clseg, which must be pulled in transitively.
        assert "cll" in registry and "clseg" in registry
        assert "dll" not in registry

    def test_candidates_for_type_filters(self, predicates):
        names = {p.name for p in predicates.candidates_for_type("DllNode*")}
        assert "dll" in names
        assert "sll" not in names

    def test_candidates_for_unknown_type_returns_all(self, predicates):
        assert len(predicates.candidates_for_type(None)) == len(predicates)

    def test_merged_with(self):
        left = predicates_for("sll")
        right = predicates_for("tree")
        merged = left.merged_with(right)
        assert "sll" in merged and "tree" in merged

    def test_fingerprint_is_cached_until_the_next_add(self):
        registry = predicates_for("sll")
        fingerprint = registry_fingerprint(registry)
        assert registry.fingerprint == fingerprint
        assert registry_fingerprint(registry) is fingerprint
        registry.add(predicates_for("tree").get("tree"))
        assert registry.fingerprint is None
        grown = registry_fingerprint(registry)
        assert grown != fingerprint
        assert grown == registry_fingerprint(predicates_for("sll").merged_with(predicates_for("tree")))

    def test_library_registries_share_cases_but_no_predicate(self):
        # The library is parsed once; each registry wraps the shared,
        # immutable cases in its own predicates, so unfold memos and
        # counters never leak from one registry into another.
        first = predicates_for("dll")
        second = predicates_for("dll")
        full = standard_predicates()
        ids = [{id(predicate) for predicate in registry} for registry in (first, second, full)]
        assert not ids[0] & ids[1] and not ids[0] & ids[2] and not ids[1] & ids[2]
        pairs = zip(first.get("dll").cases, second.get("dll").cases)
        assert all(ours is theirs for ours, theirs in pairs)

        args = [Var("a"), Nil(), Var("t"), Nil()]
        key = canonical_unfold_key(args)

        def unfold_twice(registry) -> CacheStats:
            stats = CacheStats()
            dll = registry.get("dll")
            for _ in range(2):
                for index in range(len(dll.cases)):
                    dll.instantiate_case_goals(index, args, key, stats)
            return stats

        # Each registry compiles its own templates once, then hits them.
        for registry in (first, second, full):
            stats = unfold_twice(registry)
            assert (stats.unfold_misses, stats.unfold_hits) == (2, 2)

    def test_struct_fields_match_standard_predicates(self, predicates, structs):
        # Every structure type dereferenced by a standard predicate must
        # exist in the heaplang struct registry with the same field count.
        for predicate in predicates:
            for case in predicate.cases:
                for atom in case.body.spatial_atoms():
                    from repro.sl.spatial import PointsTo

                    if isinstance(atom, PointsTo):
                        assert atom.type_name in STRUCT_FIELDS
                        assert len(atom.args) == len(STRUCT_FIELDS[atom.type_name])
                        assert atom.type_name in structs
                        assert len(structs.get(atom.type_name).fields) == len(atom.args)
