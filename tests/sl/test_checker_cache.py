"""Checker state isolation, formula keys and the predicate unfolding cache.

The contract under test: state a checker keeps across calls (learned
refuters, the predicate unfolding cache) never changes any result -- for
every (formula, model) pair, including alpha-variants of the same formula.
"""

from repro.sl.checker import ModelChecker, canonical_formula_key
from repro.sl.model import Heap, HeapCell, StackHeapModel
from repro.sl.parser import parse_formula
from repro.sl.stdpreds import standard_predicates

from tests.conftest import dll_model, sll_model


def _result_tuple(result):
    if result is None:
        return None
    return (result.residual.domain(), dict(result.instantiation), result.consumed)


class TestCheckerCacheCorrectness:
    def test_shadowed_existential_does_not_poison_alpha_variant(self):
        # ``n`` is both a stack variable and an existential: the search
        # resolves it against the stack (scoping quirk), so the formula is
        # NOT equivalent to its alpha-variant with a fresh name.  Whatever a
        # checker learned from one of them must not leak into the other.
        registry = standard_predicates()
        model = StackHeapModel(
            {"x": 1, "n": 2},
            Heap(
                {
                    1: HeapCell("SllNode", {"next": 5}),
                    5: HeapCell("SllNode", {"next": 0}),
                }
            ),
            {"x": "SllNode*", "n": "SllNode*"},
        )
        formulas = {
            "shadowed": parse_formula("exists n. x -> SllNode{next: n}"),
            "fresh": parse_formula("exists m. x -> SllNode{next: m}"),
        }
        expected = {
            name: _result_tuple(ModelChecker(registry).check(model, formula))
            for name, formula in formulas.items()
        }
        assert expected["shadowed"] is None
        assert expected["fresh"] is not None
        for order in (("shadowed", "fresh"), ("fresh", "shadowed")):
            checker = ModelChecker(registry)
            for name in order:
                assert _result_tuple(checker.check(model, formulas[name])) == expected[name], (
                    "shadow-sensitive formulas must be checked independently"
                )

    def test_distinct_models_do_not_collide(self):
        checker = ModelChecker(standard_predicates())
        formula = parse_formula("sll(x)")
        good = checker.check(sll_model(2), formula)
        bad = checker.check(dll_model(2), formula)
        assert good is not None and good.covers_everything()
        assert bad is None


class TestCanonicalFormulaKey:
    def test_alpha_variants_collide(self):
        first = parse_formula("exists n. x -> SllNode{next: n} * sll(n)")
        second = parse_formula("exists q. x -> SllNode{next: q} * sll(q)")
        assert canonical_formula_key(first) == canonical_formula_key(second)

    def test_argument_order_distinguishes(self):
        first = parse_formula("exists a, b. lseg(a, b)")
        second = parse_formula("exists a, b. lseg(b, a)")
        assert canonical_formula_key(first) != canonical_formula_key(second)

    def test_free_variables_are_preserved(self):
        first = parse_formula("sll(x)")
        second = parse_formula("sll(y)")
        assert canonical_formula_key(first) != canonical_formula_key(second)


class TestUnfoldCache:
    def test_instantiate_case_is_alpha_equivalent_to_plain_instantiate(self):
        registry = standard_predicates()
        dll = registry.get("dll")
        from repro.sl.exprs import Nil, Var

        args = [Var("hd"), Var("pr"), Var("tl"), Nil()]
        for index in range(len(dll.cases)):
            plain = dll.cases[index].instantiate(dll.params, args)
            for _ in range(3):  # first call fills, later calls hit
                cached = dll.instantiate_case(index, args)
                assert canonical_formula_key(cached) == canonical_formula_key(plain)
        info = dll.unfold_cache_info()
        assert info["hits"] >= 4
        assert info["entries"] >= 2

    def test_two_unfoldings_never_share_existentials(self):
        registry = standard_predicates()
        sll = registry.get("sll")
        from repro.sl.exprs import Var

        first = sll.instantiate_case(1, [Var("x")])
        second = sll.instantiate_case(1, [Var("x")])
        assert set(first.exists).isdisjoint(second.exists)

    def test_registry_aggregates_stats(self):
        registry = standard_predicates()
        from repro.sl.exprs import Var

        registry.get("sll").instantiate_case(0, [Var("x")])
        stats = registry.unfold_stats()
        assert stats["misses"] >= 1

    def test_checker_results_unchanged_with_unfold_cache_warm(self, checker):
        # The session-scoped checker shares a registry whose unfold caches
        # warm over the whole test session; results must stay exact.
        model = sll_model(4)
        result = checker.check(model, parse_formula("sll(x)"))
        assert result is not None and result.covers_everything()
