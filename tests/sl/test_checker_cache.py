"""Checker state isolation, formula keys and the predicate unfolding cache.

The contract under test: state a checker keeps across calls (the
predicate unfolding cache) never changes any result -- for every
(formula, model) pair, including alpha-variants of the same formula.
"""

from repro.sl.checker import ModelChecker
from repro.sl.exprs import Add, IntConst, Nil, Var, pure_conjuncts
from repro.sl.model import Heap, HeapCell, StackHeapModel
from repro.sl.parser import parse_formula
from repro.sl.predicates import canonical_unfold_key
from repro.sl.stdpreds import standard_predicates
from repro.telemetry.counters import CacheStats

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


class TestStructuralKey:
    def test_alpha_variants_collide(self):
        first = parse_formula("exists n. x -> SllNode{next: n} * sll(n)")
        second = parse_formula("exists q. x -> SllNode{next: q} * sll(q)")
        assert first.structural_key() == second.structural_key()

    def test_argument_order_distinguishes(self):
        first = parse_formula("exists a, b. lseg(a, b)")
        second = parse_formula("exists a, b. lseg(b, a)")
        assert first.structural_key() != second.structural_key()

    def test_free_variables_are_preserved(self):
        first = parse_formula("sll(x)")
        second = parse_formula("sll(y)")
        assert first.structural_key() != second.structural_key()


def _argument_shapes(arity: int) -> dict[str, list]:
    """Argument tuples of every shape the unfolding key distinguishes."""
    distinct = [Var(f"v{index}") for index in range(arity)]
    return {
        "distinct": distinct,
        "repeated": [Var("r")] * arity,
        "nil": [Nil()] + distinct[1:],
        "int": distinct[:-1] + [IntConst(7)],
        # A compound argument has no shape key: the uncached path.
        "compound": [Add(Var("c"), IntConst(1))] + distinct[1:],
    }


def _plain_goals(predicate, index, args):
    """The reference unfolding: ``PredCase.instantiate``, flattened."""
    body = predicate.cases[index].instantiate(predicate.params, args)
    return body.exists, list(body.spatial_atoms()), pure_conjuncts(body.pure)


def _renamed(goals, names):
    """Goals with their existentials renamed to ``names`` (same order)."""
    exists, atoms, conjuncts = goals
    mapping = {old: Var(new) for old, new in zip(exists, names)}
    return (
        tuple(names),
        [atom.substitute(mapping) for atom in atoms],
        [conjunct.substitute(mapping) for conjunct in conjuncts],
    )


class TestUnfoldCache:
    def test_instantiate_case_goals_matches_plain_instantiate(self):
        registry = standard_predicates()
        stats = CacheStats()
        compiled: set[tuple] = set()
        calls = uncached = 0
        for predicate in registry:
            for shape, args in _argument_shapes(predicate.arity).items():
                key = canonical_unfold_key(args)
                assert (key is None) == (shape == "compound")
                for index in range(len(predicate.cases)):
                    plain = _plain_goals(predicate, index, args)
                    for _ in range(2):  # the first call compiles, the second hits
                        goals = predicate.instantiate_case_goals(index, args, key, stats)
                        assert len(goals[0]) == len(plain[0])
                        assert _renamed(goals, plain[0]) == plain, (predicate.name, shape)
                        calls += 1
                    if key is None:
                        uncached += 2
                    else:
                        # Unary "distinct" and "repeated" share one shape.
                        compiled.add((predicate.name, index, key))
        # Every call is one lookup: one miss per compiled (case, shape) and
        # per uncached call, a hit otherwise.
        assert stats.unfold_misses == len(compiled) + uncached
        assert stats.unfold_hits == calls - stats.unfold_misses

    def test_two_unfoldings_never_share_existentials(self):
        sll = standard_predicates().get("sll")
        args = [Var("x")]
        key = canonical_unfold_key(args)
        first = sll.instantiate_case_goals(1, args, key, CacheStats())
        second = sll.instantiate_case_goals(1, args, key, CacheStats())
        assert first[0] and set(first[0]).isdisjoint(second[0])

    def test_registry_aggregates_stats(self):
        # Unfoldings of different predicates count into the one CacheStats
        # the caller passes; the registry keeps no counter of its own.
        registry = standard_predicates()
        stats = CacheStats()
        args = [Var("x")]
        key = canonical_unfold_key(args)
        registry.get("sll").instantiate_case_goals(0, args, key, stats)
        registry.get("sll").instantiate_case_goals(0, args, key, stats)
        registry.get("tree").instantiate_case_goals(0, args, key, stats)
        assert (stats.unfold_misses, stats.unfold_hits) == (2, 1)

    def test_checker_results_unchanged_with_unfold_cache_warm(self, checker):
        # The session-scoped checker shares a registry whose unfold caches
        # warm over the whole test session; results must stay exact.
        model = sll_model(4)
        result = checker.check(model, parse_formula("sll(x)"))
        assert result is not None and result.covers_everything()
