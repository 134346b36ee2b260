"""The search's deferred-constraint bound fixpoint (``discharge_deferred``).

These constraints are the pure goals left over once the spatial search has
finished: inequalities and equalities over existential variables the heap
never pinned down (e.g. the outer bounds of a ``bst`` or the lower bound of
a sorted-list segment).  The fixpoint derives lower/upper bounds, rejects
infeasible combinations and picks witness values.
"""

from repro.sl.exprs import Eq, Ge, Gt, Le, Lt, Ne, Var
from repro.sl.search import discharge_deferred


def discharge(goals, env=None, unknowns=("u",)):
    return discharge_deferred(list(goals), dict(env or {}), set(unknowns))


class TestBounds:
    def test_lower_bound_picks_witness(self):
        env = discharge([Ge(Var("u"), Var("x"))], {"x": 5})
        assert env is not None and env["u"] == 5

    def test_upper_bound_picks_witness(self):
        env = discharge([Le(Var("u"), Var("x"))], {"x": 3})
        assert env is not None and env["u"] == 3

    def test_strict_bounds_are_exclusive(self):
        env = discharge([Gt(Var("u"), Var("x"))], {"x": 5})
        assert env is not None and env["u"] == 6
        env = discharge([Lt(Var("u"), Var("x"))], {"x": 5})
        assert env is not None and env["u"] == 4

    def test_lower_bound_wins_when_both_present(self):
        goals = [Ge(Var("u"), Var("x")), Le(Var("u"), Var("y"))]
        env = discharge(goals, {"x": 2, "y": 9})
        assert env is not None and env["u"] == 2

    def test_conflicting_bounds_reject(self):
        goals = [Ge(Var("u"), Var("x")), Le(Var("u"), Var("y"))]
        assert discharge(goals, {"x": 5, "y": 3}) is None

    def test_strict_conflict_on_touching_bounds(self):
        # u > 4 and u < 5 has no integer solution.
        goals = [Gt(Var("u"), Var("x")), Lt(Var("u"), Var("y"))]
        assert discharge(goals, {"x": 4, "y": 5}) is None

    def test_non_strict_touching_bounds_accept(self):
        # u >= 4 and u <= 4 pins u to exactly 4.
        goals = [Ge(Var("u"), Var("x")), Le(Var("u"), Var("y"))]
        env = discharge(goals, {"x": 4, "y": 4})
        assert env is not None and env["u"] == 4

    def test_tightest_of_multiple_lower_bounds(self):
        goals = [Ge(Var("u"), Var("x")), Ge(Var("u"), Var("y"))]
        env = discharge(goals, {"x": 2, "y": 7})
        assert env is not None and env["u"] == 7


class TestFixpoint:
    def test_equality_binds_then_checks_inequalities(self):
        # u = x binds u to 5; the deferred u >= y then becomes decidable.
        goals = [Eq(Var("u"), Var("x")), Ge(Var("u"), Var("y"))]
        env = discharge(goals, {"x": 5, "y": 3})
        assert env is not None and env["u"] == 5

    def test_equality_binding_can_violate_inequality(self):
        goals = [Eq(Var("u"), Var("x")), Ge(Var("u"), Var("y"))]
        assert discharge(goals, {"x": 1, "y": 3}) is None

    def test_bound_witness_feeds_second_unknown(self):
        # u >= x pins u to 4, which then bounds w through w >= u.
        goals = [Ge(Var("u"), Var("x")), Ge(Var("w"), Var("u"))]
        env = discharge(goals, {"x": 4}, unknowns=("u", "w"))
        assert env is not None and env["u"] == 4 and env["w"] == 4

    def test_violated_equality_rejects(self):
        assert discharge([Eq(Var("x"), Var("y"))], {"x": 1, "y": 2}) is None


class TestMultiUnknownAcceptance:
    def test_relation_between_two_unknowns_is_accepted(self):
        env = discharge([Lt(Var("u"), Var("w"))], {}, unknowns=("u", "w"))
        assert env is not None
        # Neither side is bound: the constraint is accepted optimistically.
        assert "u" not in env and "w" not in env

    def test_disequality_with_unknown_is_accepted(self):
        env = discharge([Ne(Var("u"), Var("w"))], {}, unknowns=("u", "w"))
        assert env is not None

    def test_mixed_decidable_and_optimistic(self):
        goals = [Lt(Var("u"), Var("w")), Ge(Var("v"), Var("x"))]
        env = discharge(goals, {"x": 2}, unknowns=("u", "v", "w"))
        assert env is not None and env["v"] == 2
