"""The Definition 2 search: symbolic-heap model checking with residuals.

This module implements Definition 2 of the paper::

    s, h  ||-  F   ~~>   h', iota

i.e. given a concrete stack-heap model ``(s, h)`` and a symbolic heap ``F``,
find a *residual* sub-heap ``h' <= h`` and an *instantiation* ``iota`` of
``F``'s existential variables such that ``s, h \\ h' |=_iota F``.

The paper encodes this problem into Z3 following Brotherston et al. (POPL
2016).  Z3 is not available in this offline environment, so the problem is
solved directly: because the model is concrete and finite, satisfaction is
decidable by a backtracking search that unfolds inductive predicates,
consumes heap cells for points-to atoms and binds existential variables by
unification against observed values.  Among all valid reductions
:func:`reduce` returns one with a *minimal* residual heap (maximal
coverage), which matches the behaviour SLING relies on in its examples
(e.g. ``dll(x, u1, u2, tmp)`` covering the whole sub-heap of ``x``).

The search threads one mutable environment and one mutable available-address
set through the recursion, undoing bindings via a *trail* on backtrack
instead of copying a ``dict`` per branch, and screens predicate cases
(:mod:`repro.sl.screen`) before it instantiates them.  :func:`reduce` is the
reference semantics; :func:`skeleton_leaves` is the same search run in
raw-leaf mode, the source of a skeleton stream (:mod:`repro.sl.stream`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.sl.errors import EvaluationError, UnknownPredicateError
from repro.sl.exprs import (
    And,
    Eq,
    Expr,
    FalseF,
    Ge,
    Gt,
    IntConst,
    Le,
    Lt,
    Nil,
    Not,
    Or,
    PureFormula,
    TrueF,
    Var,
    pure_conjuncts,
)
from repro.sl.model import Heap, StackHeapModel
from repro.sl.predicates import PredicateRegistry, canonical_unfold_key
from repro.sl.screen import case_feasible
from repro.sl.spatial import Emp, PointsTo, PredApp, SepConj, Spatial, SymHeap
from repro.telemetry.counters import CacheStats

#: Search steps per ``check`` call or skeleton enumeration; beyond it the
#: best solution found so far is returned (or ``None``) and a skeleton
#: stream stays incomplete.
MAX_STEPS = 50_000

#: Complete reductions enumerated before settling on the best one found;
#: keeps the search cheap on heavily ambiguous formulas.  The group kernel
#: replicates the same cap when it settles variants off a stream.
MAX_SOLUTIONS = 64


@dataclass(frozen=True)
class CheckResult:
    """The outcome of a successful reduction ``s,h ||- F ~~> h', iota``."""

    residual: Heap
    instantiation: dict[str, int]
    consumed: frozenset[int]

    def covers_everything(self) -> bool:
        """True when the formula modelled the entire heap (empty residual)."""
        return self.residual.is_empty()


@dataclass
class _SearchState:
    """Mutable bookkeeping shared across one top-level search."""

    registry: PredicateRegistry
    #: The owning checker's counters (``pruned_cases``, ``unfold_hits``,
    #: ``unfold_misses``, ``max_trail_depth``).
    stats: CacheStats
    model: StackHeapModel
    max_depth: int
    steps: int = 0
    #: Binding trail: variable names (bound in the environment) interleaved
    #: with addresses (consumed from the available set), popped on backtrack.
    trail: list = field(default_factory=list)
    max_trail: int = 0
    #: Raw-leaf mode (skeleton streams): yield ``(env, available, deferred
    #: pures, unknowns)`` at each leaf instead of discharging the deferred
    #: goals and yielding a finished ``(env, available)`` pair.
    raw: bool = False


class CheckBudgetExceeded(Exception):
    """Internal signal: the search exceeded its step budget."""


def reduce(
    registry: PredicateRegistry,
    stats: CacheStats,
    model: StackHeapModel,
    formula: SymHeap,
) -> CheckResult | None:
    """Run the reduction of Definition 2; ``None`` when no reduction exists.

    The selected reduction is the first of maximal coverage in enumeration
    order; the enumeration stops at the first full-coverage reduction, after
    ``MAX_SOLUTIONS`` reductions, or when the step budget expires.
    """
    env = dict(model.stack)
    unknowns = set(formula.exists)
    # Free variables of the formula must be interpretable by the stack.
    for name in formula.free_vars():
        if name not in env:
            return None

    spatials = list(formula.spatial_atoms())
    pures = pure_conjuncts(formula.pure)
    state = _SearchState(
        registry,
        stats,
        model,
        max_depth=3 * len(model.heap) + 3 * (len(spatials) + len(pures)) + 30,
    )
    domain = model.heap.domain()
    available = set(domain)
    best: CheckResult | None = None
    solutions = 0
    try:
        for solution_env, avail in _solve(spatials, pures, env, unknowns, available, state, 0):
            consumed = domain - avail
            instantiation = {
                name: solution_env[name]
                for name in formula.exists
                if name in solution_env
            }
            result = CheckResult(
                residual=model.heap.restrict(avail),
                instantiation=instantiation,
                consumed=frozenset(consumed),
            )
            if best is None or len(result.consumed) > len(best.consumed):
                best = result
            solutions += 1
            if result.covers_everything() or solutions >= MAX_SOLUTIONS:
                break
    except CheckBudgetExceeded:
        pass
    if state.max_trail > stats.max_trail_depth:
        stats.max_trail_depth = state.max_trail
    return best


def skeleton_leaves(
    registry: PredicateRegistry,
    stats: CacheStats,
    model: StackHeapModel,
    skeleton: SymHeap,
):
    """Raw-leaf enumeration of the skeleton search (an ``EnvStream`` source).

    Mirrors :func:`reduce` exactly -- same free-variable guard, same depth
    budget -- but yields every leaf ``(env, available, deferred pures,
    unknowns)`` instead of discharging deferred goals and selecting a best
    solution.
    """
    env = dict(model.stack)
    unknowns = set(skeleton.exists)
    for name in skeleton.free_vars():
        if name not in env:
            return
    spatials = list(skeleton.spatial_atoms())
    state = _SearchState(
        registry,
        stats,
        model,
        max_depth=3 * len(model.heap) + 3 * len(spatials) + 30,
        raw=True,
    )
    available = set(model.heap.domain())
    try:
        yield from _solve(spatials, [], env, unknowns, available, state, 0)
    finally:
        if state.max_trail > stats.max_trail_depth:
            stats.max_trail_depth = state.max_trail


def _solve(
    spatials: list[Spatial],
    pures: list[PureFormula],
    env: dict[str, int],
    unknowns: set[str],
    available: set[int],
    state: _SearchState,
    depth: int,
) -> Iterator[tuple[dict[str, int], set[int]]]:
    """Yield (environment, remaining addresses) pairs satisfying all goals.

    Goals arrive pre-partitioned into spatial atoms and pure conjuncts
    (each list in its original relative order).  ``env``, ``unknowns``
    and ``available`` are shared mutable state: bindings and
    consumptions are recorded on ``state.trail`` and undone when this
    frame backtracks (including early generator shutdown).  Yielded
    values are live views -- callers must read them before resuming the
    iteration.
    """
    state.steps += 1
    if state.steps > MAX_STEPS:
        raise CheckBudgetExceeded
    if depth > state.max_depth:
        return

    trail = state.trail
    entry_mark = len(trail)
    if entry_mark > state.max_trail:
        state.max_trail = entry_mark
    try:
        # First discharge all pure goals that are currently decidable;
        # they never branch, so doing them eagerly prunes the search.
        # The caller's list is only copied once a goal is actually
        # discharged (most frames defer everything).
        if pures:
            copied = False
            progress = True
            while progress:
                progress = False
                for index, goal in enumerate(pures):
                    outcome = _step_pure(goal, env, unknowns, trail)
                    if outcome is _FAIL:
                        return
                    if outcome is _DEFER:
                        continue
                    if not copied:
                        pures = list(pures)
                        copied = True
                    pures.pop(index)
                    progress = True
                    break

        if not spatials:
            if state.raw:
                # Skeleton-stream mode: hand the raw leaf to the caller
                # (who snapshots it) without committing to witnesses for
                # the deferred constraints -- the per-variant evaluation
                # re-runs the endgame under each variant's bindings.
                yield env, available, pures, unknowns
                return
            # Only deferred pure goals remain: constraints over
            # existential variables that the heap never pinned down
            # (e.g. the outer bounds of a bst or the lower bound of a
            # sorted-list segment).  Try to discharge them with a
            # lightweight bound analysis.
            final_env = discharge_deferred(pures, env, unknowns)
            if final_env is None:
                return
            yield final_env, available
            return

        goal = _pick_spatial(spatials, env)
        rest = list(spatials)
        rest.remove(goal)

        cls = goal.__class__
        if cls is PointsTo:
            yield from _solve_points_to(goal, rest, pures, env, unknowns, available, state, depth)
        elif cls is PredApp:
            yield from _solve_pred(goal, rest, pures, env, unknowns, available, state, depth)
        elif cls is Emp:
            yield from _solve(rest, pures, env, unknowns, available, state, depth)
        elif cls is SepConj:
            expanded = list(goal.atoms()) + rest
            yield from _solve(expanded, pures, env, unknowns, available, state, depth)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected spatial goal {goal!r}")
    finally:
        if len(trail) > entry_mark:
            _undo(env, available, trail, entry_mark)


def _pick_spatial(goals: list[Spatial], env: dict[str, int]) -> Spatial:
    """Prefer atoms whose anchor address is already known (less branching)."""
    if len(goals) == 1:
        return goals[0]
    for goal in goals:
        if goal.__class__ is PointsTo and _try_eval(goal.source, env) is not None:
            return goal
    for goal in goals:
        if goal.__class__ is PredApp and goal.args and _try_eval(goal.args[0], env) is not None:
            return goal
    return goals[0]


# -- points-to -------------------------------------------------------------------


def _solve_points_to(
    goal: PointsTo,
    rest: list[Spatial],
    pures: list[PureFormula],
    env: dict[str, int],
    unknowns: set[str],
    available: set[int],
    state: _SearchState,
    depth: int,
) -> Iterator[tuple[dict[str, int], set[int]]]:
    source_value = _try_eval(goal.source, env)
    bind_name = None
    if source_value is not None:
        candidates: list[int] = [source_value] if source_value in available else []
    elif isinstance(goal.source, Var) and goal.source.name in unknowns:
        candidates = sorted(available)
        bind_name = goal.source.name
    else:
        candidates = []

    trail = state.trail
    heap_get = state.model.heap.get
    goal_args = goal.args
    arg_count = len(goal_args)
    for addr in candidates:
        if addr not in available:
            continue
        cell = heap_get(addr)
        if cell is None or cell.type_name != goal.type_name:
            continue
        values = cell.values
        if len(values) != arg_count:
            continue
        mark = len(trail)
        if bind_name is not None:
            env[bind_name] = addr
            trail.append(bind_name)
        if _unify_all(goal_args, values, env, unknowns, trail):
            available.discard(addr)
            trail.append(addr)
            yield from _solve(rest, pures, env, unknowns, available, state, depth)
        _undo(env, available, trail, mark)


# -- inductive predicates ----------------------------------------------------------


def _solve_pred(
    goal: PredApp,
    rest: list[Spatial],
    pures: list[PureFormula],
    env: dict[str, int],
    unknowns: set[str],
    available: set[int],
    state: _SearchState,
    depth: int,
) -> Iterator[tuple[dict[str, int], set[int]]]:
    try:
        definition = state.registry.get(goal.name)
    except UnknownPredicateError:
        return
    if len(goal.args) != definition.arity:
        return

    # Unfolding depth is bounded by ``state.max_depth`` (set from the heap
    # size): every well-formed recursive case consumes at least one cell
    # before recursing, so deeper unfoldings cannot succeed and are pruned
    # in ``_solve``.
    screens = definition.case_screens()
    arg_values = [_try_eval(arg, env) for arg in goal.args]
    heap_get = state.model.heap.get
    unfold_key: object = _KEY_UNSET
    for case_index in range(len(definition.cases)):
        if not case_feasible(screens[case_index], arg_values, heap_get, available):
            # The case's own equalities or points-to anchors are already
            # violated (e.g. a recursive case whose root address is not
            # available): instantiating it could only fail.
            state.stats.pruned_cases += 1
            continue
        if unfold_key is _KEY_UNSET:
            unfold_key = canonical_unfold_key(goal.args)
        case_exists, case_atoms, case_conjs = definition.instantiate_case_goals(
            case_index, goal.args, unfold_key, state.stats
        )
        unknowns.update(case_exists)
        case_spatials = case_atoms + rest
        case_pures = case_conjs + pures
        try:
            yield from _solve(
                case_spatials, case_pures, env, unknowns, available, state, depth + 1
            )
        finally:
            unknowns.difference_update(case_exists)


def discharge_deferred(
    goals: list[PureFormula], env: dict[str, int], unknowns: set[str]
) -> dict[str, int] | None:
    """Resolve pure constraints left undecided by the spatial search.

    Each remaining constraint involves at least one unbound existential
    variable.  We run a small fixpoint: equalities with one known side
    bind the unknown; inequalities contribute lower/upper bounds for the
    unknowns, which are checked for feasibility and then used to pick a
    witness value.  Constraints that still involve two or more unbound
    variables afterwards are accepted optimistically (they are trivially
    satisfiable in isolation for the predicate shapes we support).

    Operates on a private copy of the environment (with its own local
    trail), so the caller's trail discipline is unaffected.
    """
    env = dict(env)
    local_trail: list = []
    pending = list(goals)
    changed = True
    while changed:
        changed = False
        remaining: list[PureFormula] = []
        for goal in pending:
            outcome = _step_pure(goal, env, unknowns, local_trail)
            if outcome is _FAIL:
                return None
            if outcome is _DEFER:
                remaining.append(goal)
                continue
            changed = True
        pending = remaining
        if changed:
            continue
        # No equality progress: derive bounds for unknowns from
        # inequalities whose other side is known.
        bounds: dict[str, tuple[int | None, int | None]] = {}
        for goal in pending:
            constraint = _as_bound(goal, env, unknowns)
            if constraint is None:
                continue
            name, lower, upper = constraint
            current_lower, current_upper = bounds.get(name, (None, None))
            if lower is not None:
                current_lower = lower if current_lower is None else max(current_lower, lower)
            if upper is not None:
                current_upper = upper if current_upper is None else min(current_upper, upper)
            bounds[name] = (current_lower, current_upper)
        for name, (lower, upper) in bounds.items():
            if lower is not None and upper is not None and lower > upper:
                return None
            if lower is not None:
                env[name] = lower
            elif upper is not None:
                env[name] = upper
            changed = True
        if not bounds:
            break
    # Whatever is left involves several unbound variables; accept.
    return env


# -- pure goals ----------------------------------------------------------------------


def _step_pure(
    goal: PureFormula, env: dict[str, int], unknowns: set[str], trail: list
) -> object:
    """Try to discharge a pure goal against the shared environment.

    Returns ``_OK`` on success (bindings, if any, are recorded on
    ``trail``), ``_FAIL`` when the goal is definitely violated and
    ``_DEFER`` when it cannot be decided yet because of unbound
    existential variables.  On ``_FAIL``/``_DEFER`` any partial bindings
    made while evaluating the goal have been undone.
    """
    cls = goal.__class__
    if cls is Eq:
        side = goal.left
        side_cls = side.__class__
        if side_cls is Var:
            left = env.get(side.name)
        elif side_cls is Nil:
            left = 0
        else:
            left = _try_eval(side, env)
        side = goal.right
        side_cls = side.__class__
        if side_cls is Var:
            right = env.get(side.name)
        elif side_cls is Nil:
            right = 0
        else:
            right = _try_eval(side, env)
        if left is not None:
            if right is not None:
                return _OK if left == right else _FAIL
            target = goal.right
            if isinstance(target, Var) and target.name in unknowns:
                env[target.name] = left
                trail.append(target.name)
                return _OK
            return _DEFER
        if right is not None:
            target = goal.left
            if isinstance(target, Var) and target.name in unknowns:
                env[target.name] = right
                trail.append(target.name)
                return _OK
        return _DEFER
    if cls is TrueF:
        return _OK
    if cls is FalseF:
        return _FAIL
    if cls is And:
        mark = len(trail)
        for part in goal.parts:
            outcome = _step_pure(part, env, unknowns, trail)
            if outcome is _FAIL or outcome is _DEFER:
                _undo_env(env, trail, mark)
                return outcome
        return _OK
    if cls is Or:
        deferred = False
        for part in goal.parts:
            mark = len(trail)
            outcome = _step_pure(part, env, unknowns, trail)
            if outcome is _OK:
                return _OK
            _undo_env(env, trail, mark)
            if outcome is _DEFER:
                deferred = True
        return _DEFER if deferred else _FAIL
    if cls is Not:
        mark = len(trail)
        inner = _step_pure(goal.operand, env, unknowns, trail)
        _undo_env(env, trail, mark)
        if inner is _DEFER:
            return _DEFER
        return _OK if inner is _FAIL else _FAIL
    # Remaining binary relations (Ne, Lt, Le, Gt, Ge): decidable only when
    # both sides evaluate.
    try:
        return _OK if goal.eval(env) else _FAIL
    except EvaluationError:
        return _DEFER


# Sentinels used by ``_step_pure``.
_OK = object()
_FAIL = object()
_DEFER = object()

# Sentinel for the lazily computed unfold key in ``_solve_pred`` (the key
# itself may legitimately be ``None`` for non-canonical argument tuples).
_KEY_UNSET = object()


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _undo(env: dict[str, int], available: set[int], trail: list, mark: int) -> None:
    """Pop trail entries down to ``mark``: unbind names, restore addresses."""
    while len(trail) > mark:
        entry = trail.pop()
        if entry.__class__ is str:
            del env[entry]
        else:
            available.add(entry)


def _undo_env(env: dict[str, int], trail: list, mark: int) -> None:
    """Pop (environment-only) trail entries down to ``mark``."""
    while len(trail) > mark:
        del env[trail.pop()]


def _try_eval(expr: Expr, env: dict[str, int]) -> int | None:
    """Evaluate an expression, returning ``None`` when a variable is unbound."""
    cls = expr.__class__
    if cls is Var:
        return env.get(expr.name)
    if cls is Nil:
        return 0
    if cls is IntConst:
        return expr.value
    try:
        return expr.eval(env)
    except EvaluationError:
        return None


def _as_bound(
    goal: PureFormula, env: dict[str, int], unknowns: set[str]
) -> tuple[str, int | None, int | None] | None:
    """Interpret an inequality as a lower/upper bound on a single unknown.

    Returns ``(name, lower, upper)`` with exactly one bound set, or ``None``
    when the constraint does not have that shape.
    """
    if not isinstance(goal, (Le, Lt, Ge, Gt)):
        return None
    left_value = _try_eval(goal.left, env)
    right_value = _try_eval(goal.right, env)
    strict = isinstance(goal, (Lt, Gt))
    lower_first = isinstance(goal, (Le, Lt))  # left <= right
    if (
        isinstance(goal.left, Var)
        and goal.left.name in unknowns
        and left_value is None
        and right_value is not None
    ):
        # u <= k  (upper bound)  or  u >= k (lower bound)
        if lower_first:
            return goal.left.name, None, right_value - 1 if strict else right_value
        return goal.left.name, right_value + 1 if strict else right_value, None
    if (
        isinstance(goal.right, Var)
        and goal.right.name in unknowns
        and right_value is None
        and left_value is not None
    ):
        # k <= u (lower bound)  or  k >= u (upper bound)
        if lower_first:
            return goal.right.name, left_value + 1 if strict else left_value, None
        return goal.right.name, None, left_value - 1 if strict else left_value
    return None


def _unify(
    expr: Expr, value: int, env: dict[str, int], unknowns: set[str], trail: list
) -> bool:
    """Unify an argument expression against an observed value (trail-bound)."""
    if expr.__class__ is Var:
        name = expr.name
        current = env.get(name)
        if current is not None:
            return current == value
        if name in unknowns:
            env[name] = value
            trail.append(name)
            return True
        return False
    current = _try_eval(expr, env)
    if current is not None:
        return current == value
    return False


def _unify_all(
    exprs: Sequence[Expr],
    values: Sequence[int],
    env: dict[str, int],
    unknowns: set[str],
    trail: list,
) -> bool:
    """Unify expressions against observed values, left to right.

    Bindings are recorded on ``trail``; on failure the caller is expected to
    undo to its own mark (partial bindings may remain on the trail).
    """
    for expr, value in zip(exprs, values):
        if not _unify(expr, value, env, unknowns, trail):
            return False
    return True
