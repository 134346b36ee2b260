"""Fail-fast candidate screening: per-case metadata and per-model facts.

Algorithm 2 spends nearly all of its time proving candidates *wrong*: most
argument permutations handed to the model checker are refuted after a full
backtracking search.  This module makes refutation cheap in two places:

* :func:`case_screens` compiles each case of an inductive predicate into a
  :class:`CaseScreen` -- the syntactic facts a case imposes on its
  *parameters* (equalities with other parameters or ``nil``, points-to
  sources that must be allocated with a matching structure type, field
  values that must agree with parameter values, recursive calls).  The
  checker consults the screen before instantiating a case, and the
  candidate pre-filter consults it before calling the checker at all.

* :class:`ModelFacts` precomputes, once per heap split, the per-model data
  the screens are evaluated against: the model's stack, the sub-heap's
  domain and its cell lookup.

Soundness contract: :func:`case_feasible` may return ``True`` for a case
that ultimately fails, but it returns ``False`` only when *no* reduction
through that case can exist -- every screened fact corresponds exactly to a
requirement the backtracking search would enforce (an equality conjunct, a
points-to match, a callee unfolding).  Screening therefore never changes
any result; it only skips work whose outcome is already known.

This refines the boundary-footprint rule (a candidate whose non-fresh
arguments cannot inhabit the sub-heap footprint is refuted without search)
into a per-case feasibility check, which additionally remains sound for
candidates that a base case can satisfy vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.sl.errors import UnknownPredicateError
from repro.sl.exprs import And, Eq, IntConst, Ne, Nil, PureFormula, TrueF, Var
from repro.sl.model import StackHeapModel
from repro.sl.spatial import PointsTo, PredApp, SymHeap


# ---------------------------------------------------------------------------
# Per-case metadata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PtScreen:
    """One points-to atom of a case whose source is a formal parameter."""

    src: int  # parameter position of the source
    type_name: str
    nfields: int
    #: (field position, parameter position) pairs: the cell's field must
    #: equal the argument at that parameter position (when known).
    field_params: tuple[tuple[int, int], ...]
    #: Field positions that must hold ``nil``.
    field_nil: tuple[int, ...]
    #: (field position, constant) pairs the cell must match.
    field_ints: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CaseScreen:
    """Parameter-level requirements of one case of an inductive predicate."""

    #: Pairs of parameter positions that must be equal.
    eq_pp: tuple[tuple[int, int], ...]
    #: Parameter positions that must equal ``nil``.
    eq_nil: tuple[int, ...]
    #: (parameter position, constant) equalities.
    eq_int: tuple[tuple[int, int], ...]
    #: Pairs of parameter positions that must differ.
    ne_pp: tuple[tuple[int, int], ...]
    #: Parameter positions that must not equal ``nil``.
    ne_nil: tuple[int, ...]
    #: Points-to atoms anchored at parameters.
    pts: tuple[PtScreen, ...]
    #: Recursive calls: (predicate name, argument map).  Each map entry is
    #: ``("p", i)`` for parameter ``i``, ``("nil",)``, ``("int", k)`` or
    #: ``None`` for case-local existentials / compound arguments.
    calls: tuple[tuple[str, tuple[object, ...]], ...] = ()
    #: Total number of points-to atoms in the case body, including ones
    #: anchored at case-local existentials.  A case with ``pt_total > 0``
    #: consumes at least one cell whenever it is taken.
    pt_total: int = 0


def build_case_screens(params: Sequence[str], cases: Sequence[SymHeap]) -> tuple[CaseScreen, ...]:
    """Compile every case body of a predicate into a :class:`CaseScreen`."""
    index_of = {name: position for position, name in enumerate(params)}
    return tuple(_build_one(index_of, body) for body in cases)


def _build_one(index_of: Mapping[str, int], body: SymHeap) -> CaseScreen:
    bound = set(body.exists)

    def param(expr) -> int | None:
        if type(expr) is Var and expr.name not in bound:
            return index_of.get(expr.name)
        return None

    eq_pp: list[tuple[int, int]] = []
    eq_nil: list[int] = []
    eq_int: list[tuple[int, int]] = []
    ne_pp: list[tuple[int, int]] = []
    ne_nil: list[int] = []
    for conjunct in _conjuncts(body.pure):
        if isinstance(conjunct, (Eq, Ne)):
            left, right = param(conjunct.left), param(conjunct.right)
            pairs = eq_pp if isinstance(conjunct, Eq) else ne_pp
            nils = eq_nil if isinstance(conjunct, Eq) else ne_nil
            if left is not None and right is not None:
                pairs.append((left, right))
            elif left is not None:
                other = conjunct.right
                if isinstance(other, Nil):
                    nils.append(left)
                elif isinstance(other, IntConst) and isinstance(conjunct, Eq):
                    eq_int.append((left, other.value))
            elif right is not None:
                other = conjunct.left
                if isinstance(other, Nil):
                    nils.append(right)
                elif isinstance(other, IntConst) and isinstance(conjunct, Eq):
                    eq_int.append((right, other.value))

    pts: list[PtScreen] = []
    calls: list[tuple[str, tuple[object, ...]]] = []
    pt_total = 0
    for atom in body.spatial_atoms():
        if isinstance(atom, PointsTo):
            pt_total += 1
            src = param(atom.source)
            if src is None:
                continue
            field_params: list[tuple[int, int]] = []
            field_nil: list[int] = []
            field_ints: list[tuple[int, int]] = []
            for position, arg in enumerate(atom.args):
                arg_param = param(arg)
                if arg_param is not None:
                    field_params.append((position, arg_param))
                elif isinstance(arg, Nil):
                    field_nil.append(position)
                elif isinstance(arg, IntConst):
                    field_ints.append((position, arg.value))
            pts.append(
                PtScreen(
                    src=src,
                    type_name=atom.type_name,
                    nfields=len(atom.args),
                    field_params=tuple(field_params),
                    field_nil=tuple(field_nil),
                    field_ints=tuple(field_ints),
                )
            )
        elif isinstance(atom, PredApp):
            argmap: list[object] = []
            for arg in atom.args:
                arg_param = param(arg)
                if arg_param is not None:
                    argmap.append(("p", arg_param))
                elif isinstance(arg, Nil):
                    argmap.append(("nil",))
                elif isinstance(arg, IntConst):
                    argmap.append(("int", arg.value))
                else:
                    argmap.append(None)
            calls.append((atom.name, tuple(argmap)))

    return CaseScreen(
        eq_pp=tuple(eq_pp),
        eq_nil=tuple(eq_nil),
        eq_int=tuple(eq_int),
        ne_pp=tuple(ne_pp),
        ne_nil=tuple(ne_nil),
        pts=tuple(pts),
        calls=tuple(calls),
        pt_total=pt_total,
    )


def _conjuncts(pure: PureFormula) -> list[PureFormula]:
    """Top-level conjuncts of a pure formula (``Or``/``Not`` are opaque)."""
    if isinstance(pure, TrueF):
        return []
    if isinstance(pure, And):
        result: list[PureFormula] = []
        for part in pure.parts:
            result.extend(_conjuncts(part))
        return result
    return [pure]


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


def case_feasible(
    screen: CaseScreen,
    values: Sequence[int | None],
    heap_get,
    available,
    registry=None,
    depth: int = 0,
) -> bool:
    """Can this case possibly reduce, given the known argument values?

    ``values`` holds one concrete value per parameter, ``None`` when the
    argument is an unconstrained existential.  ``heap_get`` maps an address
    to its cell (or ``None``); ``available`` is the set of consumable
    addresses.  With ``depth > 0`` and a predicate ``registry``, recursive
    calls are screened one level deep as well (unknown values propagate as
    ``None``, which keeps the check conservative).

    Returns ``False`` only when the backtracking search is guaranteed to
    refute every unfolding of the case.
    """
    for left, right in screen.eq_pp:
        left_value, right_value = values[left], values[right]
        if left_value is not None and right_value is not None and left_value != right_value:
            return False
    for position in screen.eq_nil:
        value = values[position]
        if value is not None and value != 0:
            return False
    for position, constant in screen.eq_int:
        value = values[position]
        if value is not None and value != constant:
            return False
    for left, right in screen.ne_pp:
        left_value, right_value = values[left], values[right]
        if left_value is not None and right_value is not None and left_value == right_value:
            return False
    for position in screen.ne_nil:
        if values[position] == 0:
            return False

    first_consumed: int | None = None
    consumed: set[int] | None = None
    for pt in screen.pts:
        value = values[pt.src]
        if value is None:
            continue
        if value not in available:
            return False
        # Separation: two screened points-to atoms cannot share an address.
        if first_consumed is None:
            first_consumed = value
        elif consumed is None:
            if value == first_consumed:
                return False
            consumed = {first_consumed, value}
        elif value in consumed:
            return False
        else:
            consumed.add(value)
        cell = heap_get(value)
        if cell is None or cell.type_name != pt.type_name:
            return False
        cell_values = cell.values
        if len(cell_values) != pt.nfields:
            return False
        for position, parameter in pt.field_params:
            known = values[parameter]
            if known is not None and cell_values[position] != known:
                return False
        for position in pt.field_nil:
            if cell_values[position] != 0:
                return False
        for position, constant in pt.field_ints:
            if cell_values[position] != constant:
                return False

    if depth > 0 and registry is not None:
        for name, argmap in screen.calls:
            try:
                callee = registry.get(name)
            except UnknownPredicateError:
                return False
            if len(argmap) != callee.arity:
                return False
            callee_values = _mapped_values(values, argmap)
            callee_screens = callee.case_screens()
            if not any(
                case_feasible(sub, callee_values, heap_get, available, registry, depth - 1)
                for sub in callee_screens
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# Per-model facts
# ---------------------------------------------------------------------------


class ModelFacts:
    """Cheap semantic facts about one sub-model, computed once per split.

    The pre-filter reads ``stack``, ``dom`` and ``heap_get``; constructing
    facts for a split costs one ``domain()`` call and nothing else.
    """

    __slots__ = ("stack", "dom", "heap_get")

    def __init__(self, model: StackHeapModel):
        heap = model.heap
        self.stack = model.stack_map
        self.dom = heap.domain()
        self.heap_get = heap.get

    def argument_values(
        self, names: Sequence[str], fresh: frozenset[str] | set[str]
    ) -> tuple[int | None, ...] | None:
        """Concrete values of a candidate's arguments in this model.

        Fresh existentials map to ``None`` (unconstrained); ``nil`` maps to
        ``0``.  Returns ``None`` when a non-fresh argument is not bound by
        the stack at all -- the checker rejects such candidates outright
        (their free variables are uninterpretable), so the caller can refute
        without a search.
        """
        values: list[int | None] = []
        stack = self.stack
        for name in names:
            if name in fresh:
                values.append(None)
            elif name == "nil":
                values.append(0)
            else:
                value = stack.get(name)
                if value is None:
                    return None
                values.append(value)
        return tuple(values)


def case_may_consume(
    screen: CaseScreen,
    values: Sequence[int | None],
    heap_get,
    available,
    registry,
    depth: int = 0,
) -> bool:
    """Can this case's reduction consume at least one heap cell?

    Conservative in the safe direction: ``False`` only when every reduction
    through the case is provably empty (or impossible).  A case containing
    any points-to atom consumes whenever it is taken; otherwise consumption
    can only come from a recursive call, screened ``depth`` levels deep.
    """
    if not case_feasible(screen, values, heap_get, available, registry, depth):
        return False
    if screen.pt_total > 0:
        return True
    for name, argmap in screen.calls:
        try:
            callee = registry.get(name)
        except UnknownPredicateError:
            continue
        if len(argmap) != callee.arity:
            continue
        if depth <= 0:
            # Out of screening budget: assume the callee can consume unless
            # its definition provably never allocates anything.
            if any(
                sub.pt_total > 0 or sub.calls for sub in callee.case_screens()
            ):
                return True
            continue
        callee_values = _mapped_values(values, argmap)
        if any(
            case_may_consume(sub, callee_values, heap_get, available, registry, depth - 1)
            for sub in callee.case_screens()
        ):
            return True
    return False


def _mapped_values(
    values: Sequence[int | None], argmap: Sequence[object]
) -> tuple[int | None, ...]:
    """Translate caller argument values through a call's argument map."""
    return tuple(
        values[entry[1]]
        if entry is not None and entry[0] == "p"
        else 0
        if entry is not None and entry[0] == "nil"
        else entry[1]
        if entry is not None and entry[0] == "int"
        else None
        for entry in argmap
    )


def candidate_refuted(
    predicate,
    arg_names: Sequence[str],
    fresh: frozenset[str] | set[str],
    facts_list: Sequence[ModelFacts],
    registry,
    depth: int = 1,
) -> bool:
    """The semantic pre-filter of Algorithm 2's candidate loop.

    A candidate ``p(arg_names)`` is skipped without any checker call when
    one of two sound conditions holds:

    * some model rules out *every* case of ``p`` -- ``check_all`` would
      refute the candidate there;
    * *no* model admits a case that can consume a cell -- then every
      possible outcome of ``check_all`` is either a refutation or an
      all-vacuous reduction, and the candidate loop drops both.

    Never refutes a candidate that would have produced a kept result.
    """
    screens = predicate.case_screens()
    may_consume_somewhere = False
    for facts in facts_list:
        values = facts.argument_values(arg_names, fresh)
        if values is None:
            return True
        heap_get = facts.heap_get
        dom = facts.dom
        feasible = False
        for screen in screens:
            if case_feasible(screen, values, heap_get, dom, registry, depth):
                feasible = True
                break
        if not feasible:
            return True
        if not may_consume_somewhere:
            may_consume_somewhere = any(
                case_may_consume(screen, values, heap_get, dom, registry, depth)
                for screen in screens
            )
    return not may_consume_somewhere


def screen_candidates(predicate, candidates, facts_list: Sequence[ModelFacts], registry, stats):
    """Screen one predicate's enumerated candidates in bulk.

    ``candidates`` are ``(permutation, fresh name set)`` records in
    enumeration order; the survivors are returned in the same order, ready
    to be grouped by spatial skeleton and batch-checked.  The per-candidate
    decision is exactly :func:`candidate_refuted` (the pre-filter stays a
    pure optimisation); hoisting the loop here lets the per-model facts,
    case screens and registry lookups live in one place for a whole group
    instead of being re-threaded per candidate.  Rejections count in
    ``stats.candidates_prefiltered`` (a
    :class:`~repro.telemetry.counters.CacheStats`).
    """
    survivors = []
    screened = 0
    for candidate in candidates:
        if candidate_refuted(
            predicate, candidate.permutation, candidate.fresh, facts_list, registry
        ):
            screened += 1
            continue
        survivors.append(candidate)
    stats.candidates_prefiltered += screened
    return survivors
