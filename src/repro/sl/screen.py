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
  the screens are evaluated against: the sub-heap's domain, its
  boundary-value footprint (addresses, field values and ``nil``), its heap
  type histogram and the root-reachable address set.

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

from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

from repro.sl.errors import UnknownPredicateError
from repro.sl.exprs import And, Eq, IntConst, Ne, Nil, PureFormula, TrueF, Var
from repro.sl.model import StackHeapModel
from repro.sl.spatial import PointsTo, PredApp, SymHeap


# ---------------------------------------------------------------------------
# Screening statistics
# ---------------------------------------------------------------------------


@dataclass
class ScreeningStats:
    """Counters of the screening / fail-fast layer, owned by a checker.

    ``candidates_generated`` counts Algorithm 2 candidates surviving the
    type and signature filters; ``candidates_prefiltered`` those rejected by
    the semantic pre-filter without a checker call; ``candidates_checked``
    those actually handed to ``check_all``.  ``refuted_by_first_model``
    counts ``check_all`` calls settled by the very first model tried (the
    learned-refuter / smallest-heap heuristic working as intended);
    ``pruned_cases`` counts predicate-case unfoldings skipped inside the
    search; ``max_trail_depth`` is the deepest binding trail observed.
    """

    candidates_generated: int = 0
    candidates_prefiltered: int = 0
    candidates_checked: int = 0
    refuted_by_first_model: int = 0
    pruned_cases: int = 0
    max_trail_depth: int = 0
    #: Skeleton-batching counters (see ``ModelChecker.check_batch``):
    #: candidate groups formed by the candidate loop, skeleton searches
    #: actually run, stream-memo reuses, per-(variant, entry) evaluations of
    #: compiled pure deltas, and batched variants that needed the exact
    #: per-candidate fallback.
    candidate_groups: int = 0
    skeletons_solved: int = 0
    env_stream_reuses: int = 0
    pure_variant_evals: int = 0
    batch_exact_fallbacks: int = 0
    #: Stream-memo hits that only canonical keying made possible: the
    #: consuming model's concrete (root value, heap) differs from the one
    #: the stream was generated from (see ``ModelChecker._get_stream``).
    canonical_stream_hits: int = 0
    #: Exact-search selections that were enumeration-order dependent (tied
    #: best reductions, solution-cap truncation, budget expiry).  The
    #: isomorphism-dedup layer snapshots this around each location: such
    #: selections must not be replayed onto address-renamed models.
    exact_selection_ambiguities: int = 0
    #: Columnar-kernel counters (see :mod:`repro.sl.kernels`): group-kernel
    #: invocations (one per candidate group x model), variants resolved by
    #: posting-list intersection over the stream's slot indexes, and full
    #: entry scans actually run for pin-free variants (settle-record cache
    #: misses, so at most one per invocation).
    kernel_groups: int = 0
    stream_index_hits: int = 0
    kernel_scan_fallbacks: int = 0
    #: Stream-memo misses served by the run-scoped pool of an engine batch
    #: (see :class:`repro.sl.checker.StreamPool`).  Like a disk hit, a pool
    #: hit counts neither ``skeletons_solved`` nor ``env_stream_reuses``.
    stream_pool_hits: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


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

    The pre-filter itself reads only ``stack``, ``dom`` and ``heap_get``;
    the richer facts (value footprint, type histogram, root-reachable set)
    are derived lazily on first access, so constructing facts for a split
    costs one ``domain()`` call and nothing else.
    """

    __slots__ = (
        "model",
        "stack",
        "dom",
        "heap_get",
        "_root",
        "_footprint",
        "_type_histogram",
        "_root_reachable",
    )

    def __init__(self, model: StackHeapModel, root: str | None = None):
        heap = model.heap
        self.model = model
        self.stack = model.stack_map
        self.dom = heap.domain()
        self.heap_get = heap.get
        self._root = root
        self._footprint: frozenset[int] | None = None
        self._type_histogram: dict[str, int] | None = None
        self._root_reachable: frozenset[int] | None = None

    @property
    def footprint(self) -> frozenset[int]:
        """Addresses, field values and ``nil`` observable in the sub-heap."""
        if self._footprint is None:
            values: set[int] = {0}
            values.update(self.dom)
            for _, cell in self.model.heap.items():
                values.update(cell.values)
            self._footprint = frozenset(values)
        return self._footprint

    @property
    def type_histogram(self) -> dict[str, int]:
        """Cell counts per structure type."""
        if self._type_histogram is None:
            histogram: dict[str, int] = {}
            for _, cell in self.model.heap.items():
                histogram[cell.type_name] = histogram.get(cell.type_name, 0) + 1
            self._type_histogram = histogram
        return self._type_histogram

    @property
    def root_reachable(self) -> frozenset[int]:
        """Addresses reachable from the split's root variable."""
        if self._root_reachable is None:
            root = self._root
            if root is not None and root in self.stack:
                self._root_reachable = self.model.heap.reachable_from([self.stack[root]])
            else:
                self._root_reachable = self.dom
        return self._root_reachable

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
    drop_vacuous: bool = True,
) -> bool:
    """The semantic pre-filter of Algorithm 2's candidate loop.

    A candidate ``p(arg_names)`` is skipped without any checker call when
    one of two sound conditions holds:

    * some model rules out *every* case of ``p`` -- ``check_all`` would
      refute the candidate there;
    * (with ``drop_vacuous``) *no* model admits a case that can consume a
      cell -- then every possible outcome of ``check_all`` is either a
      refutation or an all-vacuous reduction, and the candidate loop drops
      both.

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
        if drop_vacuous and not may_consume_somewhere:
            may_consume_somewhere = any(
                case_may_consume(screen, values, heap_get, dom, registry, depth)
                for screen in screens
            )
    if drop_vacuous and not may_consume_somewhere:
        return True
    return False


def screen_candidates(
    predicate,
    candidates,
    facts_list: Sequence[ModelFacts],
    registry,
    drop_vacuous: bool = True,
    stats: ScreeningStats | None = None,
):
    """Screen one predicate's enumerated candidates in bulk.

    ``candidates`` are ``(permutation, fresh name set)`` records in
    enumeration order; the survivors are returned in the same order, ready
    to be grouped by spatial skeleton and batch-checked.  The per-candidate
    decision is exactly :func:`candidate_refuted` (the pre-filter stays a
    pure optimisation); hoisting the loop here lets the per-model facts,
    case screens and registry lookups live in one place for a whole group
    instead of being re-threaded per candidate.
    """
    survivors = []
    screened = 0
    for candidate in candidates:
        if candidate_refuted(
            predicate,
            candidate.permutation,
            candidate.fresh,
            facts_list,
            registry,
            drop_vacuous=drop_vacuous,
        ):
            screened += 1
            continue
        survivors.append(candidate)
    if stats is not None:
        stats.candidates_prefiltered += screened
    return survivors


def formula_shape(formula: SymHeap) -> tuple:
    """Coarse shape of a formula: atom kinds, names/types and arities.

    Used to index the learned-refuter table: candidates with the same shape
    (e.g. every ``dll`` application with four arguments) tend to be refuted
    by the same model, so ``check_all`` tries that model first.
    """
    shape = []
    for atom in formula.spatial_atoms():
        if isinstance(atom, PredApp):
            shape.append(("app", atom.name, len(atom.args)))
        elif isinstance(atom, PointsTo):
            shape.append(("pt", atom.type_name, len(atom.args)))
        else:
            shape.append(("other", type(atom).__name__, 0))
    return tuple(shape)
