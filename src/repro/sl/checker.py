"""Symbolic-heap model checking with residual heaps and instantiations.

This module implements Definition 2 of the paper::

    s, h  ||-  F   ~~>   h', iota

i.e. given a concrete stack-heap model ``(s, h)`` and a symbolic heap ``F``,
find a *residual* sub-heap ``h' <= h`` and an *instantiation* ``iota`` of
``F``'s existential variables such that ``s, h \\ h' |=_iota F``.

The paper encodes this problem into Z3 following Brotherston et al. (POPL
2016).  Z3 is not available in this offline environment, so the checker
solves the problem directly: because the model is concrete and finite,
satisfaction is decidable by a backtracking search that unfolds inductive
predicates, consumes heap cells for points-to atoms and binds existential
variables by unification against observed values.  Among all valid
reductions the checker returns one with a *minimal* residual heap (maximal
coverage), which matches the behaviour SLING relies on in its examples
(e.g. ``dll(x, u1, u2, tmp)`` covering the whole sub-heap of ``x``).

There are two ways to decide a candidate.  :meth:`ModelChecker.check_all`
runs the exact search once per (candidate, model): it is the reference
semantics.  :meth:`ModelChecker.check_batch` is the fast path: it shares
one relaxed search per (skeleton, model) among a whole candidate group and
settles the group through the columnar kernel (:mod:`repro.sl.kernels`),
falling back to the exact search whenever a verdict could depend on the
enumeration order.  Both always share (see ``docs/performance.md``):

* the search threads one mutable environment and one mutable
  available-address set through the recursion, undoing bindings via a
  *trail* on backtrack, instead of copying a ``dict`` per branch;
* predicate cases are screened (:mod:`repro.sl.screen`) before they are
  instantiated: a recursive case whose root address is not available, or a
  base case whose equalities are already violated, is skipped outright;
* models are tried in ascending heap-size order, so most wrong candidates
  die on the first, cheapest model.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.cache.fingerprint import registry_fingerprint
from repro.sl.errors import EvaluationError, UnknownPredicateError
from repro.sl.exprs import (
    And,
    Eq,
    Expr,
    IntConst,
    Nil,
    Not,
    Or,
    PureFormula,
    TrueF,
    FalseF,
    Var,
)
from repro.sl.model import Heap, StackHeapModel
from repro.sl.predicates import PredicateRegistry, canonical_unfold_key
from repro.sl.screen import case_feasible
from repro.sl.spatial import Emp, PointsTo, PredApp, SepConj, Spatial, SymHeap
from repro.telemetry.counters import CacheStats


@dataclass(frozen=True)
class CheckResult:
    """The outcome of a successful reduction ``s,h ||- F ~~> h', iota``."""

    residual: Heap
    instantiation: dict[str, int]
    consumed: frozenset[int]

    def covers_everything(self) -> bool:
        """True when the formula modelled the entire heap (empty residual)."""
        return self.residual.is_empty()


def _span_name(formula: SymHeap) -> str:
    """Span label of a checked formula: its leading spatial atom's predicate."""
    atoms = formula.spatial_atoms()
    if not atoms:
        return "<pure>"
    return getattr(atoms[0], "name", type(atoms[0]).__name__)


def _try_order(models: Sequence[StackHeapModel]) -> list[int]:
    """Indexes of ``models``, smallest heap first: the fail-fast try order."""
    return sorted(range(len(models)), key=lambda index: len(models[index].heap))


@dataclass
class _SearchState:
    """Mutable bookkeeping shared across one top-level ``check`` call."""

    steps: int = 0
    solutions: int = 0
    max_depth: int = 0
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


#: Search steps per ``check`` call or skeleton enumeration; beyond it the
#: best solution found so far is returned (or ``None``) and a skeleton
#: stream stays incomplete.
MAX_STEPS = 50_000

#: Complete reductions enumerated before settling on the best one found;
#: keeps the search cheap on heavily ambiguous formulas.  The group kernel
#: replicates the same cap when it settles variants off a stream.
MAX_SOLUTIONS = 64

#: Entries one skeleton stream holds; a stream cut off here stays
#: incomplete (a safety valve for combinatorial skeletons).
STREAM_MAX_ENTRIES = 4096


class ModelChecker:
    """Checks symbolic heaps against concrete stack-heap models.

    Parameters
    ----------
    registry:
        The inductive predicate definitions that formulas may refer to.
    structs:
        A :class:`~repro.lang.types.StructRegistry`.  With one, skeleton
        streams are keyed on canonical heap forms (see
        :mod:`repro.sl.model`): they are then shared across
        address-renamed models, with environments translated back through
        the witness bijection lazily.  Without one (or when a heap's
        canonicalization is not provably exact) the keys stay concrete.

    The search budgets are the module constants :data:`MAX_STEPS`,
    :data:`MAX_SOLUTIONS` and :data:`STREAM_MAX_ENTRIES`, the same for every
    checker -- which is what lets checkers share streams.  A checker built
    inside :func:`stream_pool` (an engine batch) shares that block's one
    stream memo with every other checker built there; any other checker
    keeps a private memo.
    """

    def __init__(self, registry: PredicateRegistry, structs=None):
        self.registry = registry
        self.structs = structs
        #: The work counters of this checker, counted in place by the
        #: search, the screen, the candidate loop and the group kernel; the
        #: owning driver adds its own counters to the same struct.
        self.stats = CacheStats()
        #: Memoized skeleton streams: (registry space, skeleton structural
        #: key, model) -> :class:`EnvStream`, LRU-bounded by
        #: ``_STREAM_MEMO_LIMIT``.  The memo of the engine batch this
        #: checker was built in (see :func:`stream_pool`), else a private one.
        memo = getattr(_MEMO_SCOPE, "memo", None)
        self.shares_streams = memo is not None
        self._streams: StreamMemo = StreamMemo() if memo is None else memo
        #: The driver's whole-location results, held by the same memo.
        self.locations = self._streams.locations
        #: Optional disk tier beneath the canonical-keyed caches (set by
        #: :meth:`repro.cache.tier.PersistentCache.attach`; ``None`` keeps
        #: every code path byte-identical to the cache-less checker).
        self.persistent = None
        #: Optional span tracer (set by the owning :class:`Sling`; ``None``
        #: keeps ``check_all``/``check_batch`` on the untraced fast path).
        self.tracer = None
        #: Optional fault-injection plan (set by the owning :class:`Sling`;
        #: ``None`` keeps the stream-materialization site untouched).
        self.fault_plan = None
        #: The group decision kernel, looked up here rather than at import:
        #: :mod:`repro.sl.kernels` imports names from this module at load
        #: time.
        from repro.sl.kernels import decide_group

        self._kernel = decide_group
        #: Registry fingerprint (computed lazily; see :meth:`registry_space`).
        self._registry_space: str | None = None

    # ------------------------------------------------------------------ API --

    def check(self, model: StackHeapModel, formula: SymHeap) -> CheckResult | None:
        """Run the reduction of Definition 2; ``None`` when no reduction exists.

        Counted in ``checker_misses``.  The selected reduction is the first
        of maximal coverage in enumeration order; the enumeration stops at
        the first full-coverage reduction, after ``MAX_SOLUTIONS``
        reductions, or when the step budget expires.
        """
        stats = self.stats
        stats.checker_misses += 1
        env = dict(model.stack)
        unknowns = set(formula.exists)
        # Free variables of the formula must be interpretable by the stack.
        for name in formula.free_vars():
            if name not in env:
                return None

        spatials = list(formula.spatial_atoms())
        pures = _pure_conjuncts(formula.pure)
        state = _SearchState(
            max_depth=3 * len(model.heap) + 3 * (len(spatials) + len(pures)) + 30
        )
        domain = model.heap.domain()
        available = set(domain)
        best: CheckResult | None = None
        try:
            for solution_env, avail in self._solve(spatials, pures, env, unknowns, available, model, state, 0):
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
                state.solutions += 1
                if result.covers_everything() or state.solutions >= MAX_SOLUTIONS:
                    break
        except CheckBudgetExceeded:
            pass
        if state.max_trail > stats.max_trail_depth:
            stats.max_trail_depth = state.max_trail
        return best

    def check_all(
        self, models: Sequence[StackHeapModel], formula: SymHeap
    ) -> list[CheckResult] | None:
        """Check a formula against every model; ``None`` unless all succeed.

        The models are *tried* in :func:`_try_order`, smallest heap first,
        so most wrong candidates are settled by the first, cheapest check.
        The returned list is always in input order.
        """
        if self.tracer is None:
            return self._check_all(models, formula)
        with self.tracer.span(
            "checker_call", name=_span_name(formula), models=len(models)
        ) as span:
            results = self._check_all(models, formula)
            span.set(refuted=results is None)
        return results

    def _check_all(
        self, models: Sequence[StackHeapModel], formula: SymHeap
    ) -> list[CheckResult] | None:
        results: list[CheckResult | None] = [None] * len(models)
        for position, index in enumerate(_try_order(models)):
            result = self.check(models[index], formula)
            if result is None:
                if position == 0:
                    self.stats.refuted_by_first_model += 1
                return None
            results[index] = result
        return results  # type: ignore[return-value]

    def satisfies(self, model: StackHeapModel, formula: SymHeap) -> bool:
        """Exact satisfaction ``s,h |= F`` (the residual heap must be empty)."""
        result = self.check(model, formula)
        return result is not None and result.covers_everything()

    # ------------------------------------------------------- batched checking --

    def check_batch(
        self,
        models: Sequence[StackHeapModel],
        skeleton: SymHeap,
        pure_variants: Sequence["PureVariant"],
    ) -> list:
        """Decide many pure variants of one spatial skeleton in bulk.

        ``skeleton`` is a single predicate application whose non-root slots
        are existentially relaxed (see :func:`build_skeleton`); each
        :class:`PureVariant` re-pins some of those slots to stack values and
        carries the exact per-candidate formula.  The trail-based ``_solve``
        search runs once per (skeleton, model) and enumerates every
        satisfying environment into a memoized :class:`EnvStream`; the group
        kernel (:func:`repro.sl.kernels.decide_group`) then decides every
        variant from its slot equalities against the streamed environments.

        Exactness contract (the batched pipeline is bit-identical to
        per-candidate :meth:`check_all`):

        * every solution of the per-candidate search projects onto a stream
          entry its matcher accepts (the relaxed search explores a branch
          superset, entries keep their deferred pure goals and the matcher
          re-runs the ``_discharge_deferred`` endgame under the variant's
          bindings), so *no match against a complete stream* is a sound
          refutation -- and refutation is enumeration-order independent;
        * a variant whose matches (on every model) consume nothing can only
          produce an all-vacuous or refuted ``check_all`` outcome, both of
          which the candidate loop drops;
        * accepted variants are settled from the stream by replicating the
          exact search's selection rule (first solution of maximal consumed
          size, capped at :data:`MAX_SOLUTIONS`) -- and whenever that selection
          could depend on the per-candidate enumeration order (ties between
          distinct best reductions, too many solutions, incomplete streams)
          the variant falls back to the exact :meth:`check_all`, which
          reproduces residuals, instantiations and tie-breaking
          bit-for-bit.

        Returns one entry per variant: ``None`` (refuted), the
        :data:`BATCH_VACUOUS` sentinel (provably dropped by the vacuity
        filter), or the list of per-model :class:`CheckResult`.
        """
        if self.tracer is None:
            return self._check_batch(models, skeleton, pure_variants)
        with self.tracer.span(
            "candidate_group",
            name=_span_name(skeleton),
            variants=len(pure_variants),
            models=len(models),
        ) as span:
            outcomes = self._check_batch(models, skeleton, pure_variants)
            span.set(
                refuted=sum(1 for outcome in outcomes if outcome is None),
                vacuous=sum(1 for outcome in outcomes if outcome is BATCH_VACUOUS),
            )
        return outcomes

    def _check_batch(
        self,
        models: Sequence[StackHeapModel],
        skeleton: SymHeap,
        pure_variants: Sequence["PureVariant"],
    ) -> list:
        variants = list(pure_variants)
        if not variants:
            return []
        count = len(models)
        if count == 0:
            return [self.check_all(models, variant.formula) for variant in variants]

        atom = skeleton.spatial_atoms()[0]
        slot_names = tuple(arg.name for arg in atom.args)
        root_position = next(
            position
            for position, name in enumerate(slot_names)
            if not name.startswith(_SLOT_PREFIX)
        )
        root_name = slot_names[root_position]

        stats = self.stats
        total = len(variants)
        pending = [True] * total
        refuted = [False] * total
        #: Every model so far produced a best reduction consuming nothing
        #: (the precondition of the vacuity short-circuit).
        vacuous_ok = [True] * total
        #: Some (variant, model) pair was undecidable from its stream alone
        #: (incomplete stream, too many solutions, or a genuine tie between
        #: distinct best reductions): only the exact search settles it.
        needs_exact = [False] * total
        #: Per-variant, per-model reductions settled from the streams.
        settled: list[list[CheckResult | None]] = [[None] * count for _ in range(total)]

        for position, model_index in enumerate(_try_order(models)):
            live = [index for index in range(total) if pending[index]]
            if not live:
                break
            model = models[model_index]
            stack = model.stack_map
            domain = model.heap.domain()
            root_value = stack.get(root_name)
            if root_value is None:
                # The root variable itself is uninterpretable here: the
                # exact search refutes every candidate of the group.
                for index in live:
                    pending[index] = False
                    refuted[index] = True
                if position == 0:
                    stats.refuted_by_first_model += len(live)
                continue
            stream, view = self._get_stream(skeleton, model, root_position, root_value)
            refuted_here = 0
            # Resolve every live variant's requirements, then settle the
            # whole group against this model in one kernel invocation
            # (posting-list intersections over the stream's slot columns).
            work: list[tuple[int, PureVariant, tuple, tuple]] = []
            for index in live:
                variant = variants[index]
                required = variant.resolve(stack)
                if required is None:
                    # A free variable of the candidate has no stack value
                    # in this model: the exact search refutes it outright.
                    pending[index] = False
                    refuted[index] = True
                    refuted_here += 1
                    continue
                work.append(
                    (
                        index,
                        variant,
                        tuple(pair[0] for pair in required),
                        tuple(pair[1] for pair in required),
                    )
                )
            if work:
                verdicts = self._run_kernel(
                    atom.name, stream, view, slot_names, stack, model, domain, work
                )
                for item, verdict in zip(work, verdicts):
                    index = item[0]
                    if verdict is None:
                        pending[index] = False
                        refuted[index] = True
                        refuted_here += 1
                    elif verdict is _UNDECIDED:
                        needs_exact[index] = True
                    else:
                        settled[index][model_index] = verdict
                        if verdict.consumed:
                            vacuous_ok[index] = False
            if position == 0:
                stats.refuted_by_first_model += refuted_here

        outcomes: list = []
        for index in range(total):
            if refuted[index]:
                outcomes.append(None)
            elif needs_exact[index]:
                stats.batch_exact_fallbacks += 1
                outcomes.append(self.check_all(models, variants[index].formula))
            elif vacuous_ok[index]:
                outcomes.append(BATCH_VACUOUS)
            else:
                outcomes.append(settled[index])
        return outcomes

    def _run_kernel(
        self,
        predicate: str,
        stream: "EnvStream",
        view: "_StreamView",
        slot_names: tuple[str, ...],
        stack: dict[str, int],
        model: StackHeapModel,
        domain: frozenset[int],
        work: list,
    ) -> list:
        """One group-kernel invocation, wrapped in a ``variant_decide`` span.

        ``work`` items are ``(variant index, variant, positions, values)``;
        the returned verdict list is aligned with it.  ``predicate`` names
        the span.  The untraced path is a single attribute test away from
        calling the kernel directly.
        """
        kernel = self._kernel
        if self.tracer is None:
            return kernel(self, stream, view, slot_names, stack, model, domain, work)
        with self.tracer.span(
            "variant_decide", name=predicate, variants=len(work)
        ) as span:
            verdicts = kernel(self, stream, view, slot_names, stack, model, domain, work)
            span.set(entries=len(stream.entries), complete=stream.complete)
        return verdicts

    def registry_space(self) -> str:
        """The fingerprint of this checker's predicate registry.

        It keys what checkers share across instances -- the batch stream
        memo and the thread's disk-tier table
        (:func:`repro.cache.tier.bind_tier`) -- so a predicate-definition
        change can never be served state derived from another registry.
        Computed once per checker (the registry is fixed at construction).
        """
        space = self._registry_space
        if space is None:
            space = self._registry_space = registry_fingerprint(self.registry)
        return space

    def shareable_streams(self, since: int = 0) -> Iterator[tuple[tuple, "EnvStream"]]:
        """The memo entries that may be written to disk, as ``(key, stream)``.

        Only streams still in the memo that were logged in its ``finished``
        list at or after position ``since`` (a flush passes where its
        previous call stopped), in this checker's registry space, with the
        space prefix removed from the key.  Only a *complete* stream under
        a canonical key is a pure function of its key: a concrete key
        embeds process-local addresses, and a stream cut off by the entry
        cap or the step budget is not a full enumeration.  The log holds
        canonical keys only, and the stream under a logged key is checked
        again: it may have been evicted and re-inserted unfinished.
        """
        space = self.registry_space()
        streams = self._streams
        for key in streams.finished[since:]:
            if key[0] == space:
                stream = streams.get(key)
                if stream is not None and stream.complete:
                    yield key[1:], stream

    def _get_stream(
        self,
        skeleton: SymHeap,
        model: StackHeapModel,
        root_position: int,
        root_value: int,
    ) -> "tuple[EnvStream, _StreamView]":
        """The (memoized) solution stream of one skeleton against one model.

        The memo key deliberately drops everything the relaxed search cannot
        observe: the skeleton mentions only the root variable and its
        reserved slot existentials, so the stream is a function of
        (predicate, arity, root position, root *value*, heap) alone.  Models
        that alias the same structure through different pointer variables --
        or share a residual heap across result branches -- therefore share
        one enumeration.

        With a struct registry (and an exact canonicalization) the concrete
        ``(root value, heap)`` tail of the key is replaced by ``(root orbit,
        canonical heap form)``: address-renamed copies of a heap then share
        one stream, whose entries are stored in canonical coordinates and
        translated per consumer by the returned :class:`_StreamView` (the
        witness bijection, applied lazily).

        Every key starts with the registry space, so a memo shared by the
        jobs of an engine batch never serves a stream across predicate
        definitions.  A miss tries the disk tier, then solves.
        """
        atom = skeleton.spatial_atoms()[0]
        canon = None
        if self.structs is not None:
            heap_canon = model.heap.canonical(root_value, self.structs)
            if heap_canon.exact:
                canon = heap_canon
        if canon is None:
            tail = (root_value, model.heap)
            view = _IDENTITY_VIEW
        else:
            tail = (canon.root_tag, canon.form)
            view = _StreamView(canon)
        key = (self.registry_space(), atom.name, len(atom.args), root_position, *tail)
        streams = self._streams
        stream = streams.get(key)
        if stream is not None:
            streams.move_to_end(key)
            self.stats.env_stream_reuses += 1
            if canon is not None and (
                stream.source_root != root_value
                or stream.source_heap_hash != hash(model.heap)
            ):
                # This hit only exists because of canonical keying: the
                # consumer's concrete heap differs from the one the stream
                # was generated from.  Hash comparison (cached on the heap)
                # keeps the classification O(1); a collision miscounting a
                # hit as concrete only skews this statistic, nothing else.
                self.stats.canonical_stream_hits += 1
            return stream, view
        if self.fault_plan is not None:
            # Fault-injection site: a fresh stream is about to be
            # materialized (disk load or skeleton solve).  An injected
            # raise propagates out of the checker like any real failure
            # would -- the engine classifies and retries it.
            from repro.faults import maybe_inject

            maybe_inject(self.fault_plan, "stream_materialize", qualifier=atom.name)
        stream = None
        if canon is not None and self.persistent is not None:
            # A finished enumeration in canonical space, directly readable
            # through this consumer's view; counted in neither
            # ``skeletons_solved`` nor ``env_stream_reuses``.
            stream = self.persistent.load_stream(key[1:])
            if stream is not None:
                streams.finished.append(key)
        if stream is None:
            stream = EnvStream(
                lambda: self._iter_skeleton_leaves(model, skeleton),
                tuple(arg.name for arg in atom.args),
                len(model.heap),
                STREAM_MAX_ENTRIES,
                canon=canon,
                source_root=root_value,
                source_heap_hash=hash(model.heap),
                tracer=self.tracer,
                finished=None if canon is None else (streams.finished, key),
            )
            self.stats.skeletons_solved += 1
        streams[key] = stream
        if len(streams) > _STREAM_MEMO_LIMIT:
            streams.popitem(last=False)
        return stream, view

    def _iter_skeleton_leaves(self, model: StackHeapModel, skeleton: SymHeap):
        """Raw-leaf enumeration of the skeleton search (EnvStream source).

        Mirrors :meth:`check` exactly -- same free-variable guard,
        same depth budget -- but yields every leaf ``(env, available,
        deferred pures, unknowns)`` instead of discharging deferred goals
        and selecting a best solution.
        """
        env = dict(model.stack)
        unknowns = set(skeleton.exists)
        for name in skeleton.free_vars():
            if name not in env:
                return
        spatials = list(skeleton.spatial_atoms())
        state = _SearchState(
            max_depth=3 * len(model.heap) + 3 * len(spatials) + 30, raw=True
        )
        available = set(model.heap.domain())
        try:
            yield from self._solve(spatials, [], env, unknowns, available, model, state, 0)
        finally:
            if state.max_trail > self.stats.max_trail_depth:
                self.stats.max_trail_depth = state.max_trail

    # ------------------------------------------------------------ search core --

    def _solve(
        self,
        spatials: list[Spatial],
        pures: list[PureFormula],
        env: dict[str, int],
        unknowns: set[str],
        available: set[int],
        model: StackHeapModel,
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
                        outcome = self._step_pure(goal, env, unknowns, trail)
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
                final_env = self._discharge_deferred(pures, env, unknowns)
                if final_env is None:
                    return
                yield final_env, available
                return

            goal = self._pick_spatial(spatials, env)
            rest = list(spatials)
            rest.remove(goal)

            cls = goal.__class__
            if cls is PointsTo:
                yield from self._solve_points_to(goal, rest, pures, env, unknowns, available, model, state, depth)
            elif cls is PredApp:
                yield from self._solve_pred(goal, rest, pures, env, unknowns, available, model, state, depth)
            elif cls is Emp:
                yield from self._solve(rest, pures, env, unknowns, available, model, state, depth)
            elif cls is SepConj:
                expanded = list(goal.atoms()) + rest
                yield from self._solve(expanded, pures, env, unknowns, available, model, state, depth)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unexpected spatial goal {goal!r}")
        finally:
            if len(trail) > entry_mark:
                _undo(env, available, trail, entry_mark)

    def _pick_spatial(self, goals: list[Spatial], env: dict[str, int]) -> Spatial:
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

    # -- points-to ---------------------------------------------------------------

    def _solve_points_to(
        self,
        goal: PointsTo,
        rest: list[Spatial],
        pures: list[PureFormula],
        env: dict[str, int],
        unknowns: set[str],
        available: set[int],
        model: StackHeapModel,
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
        heap_get = model.heap.get
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
                yield from self._solve(
                    rest, pures, env, unknowns, available, model, state, depth
                )
            _undo(env, available, trail, mark)

    # -- inductive predicates ------------------------------------------------------

    def _solve_pred(
        self,
        goal: PredApp,
        rest: list[Spatial],
        pures: list[PureFormula],
        env: dict[str, int],
        unknowns: set[str],
        available: set[int],
        model: StackHeapModel,
        state: _SearchState,
        depth: int,
    ) -> Iterator[tuple[dict[str, int], set[int]]]:
        try:
            definition = self.registry.get(goal.name)
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
        heap_get = model.heap.get
        unfold_key: object = _KEY_UNSET
        for case_index in range(len(definition.cases)):
            if not case_feasible(
                screens[case_index], arg_values, heap_get, available
            ):
                # The case's own equalities or points-to anchors are already
                # violated (e.g. a recursive case whose root address is not
                # available): instantiating it could only fail.
                self.stats.pruned_cases += 1
                continue
            if unfold_key is _KEY_UNSET:
                unfold_key = canonical_unfold_key(goal.args)
            case_exists, case_atoms, case_conjs = definition.instantiate_case_goals(
                case_index, goal.args, unfold_key
            )
            unknowns.update(case_exists)
            case_spatials = case_atoms + rest
            case_pures = case_conjs + pures
            try:
                yield from self._solve(
                    case_spatials, case_pures, env, unknowns, available, model, state, depth + 1
                )
            finally:
                unknowns.difference_update(case_exists)

    def _discharge_deferred(
        self, goals: list[PureFormula], env: dict[str, int], unknowns: set[str]
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
                outcome = self._step_pure(goal, env, unknowns, local_trail)
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

    # -- pure goals -----------------------------------------------------------------

    def _step_pure(
        self, goal: PureFormula, env: dict[str, int], unknowns: set[str], trail: list
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
                outcome = self._step_pure(part, env, unknowns, trail)
                if outcome is _FAIL or outcome is _DEFER:
                    _undo_env(env, trail, mark)
                    return outcome
            return _OK
        if cls is Or:
            deferred = False
            for part in goal.parts:
                mark = len(trail)
                outcome = self._step_pure(part, env, unknowns, trail)
                if outcome is _OK:
                    return _OK
                _undo_env(env, trail, mark)
                if outcome is _DEFER:
                    deferred = True
            return _DEFER if deferred else _FAIL
        if cls is Not:
            mark = len(trail)
            inner = self._step_pure(goal.operand, env, unknowns, trail)
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

#: Outcome sentinel of ``check_batch``: the variant is not refuted, but every
#: reduction it admits consumes nothing, so the candidate loop's vacuity
#: filter is guaranteed to drop it without needing the concrete results.
BATCH_VACUOUS = object()

#: Internal verdict of the group kernel: the stream cannot settle this
#: (variant, model) pair exactly; the caller must run the exact search.
_UNDECIDED = object()

#: Upper bound on the streams one memo holds, private or shared by an
#: engine batch (LRU-evicted beyond it).  Above the ~350 streams of the
#: largest benchsuite job, so a memo never evicts inside one job.
_STREAM_MEMO_LIMIT = 512

#: Prefix of the synthetic skeleton slot variables.  ``?`` cannot occur in
#: parsed/program variable names, so slots never shadow stack variables.
_SLOT_PREFIX = "?w"


@dataclass(frozen=True)
class PureVariant:
    """One candidate of a skeleton group, expressed as pure slot deltas.

    A candidate ``p(a0, ..., an)`` with root ``r`` at position ``k`` is
    equivalent to ``exists w... . p(w0, ..., r@k, ..., wn) /\\ wi = ai`` for
    its non-fresh arguments -- the skeleton plus a conjunction of slot
    equalities.  ``formula`` keeps the exact per-candidate symbolic heap for
    the fallback path (and for reference comparisons).
    """

    #: The original candidate formula (fallback / reference semantics).
    formula: SymHeap
    #: ``(slot position, stack variable)`` equalities.
    var_slots: tuple[tuple[int, str], ...]
    #: Slot positions pinned to ``nil``.
    nil_slots: tuple[int, ...] = ()
    #: ``(slot position, existential name)`` -- unconstrained, *unless* the
    #: name collides with a stack variable of a model, in which case the
    #: search resolves it against the stack (scoping quirk kept for
    #: compatibility) and the slot is pinned like a ``var_slot``.
    free_slots: tuple[tuple[int, str], ...] = ()

    def resolve(self, stack: dict[str, int]) -> tuple[tuple[int, int], ...] | None:
        """Concrete slot requirements under one model's stack.

        ``None`` when a non-fresh argument has no stack value -- the exact
        search refutes such candidates outright (uninterpretable free
        variable), so callers treat it as a refutation.
        """
        required: list[tuple[int, int]] = []
        for position, name in self.var_slots:
            value = stack.get(name)
            if value is None:
                return None
            required.append((position, value))
        for position in self.nil_slots:
            required.append((position, 0))
        for position, name in self.free_slots:
            value = stack.get(name)
            if value is not None:
                required.append((position, value))
        return tuple(required)


def build_skeleton(name: str, arity: int, root: str, root_position: int) -> SymHeap:
    """The spatial skeleton shared by every candidate ``p(.., root@k, ..)``.

    All slots except the root are relaxed to fresh existentials named with
    the reserved ``?w`` prefix (position-stable, so the structural key of a
    skeleton is canonical by construction).
    """
    slots = [
        Var(root) if position == root_position else Var(f"{_SLOT_PREFIX}{position}")
        for position in range(arity)
    ]
    exists = tuple(
        f"{_SLOT_PREFIX}{position}"
        for position in range(arity)
        if position != root_position
    )
    return SymHeap(exists=exists, spatial=PredApp(name, slots))


class _StreamView:
    """Translation between one model's addresses and a stream's coordinates.

    A stream generated under canonical keying stores its entries in
    *canonical space*: address values appear as the tagged pairs of the
    generating heap's canonical labeling.  A consumer of the stream (any
    model whose heap has the same canonical form) sees those entries through
    a view built from its *own* labeling of the same form -- encoding its
    concrete query values into canonical space for slot comparisons, and
    decoding environments, availability sets and instantiation values back
    into its concrete addresses.  The identity view (``canon=None``) serves
    concretely-keyed streams at (near) zero cost.
    """

    __slots__ = ("canon",)

    def __init__(self, canon):
        self.canon = canon

    def encode_values(self, values: tuple) -> tuple:
        canon = self.canon
        if canon is None:
            return values
        to_tag = canon.to_tag
        return tuple(to_tag.get(value, value) for value in values)

    def decode_value(self, value):
        if self.canon is None or type(value) is not tuple:
            return value
        return self.canon.from_addr[value[1]]

    def decode_avail(self, avail: frozenset) -> frozenset:
        canon = self.canon
        if canon is None:
            return avail
        from_addr = canon.from_addr
        return frozenset(from_addr[cid] for cid in avail)

    def decode_env(self, env: dict) -> dict:
        """A fresh, concrete copy of a stored environment (always a copy:
        the matcher extends it in place)."""
        canon = self.canon
        if canon is None:
            return dict(env)
        from_addr = canon.from_addr
        return {
            name: from_addr[value[1]] if type(value) is tuple else value
            for name, value in env.items()
        }


_IDENTITY_VIEW = _StreamView(None)


def _variant_instantiation(
    variant: "PureVariant",
    entry: "_StreamEntry",
    final_env: dict | None,
    stack: dict[str, int],
    slot_names: tuple[str, ...],
    view: "_StreamView",
) -> dict[str, int]:
    """The candidate's existential instantiation at one stream entry.

    Mirrors :meth:`ModelChecker.check`: a fresh argument is bound to
    whatever the search (or the deferred endgame) pinned its slot to; a
    fresh name that collides with a stack variable resolves to the stack
    value (the search seeds its environment from the stack); unconstrained
    names are omitted.
    Values read from the entry are decoded into the consumer's addresses
    (``final_env`` is already concrete).
    """
    instantiation: dict[str, int] = {}
    for position, name in variant.free_slots:
        stack_value = stack.get(name)
        if stack_value is not None:
            instantiation[name] = stack_value
            continue
        if final_env is not None:
            value = final_env.get(slot_names[position])
        else:
            value = view.decode_value(entry.values[position])
        if value is not None:
            instantiation[name] = value
    return instantiation


class _StreamEntry:
    """One satisfying leaf of a skeleton search, snapshotted for reuse."""

    __slots__ = ("values", "avail", "nconsumed", "env", "unknowns", "deferred")


class EnvStream:
    """The solutions of one (spatial skeleton, model) search.

    :meth:`ensure` enumerates the whole raw-leaf search once, snapshotting
    every leaf; the entries are then shared by every pure variant that
    consults the stream -- within one ``check_batch`` call and, through the
    checker's stream memo, across candidate batches and the jobs of an
    engine batch.  ``complete`` distinguishes an exhausted enumeration
    (refutations may be trusted) from one cut off by the step budget or the
    entry cap (consumers must fall back to exact checks).  ``source`` is a
    zero-argument factory of the raw-leaf iterator (``None`` for a stream
    built already enumerated), so an interrupted enumeration can start over.

    Under canonical keying (``canon`` set) the snapshots are stored in
    canonical space -- slot values and environments through the generating
    heap's address tags, availability sets as canonical ids -- so that any
    consumer with the same canonical form can read them through its own
    :class:`_StreamView`.  ``source_root``/``source_heap_hash`` identify
    the concrete (root value, heap) the stream was generated from, letting
    the checker cheaply count the hits that only canonical keying made
    possible.
    """

    __slots__ = (
        "slot_names",
        "entries",
        "complete",
        "source_root",
        "source_heap_hash",
        "_source",
        "_heap_size",
        "_max_entries",
        "_canon",
        "_tracer",
        "_indexes",
        "_settle_cache",
        "_has_deferred",
        "_finished",
    )

    def __init__(
        self,
        source,
        slot_names: tuple[str, ...],
        heap_size: int,
        max_entries: int,
        canon=None,
        source_root: int | None = None,
        source_heap_hash: int | None = None,
        tracer=None,
        finished: tuple[list, tuple] | None = None,
    ):
        self.slot_names = slot_names
        self.entries: list[_StreamEntry] = []
        self.complete = False
        self.source_root = source_root
        self.source_heap_hash = source_heap_hash
        self._source = source
        self._heap_size = heap_size
        self._max_entries = max_entries
        self._canon = canon
        self._tracer = tracer
        #: ``(log, key)``: the memo log this stream appends its key to when
        #: its enumeration completes (see :class:`StreamMemo`).
        self._finished = finished
        #: Columnar side-representation: slot position -> ``(postings,
        #: wildcards)`` where ``postings`` maps a stored slot value to the
        #: ascending list of entry indices holding it and ``wildcards`` is
        #: the ascending list of entries whose slot is unbound (``None``,
        #: compatible with any pinned value).  Built lazily per position by
        #: :meth:`position_index`, only after :meth:`ensure` -- entries are
        #: immutable from then on, so the index never goes stale.  Values
        #: live in the stream's own coordinate space (concrete addresses or
        #: canonical tags); consumers encode their query values through
        #: their ``_StreamView`` first.
        self._indexes: dict[int, tuple[dict, list[int]]] | None = None
        #: Settle-record memo of the group kernel: ``(positions, encoded
        #: values, consumer key) -> record``.  A record captures the whole
        #: match/best-size/tie computation for one pinned-value combination,
        #: which is variant-independent -- only the final instantiation step
        #: differs per variant.  Streams are reused across groups and
        #: batches, so records carry over with them.  See
        #: :func:`repro.sl.kernels.decide_group` for the key discipline.
        self._settle_cache: dict | None = None
        self._has_deferred: bool | None = None

    def ensure(self) -> bool:
        """Enumerate the whole skeleton search; True when it completed.

        The first call drains the source into ``entries`` inside one
        main-track ``stream_materialize`` span (when traced); every later
        call returns at once, and the entry list is immutable from then on.
        A stream cut off by the step budget or the entry cap stays
        incomplete.  Any other exception (a job timeout, an injected fault)
        leaves the stream empty, and the next call enumerates it afresh.
        """
        if self._source is None:
            return self.complete
        source = self._source()
        tracer = self._tracer
        self._tracer = None
        span = None if tracer is None else tracer.begin("stream_materialize")
        entries = self.entries
        slot_names = self.slot_names
        heap_size = self._heap_size
        max_entries = self._max_entries
        canon = self._canon
        if canon is not None:
            to_tag = canon.to_tag
            to_id = canon.to_id
        try:
            for env, available, deferred, unknowns in source:
                entry = _StreamEntry()
                if canon is None:
                    entry.values = tuple(env.get(name) for name in slot_names)
                    entry.avail = frozenset(available)
                else:
                    entry.values = tuple(
                        to_tag.get(value, value) if value is not None else None
                        for value in (env.get(name) for name in slot_names)
                    )
                    entry.avail = frozenset(to_id[addr] for addr in available)
                entry.nconsumed = heap_size - len(available)
                if deferred:
                    # The endgame is re-run per variant: keep the leaf's full
                    # environment and scope alongside the deferred goals.
                    entry.deferred = tuple(deferred)
                    if canon is None:
                        entry.env = dict(env)
                    else:
                        entry.env = {
                            name: to_tag.get(value, value)
                            for name, value in env.items()
                        }
                    entry.unknowns = frozenset(unknowns)
                else:
                    entry.deferred = None
                    entry.env = None
                    entry.unknowns = None
                entries.append(entry)
                if len(entries) >= max_entries:
                    # Safety valve for combinatorial skeletons: close out and
                    # leave the stream marked incomplete.
                    source.close()
                    break
            else:
                self.complete = True
                if self._finished is not None:
                    log, key = self._finished
                    log.append(key)
        except CheckBudgetExceeded:
            pass
        except BaseException:
            entries.clear()
            raise
        finally:
            if span is not None:
                span.set(entries=len(entries), complete=self.complete)
                tracer.end(span)
        self._source = None
        return self.complete

    def position_index(self, position: int) -> tuple[dict, list[int]]:
        """The ``(postings, wildcards)`` index of one slot position.

        Built on first request and cached for the stream's lifetime; callers
        must :meth:`ensure` first (the kernel does).  A variant pinning
        ``position`` to value ``v`` matches exactly the entries in
        ``postings.get(v, []) + wildcards`` -- both lists ascending, so
        ordered merges preserve the stream's enumeration order, which the
        selection rule ("first solution of maximal size") depends on.
        """
        indexes = self._indexes
        if indexes is None:
            indexes = self._indexes = {}
        cached = indexes.get(position)
        if cached is None:
            postings: dict = {}
            wildcards: list[int] = []
            for index, entry in enumerate(self.entries):
                value = entry.values[position]
                if value is None:
                    wildcards.append(index)
                else:
                    posting = postings.get(value)
                    if posting is None:
                        postings[value] = [index]
                    else:
                        posting.append(index)
            cached = (postings, wildcards)
            indexes[position] = cached
        return cached

    def has_deferred(self) -> bool:
        """True when any entry carries deferred pure goals.

        Computed once after :meth:`ensure` (entries are immutable then).
        Deferred-free streams settle view-independently -- matching happens
        entirely in the stream's own coordinate space -- which lets the
        kernel share settle records across every consumer view.
        """
        cached = self._has_deferred
        if cached is None:
            cached = self._has_deferred = any(
                entry.deferred is not None for entry in self.entries
            )
        return cached


class StreamMemo(OrderedDict):
    """A stream memo: key -> :class:`EnvStream`, least recently used first.

    ``finished`` lists, in order, the canonical key of every stream that
    completed in this memo or was loaded into it from disk: the streams a
    disk flush may write.  A flush reads the log from where its previous
    call stopped, so its cost follows the streams finished since then, not
    the memo's size (:meth:`ModelChecker.shareable_streams`).

    ``locations`` holds whole-location results of the driver, keyed by
    content (see :meth:`repro.core.sling.Sling.infer_from_models`): they
    share the streams' scope, so an engine batch infers each distinct
    location once.  It keeps formulas only, never models.
    """

    def __init__(self):
        super().__init__()
        self.finished: list[tuple] = []
        self.locations: dict[tuple, tuple] = {}


#: Per-thread home of the open batch memo: checkers bind to it at
#: construction.  A forked engine worker inherits its parent thread's memo.
_MEMO_SCOPE = threading.local()


@contextmanager
def stream_pool():
    """Share one stream memo among the checkers built in this block.

    A stream is a function of its memo key (registry space, skeleton, heap
    region) and the module budgets, so every job of an engine batch may
    read the streams an earlier job enumerated, and the location results
    an earlier job inferred (``StreamMemo.locations``).  Scoped to the
    calling thread and restored on exit, also when the block raises: a
    checker built afterwards, or on another thread, gets a private memo.
    """
    previous = getattr(_MEMO_SCOPE, "memo", None)
    memo = _MEMO_SCOPE.memo = StreamMemo()
    try:
        yield memo
    finally:
        _MEMO_SCOPE.memo = previous


# Sentinel for the lazily computed unfold key in ``_solve_pred`` (the key
# itself may legitimately be ``None`` for non-canonical argument tuples).
_KEY_UNSET = object()


def canonical_formula_key(formula: SymHeap) -> str:
    """Render a formula with its existentials alpha-renamed positionally.

    A readable alpha-equivalence key for debugging and tests; it induces the
    same equivalence classes as the cheaper :meth:`SymHeap.structural_key`.
    """
    from repro.sl.pretty import pretty

    if not formula.exists:
        return pretty(formula)
    renaming: dict[str, Expr] = {
        name: Var(f"?e{position}") for position, name in enumerate(formula.exists)
    }
    return pretty(
        SymHeap(
            tuple(f"?e{position}" for position in range(len(formula.exists))),
            formula.spatial.substitute(renaming),
            formula.pure.substitute(renaming),
        )
    )


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


def _pure_conjuncts(pure: PureFormula) -> list[PureFormula]:
    """Flatten a pure formula into a list of conjuncts."""
    if isinstance(pure, TrueF):
        return []
    if isinstance(pure, And):
        result: list[PureFormula] = []
        for part in pure.parts:
            result.extend(_pure_conjuncts(part))
        return result
    return [pure]


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
    from repro.sl.exprs import Ge, Gt, Le, Lt  # local import to avoid cycle noise

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
