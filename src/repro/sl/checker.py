"""Symbolic-heap model checking: deciding candidates against models.

:class:`ModelChecker` decides whether a candidate symbolic heap reduces on a
set of concrete stack-heap models (Definition 2 of the paper, solved by the
backtracking search of :mod:`repro.sl.search`).  There are two ways to
decide a candidate.  :meth:`ModelChecker.check_all` runs the exact search
once per (candidate, model): it is the reference semantics.
:meth:`ModelChecker.check_batch` is the fast path: it shares one relaxed
search per (skeleton, model) -- a memoized skeleton stream
(:mod:`repro.sl.stream`) -- among a whole candidate group and settles the
group through the columnar kernel (:mod:`repro.sl.kernels`), falling back
to the exact search whenever a verdict could depend on the enumeration
order.  Both try models in ascending heap-size order, so most wrong
candidates die on the first, cheapest model (see ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.cache.fingerprint import registry_fingerprint
from repro.sl import kernels, search
from repro.sl.exprs import Var
from repro.sl.model import CanonicalForm, HeapCanon, StackHeapModel
from repro.sl.predicates import PredicateRegistry
from repro.sl.search import CheckResult
from repro.sl.spatial import PredApp, SymHeap
from repro.sl.stream import EnvStream, StreamMemo, batch_memo
from repro.telemetry.counters import CacheStats


def _span_name(formula: SymHeap) -> str:
    """Span label of a checked formula: its leading spatial atom's predicate."""
    atoms = formula.spatial_atoms()
    if not atoms:
        return "<pure>"
    return getattr(atoms[0], "name", type(atoms[0]).__name__)


def _try_order(models: Sequence[StackHeapModel]) -> list[int]:
    """Indexes of ``models``, smallest heap first: the fail-fast try order."""
    return sorted(range(len(models)), key=lambda index: len(models[index].heap))


class ModelChecker:
    """Checks symbolic heaps against concrete stack-heap models.

    Parameters
    ----------
    registry:
        The inductive predicate definitions that formulas may refer to.
    structs:
        A :class:`~repro.lang.types.StructRegistry`.  With one, skeleton
        streams are keyed on exact canonical heap forms (see
        :mod:`repro.sl.model`): they are then shared across
        address-renamed models.  Without one (or when a heap's
        canonicalization is not provably exact) the keys stay concrete.

    The search budgets are the module constants ``MAX_STEPS`` and
    ``MAX_SOLUTIONS`` of :mod:`repro.sl.search` and ``STREAM_MAX_ENTRIES`` of
    :mod:`repro.sl.stream`, the same for every checker -- which is what lets
    checkers share streams.  A checker built inside
    :func:`~repro.sl.stream.stream_pool` (an engine batch, a serve daemon's
    executor) shares that block's one stream memo with every other checker
    built there; any other checker keeps a private memo.
    """

    def __init__(self, registry: PredicateRegistry, structs=None):
        self.registry = registry
        self.structs = structs
        #: The work counters of this checker, counted in place by the
        #: search, the screen, the candidate loop and the group kernel; the
        #: owning driver adds its own counters to the same struct.
        self.stats = CacheStats()
        #: Memoized skeleton streams: (registry space, skeleton structural
        #: key, model) -> :class:`EnvStream`, LRU-bounded.  The memo of the
        #: engine batch or serve daemon this checker was built in (see
        #: :func:`~repro.sl.stream.stream_pool`), else a private one.
        memo = batch_memo()
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
        #: Registry fingerprint (computed lazily; see :meth:`registry_space`).
        self._registry_space: str | None = None

    # ------------------------------------------------------------------ API --

    def check(self, model: StackHeapModel, formula: SymHeap) -> CheckResult | None:
        """Run the reduction of Definition 2 (:func:`repro.sl.search.reduce`);
        ``None`` when no reduction exists.  Counted in ``checker_misses``."""
        self.stats.checker_misses += 1
        return search.reduce(self.registry, self.stats, model, formula)

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
        carries the exact per-candidate formula.  The trail-based search
        (:func:`repro.sl.search.skeleton_leaves`) runs once per (skeleton,
        model) and enumerates every satisfying environment into a memoized
        :class:`EnvStream`; the group kernel
        (:func:`repro.sl.kernels.decide_group`) then decides every variant
        from its slot equalities against the streamed environments.

        Exactness contract (the batched pipeline is bit-identical to
        per-candidate :meth:`check_all`):

        * every solution of the per-candidate search projects onto a stream
          entry its matcher accepts (the relaxed search explores a branch
          superset, entries keep their deferred pure goals and the matcher
          re-runs the ``discharge_deferred`` endgame under the variant's
          bindings), so *no match against a complete stream* is a sound
          refutation -- and refutation is enumeration-order independent;
        * a variant whose matches (on every model) consume nothing can only
          produce an all-vacuous or refuted ``check_all`` outcome, both of
          which the candidate loop drops;
        * accepted variants are settled from the stream by replicating the
          exact search's selection rule (first solution of maximal consumed
          size, capped at ``MAX_SOLUTIONS``) -- and whenever that selection
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
                    elif verdict is kernels.UNDECIDED:
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
        stream: EnvStream,
        view: HeapCanon,
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
        calling the kernel directly.  The kernel is looked up on its module
        per call, so a wrapper installed there later still takes effect.
        """
        if self.tracer is None:
            return kernels.decide_group(
                self, stream, view, slot_names, stack, model, domain, work
            )
        with self.tracer.span(
            "variant_decide", name=predicate, variants=len(work)
        ) as span:
            verdicts = kernels.decide_group(
                self, stream, view, slot_names, stack, model, domain, work
            )
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

    def shareable_streams(self, since: int = 0) -> Iterator[tuple[tuple, EnvStream]]:
        """The memo entries that may be written to disk, as ``(key, stream)``.

        Only streams still in the memo that were logged in its ``finished``
        list at or after absolute position ``since`` (a flush passes where
        its previous call stopped), in this checker's registry space, with
        the space prefix removed from the key.  Only a *complete* stream
        under a canonical key is a pure function of its key: a concrete key
        embeds process-local addresses, and a stream cut off by the entry
        cap or the step budget is not a full enumeration.  The log holds
        canonical keys only, and the stream under a logged key is checked
        again: it may have been evicted and re-inserted unfinished.  When
        ``since`` falls before the log's trimmed prefix, every canonical
        key in the memo is visited instead: the streams logged there that
        the memo still holds are among them.
        """
        space = self.registry_space()
        streams = self._streams
        start = since - streams.finished_dropped
        if start < 0:
            keys = [key for key in streams if isinstance(key[-1], CanonicalForm)]
        else:
            keys = streams.finished[start:]
        for key in keys:
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
    ) -> tuple[EnvStream, HeapCanon]:
        """The (memoized) solution stream of one skeleton against one model,
        and the view through which this model reads it.

        The memo key deliberately drops everything the relaxed search cannot
        observe: the skeleton mentions only the root variable and its
        reserved slot existentials, so the stream is a function of
        (predicate, arity, root position, root *value*, heap) alone.  Models
        that alias the same structure through different pointer variables --
        or share a residual heap across result branches -- therefore share
        one enumeration.

        Every stream is stored in canonical coordinates, and the view is the
        heap's canonical labeling from ``root_value``.  When the labeling is
        exact, the ``(root value, heap)`` tail of the key is replaced by
        ``(root tag, canonical heap form)``: address-renamed copies of a heap
        then share one stream, each reading it through its own labeling.

        Every key starts with the registry space, so a memo shared by the
        jobs of an engine batch never serves a stream across predicate
        definitions.  A miss tries the disk tier (exact keys only), then
        solves.
        """
        atom = skeleton.spatial_atoms()[0]
        canon = model.heap.canonical(root_value, self.structs)
        exact = canon.exact
        if exact:
            tail = (canon.root_tag, canon.form)
        else:
            tail = (root_value, model.heap)
        key = (self.registry_space(), atom.name, len(atom.args), root_position, *tail)
        streams = self._streams
        stream = streams.get(key)
        if stream is not None:
            streams.move_to_end(key)
            self.stats.env_stream_reuses += 1
            if (
                stream.source_root != root_value
                or stream.source_heap_hash != hash(model.heap)
            ):
                # This hit only exists because of canonical keying (a
                # concrete key fixes both): the consumer's concrete heap
                # differs from the one the stream was generated from.  Hash
                # comparison (cached on the heap) keeps the classification
                # O(1); a collision miscounting a hit as concrete only skews
                # this statistic, nothing else.
                self.stats.canonical_stream_hits += 1
            return stream, canon
        if self.fault_plan is not None:
            # Fault-injection site: a fresh stream is about to be
            # materialized (disk load or skeleton solve).  An injected
            # raise propagates out of the checker like any real failure
            # would -- the engine classifies and retries it.
            from repro.faults import maybe_inject

            maybe_inject(self.fault_plan, "stream_materialize", qualifier=atom.name)
        stream = None
        if exact and self.persistent is not None:
            # A finished enumeration in canonical space, directly readable
            # through this consumer's view; counted in neither
            # ``skeletons_solved`` nor ``env_stream_reuses``.
            stream = self.persistent.load_stream(key[1:])
            if stream is not None:
                streams.log_finished(key)
        if stream is None:
            stream = EnvStream(
                lambda: search.skeleton_leaves(self.registry, self.stats, model, skeleton),
                tuple(arg.name for arg in atom.args),
                len(model.heap),
                canon,
                source_root=root_value,
                source_heap_hash=hash(model.heap),
                tracer=self.tracer,
                finished=(streams, key) if exact else None,
            )
            self.stats.skeletons_solved += 1
        streams.add(key, stream)
        return stream, canon


#: Outcome sentinel of ``check_batch``: the variant is not refuted, but every
#: reduction it admits consumes nothing, so the candidate loop's vacuity
#: filter is guaranteed to drop it without needing the concrete results.
BATCH_VACUOUS = object()

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
