"""The SLING driver: Algorithm 1 and the public inference API.

The entry points are

* :func:`infer_invariants` -- invariants at one program location,
* :func:`infer_specification` -- pre/postconditions and loop invariants for a
  whole function, with frame-rule validation,
* the :class:`Sling` class, which holds the program, predicate definitions
  and configuration and exposes the same operations as methods.

The pipeline per location is exactly the paper's: collect stack-heap models
with the tracer, iterate over the pointer variables in a reachability-guided
order, split the (residual) heaps around each variable, infer atomic
predicates for the sub-heaps, combine them with ``*``, and finally add pure
equalities and quantify out-of-scope variables existentially.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.boundary import split_heap
from repro.core.infer_atom import infer_atoms
from repro.core.infer_pure import infer_pure_equalities
from repro.core.results import (
    InferredResult,
    Invariant,
    Specification,
    merge_instantiations,
)
from repro.core.validate import paired_entry_exit_models, validate_specification
from repro.lang.ast import Program
from repro.lang.tracer import Location, TestCase, TraceCollection, collect_models
from repro.sl.checker import ModelChecker
from repro.sl.exprs import conjoin
from repro.sl.model import HashedKey, StackHeapModel, models_union
from repro.sl.predicates import PredicateRegistry
from repro.sl.pretty import pretty
from repro.sl.spatial import SymHeap, star
from repro.faults import FaultPlan
from repro.telemetry import Telemetry, monotime
from repro.telemetry.counters import CacheStats

#: Upper bound on the result set ``R`` carried across Algorithm 1's
#: iterations over the analysed variables.
MAX_TOTAL_RESULTS = 16
#: Invariants reported per location after deduplication.
MAX_INVARIANTS_PER_LOCATION = 8


@dataclass(frozen=True)
class SlingConfig:
    """Options of one inference run.

    The search budgets of the paper's setup are module constants next to
    their readers (this module, :mod:`repro.core.infer_atom`,
    :mod:`repro.sl.search`, :mod:`repro.sl.stream`, :mod:`repro.lang.interp`);
    see the "Fixed budgets" table in ``docs/performance.md``.
    """

    #: Run the reference search instead of the fast path: every candidate
    #: goes through the exact per-candidate ``ModelChecker.check_all``, with
    #: no semantic pre-filter, no skeleton batching and so no stream memo
    #: (canonical or concrete keys) and no location memo.  It is the oracle
    #: the fast path is checked against (see ``docs/performance.md``); both
    #: infer the same invariants.
    reference_search: bool = False
    #: Variable-analysis order: "reachability" (the paper's heuristic),
    #: "stack" (declaration order) or "reverse" (ablation baselines).
    variable_order: str = "reachability"
    #: Drop the events of test runs that crashed (the paper's LLDB-batch
    #: workflow obtained no usable traces from crashing programs).
    discard_crashed_runs: bool = True
    #: Path of a disk-backed cache file persisting the checker's
    #: canonical-keyed caches across runs (see :mod:`repro.cache` and
    #: ``docs/performance.md``).  A driver bound to it flushes after every
    #: location, so a run interrupted later in the function (a failed
    #: location, a serve deadline, a killed daemon) still banks what it
    #: learned.  ``None`` (the default) keeps the tier entirely inert: no
    #: file is touched and every code path is identical to a cache-less run.
    persistent_cache: str | Path | None = None
    #: Read ``persistent_cache`` without writing to it.  Internal to
    #: ``repro cache verify``, whose warm sweep must measure the file, not
    #: rows its own earlier jobs wrote.
    persistent_cache_read_only: bool = False
    #: Tracing handle (see :mod:`repro.telemetry`).  ``None`` (the default)
    #: keeps every instrumented call site a single ``is None`` branch away
    #: from the untraced code path: no tracer is built, no file is touched,
    #: and inference results are bit-identical either way.  The handle is
    #: picklable, so a traced configuration crosses the engine's fork
    #: boundary; each worker process then writes its own trace segment.
    telemetry: Telemetry | None = None
    #: Deterministic fault-injection plan (see :mod:`repro.faults`).
    #: ``None`` (the default) keeps every injection site a single
    #: ``is None`` branch away from the untouched code path -- no injector
    #: is built and the resilience counters stay exactly zero (pinned by
    #: the search-guard baselines).  The plan is frozen and picklable, so a
    #: chaos configuration crosses the engine's fork boundary; the mutable
    #: matching state stays process-local.
    fault_plan: FaultPlan | None = None


class Sling:
    """Dynamic inference of separation-logic invariants for heaplang programs."""

    def __init__(
        self,
        program: Program,
        predicates: PredicateRegistry,
        config: SlingConfig | None = None,
    ):
        self.program = program
        self.predicates = predicates
        self.config = config or SlingConfig()
        self.telemetry = self.config.telemetry
        #: Process-local tracer (``None`` when tracing is off); handed down
        #: to the checker and the disk tier so their spans nest under ours.
        self.tracer = self.telemetry.tracer() if self.telemetry is not None else None
        self.checker = ModelChecker(predicates, structs=program.structs)
        self.checker.tracer = self.tracer
        #: Fault-injection plan handed to the checker (stream
        #: materialization site) and the disk tier (sqlite sites); ``None``
        #: keeps every site on the untouched code path.
        self.checker.fault_plan = self.config.fault_plan
        #: Disk tier beneath the checker's canonical-keyed caches; ``None``
        #: unless ``config.persistent_cache`` is set (the default keeps
        #: every code path identical to a cache-less run).
        self.persistent_cache = None
        if self.config.persistent_cache is not None:
            from repro.cache import bind_tier

            # The tier outlives this driver (see :func:`bind_tier`).  It
            # refuses checkers without structs (their stream keys stay
            # concrete): a program without a struct registry cannot use the
            # disk tier, and the error says so.
            self.persistent_cache = bind_tier(
                self.config.persistent_cache,
                self.checker,
                fault_plan=self.config.fault_plan,
                tracer=self.tracer,
                read_only=self.config.persistent_cache_read_only,
            )

    def cache_counters(self) -> CacheStats:
        """A snapshot of this driver's counters.

        The checker's :class:`CacheStats` holds every counter: the search's
        (unfoldings included), this driver's memo counters and the disk
        tier's; the snapshot is a copy of it.  :meth:`cache_stats` is its
        dict rendering, and the engine's per-job accounting consumes the
        struct directly.
        """
        return replace(self.checker.stats)

    def cache_stats(self) -> dict:
        """Dict rendering of :meth:`cache_counters` (JSON reports, tests).

        When the persistent cache or a shared stream memo (an engine
        batch's or a serve daemon's) is active the dict additionally
        carries a ``counter_semantics`` note: disk-served streams count
        neither ``skeletons_solved`` nor ``env_stream_reuses``, streams an
        earlier job of the batch or an earlier request of the daemon solved
        count as ``env_stream_reuses``, a location one of them inferred
        counts one ``location_memo_hits`` and no search work, and a
        frame-rule verdict one of them reached counts one
        ``validation_memo_hits`` and no ``checker_misses``, so those
        counters are **not comparable** with a standalone, cache-less run's
        (see ``docs/performance.md``).
        """
        stats = self.cache_counters().as_dict()
        if self.persistent_cache is not None or self.checker.shares_streams:
            stats["counter_semantics"] = (
                "persistent cache or shared stream memo active: disk-served "
                "streams count neither skeletons_solved nor "
                "env_stream_reuses, streams an earlier job of the batch or "
                "an earlier request of the daemon solved count as "
                "env_stream_reuses, a location one of them inferred "
                "counts location_memo_hits and no search work, and a "
                "frame-rule verdict one of them reached counts "
                "validation_memo_hits and no checker_misses; do not "
                "compare these counters with a standalone cache-less run"
            )
        return stats

    def flush_persistent(self, final: bool = True) -> None:
        """Write everything the checker learned to the persistent cache tier.

        ``final=False`` marks an intermediate (per-location) flush: rows are
        written but end-of-run accounting (eviction, file-size refresh) is
        deferred to the closing ``final=True`` call.
        """
        if self.persistent_cache is not None:
            self.persistent_cache.flush(self.checker, final=final)

    # ------------------------------------------------------------------ tracing --

    def collect(
        self,
        function_name: str,
        test_cases: Sequence[TestCase],
        locations: Iterable[str] | None = None,
    ) -> TraceCollection:
        """Run the test suite under the tracer (``CollectModels``)."""
        breakpoints = None
        if locations is not None:
            breakpoints = [Location(function_name, name) for name in locations]
        traces = collect_models(
            self.program,
            function_name,
            test_cases,
            breakpoints=breakpoints,
        )
        if self.config.discard_crashed_runs:
            traces = traces.without_crashed_runs()
        return traces

    # ---------------------------------------------------------------- inference --

    def infer_from_models(
        self,
        models: Sequence[StackHeapModel],
        location: str = "<location>",
        free_vars: Sequence[str] | None = None,
    ) -> list[Invariant]:
        """Algorithm 1 at one location (see :meth:`_infer_from_models`).

        On the fast path the result is a function of the models' content,
        the registry, the struct definitions, ``free_vars`` and the
        variable order, so under a shared memo (an engine batch's or a
        serve daemon's) the outer call looks it up in that memo first
        (``StreamMemo.locations``): an earlier job or request may have
        inferred the same models.  A hit returns new
        :class:`Invariant` objects at ``location``.  The key holds a digest
        of the models, never the models.  The ``reference_search`` oracle
        is never memoized.
        """
        if self.tracer is None:
            return self._memoized_location(models, location, free_vars)
        stats = self.checker.stats
        hits = stats.location_memo_hits
        with self.tracer.span("location", name=location, models=len(models)) as span:
            invariants = self._memoized_location(models, location, free_vars)
            span.set(invariants=len(invariants), memo_hit=stats.location_memo_hits > hits)
        return invariants

    def _memoized_location(
        self,
        models: Sequence[StackHeapModel],
        location: str,
        free_vars: Sequence[str] | None,
    ) -> list[Invariant]:
        """:meth:`_infer_from_models` behind the location memo.

        Only a shared memo is consulted: no job repeats one of its own
        locations, so in a private memo the key digest would be pure cost.
        """
        if not models or self.config.reference_search or not self.checker.shares_streams:
            return self._infer_from_models(models, location, free_vars)
        key = self._location_key(models, free_vars)
        cached = self.checker.locations.recall(key)
        if cached is None:
            invariants = self._infer_from_models(models, location, free_vars)
            self.checker.locations.add(
                key,
                tuple(
                    (invariant.formula, invariant.from_freed_traces)
                    for invariant in invariants
                ),
            )
            return invariants
        self.checker.stats.location_memo_hits += 1
        return [
            Invariant(location=location, formula=formula, from_freed_traces=freed)
            for formula, freed in cached
        ]

    def _location_key(
        self, models: Sequence[StackHeapModel], free_vars: Sequence[str] | None
    ) -> HashedKey:
        """The content key of one location's inference (see above).

        The models enter as one 20-byte digest folded from their
        :meth:`~repro.sl.model.StackHeapModel.digest` values, in list order:
        equal digests mean the runs see the very same input, so the memo
        keeps no model alive.
        """
        return HashedKey(
            (
                self.checker.registry_space(),
                self._struct_key(),
                _fold_digests(model.digest() for model in models),
                None if free_vars is None else tuple(free_vars),
                self.config.variable_order,
            )
        )

    def _struct_key(self) -> tuple:
        """The program's struct definitions as a memo key component.

        ``StructDef`` compares and hashes by name and fields, and a key
        holds the program's own (shared) definitions, not copies of them.
        """
        return tuple(self.program.structs)

    def _infer_from_models(
        self,
        models: Sequence[StackHeapModel],
        location: str = "<location>",
        free_vars: Sequence[str] | None = None,
    ) -> list[Invariant]:
        """Algorithm 1 over already-collected stack-heap models.

        Every model takes the exact per-model path; address-renamed copies
        share their skeleton searches through the checker's canonical stream
        keys (see :mod:`repro.sl.model`).
        """
        if not models:
            return []
        stats = self.checker.stats
        variables = self._common_pointer_vars(models)
        order = self._order_variables(models, variables)

        results = [
            InferredResult(
                models=list(models),
                instantiations=[dict() for _ in models],
            )
        ]

        # Result branches frequently reach a variable with identical residual
        # models (different atoms earlier in the chain, same coverage), and
        # Algorithm 2 is deterministic in (variable, models): share one
        # split + candidate search among them.  AtomResults are immutable,
        # so reuse across branches is safe.
        split_cache: dict[tuple, tuple] = {}
        for variable in order:
            next_results: list[InferredResult] = []
            for result in results:
                cache_key = (variable, tuple(result.models))
                cached = split_cache.get(cache_key)
                if cached is None:
                    split = split_heap(result.models, variable, self.program.structs)
                    atom_results = infer_atoms(
                        variable,
                        list(split.sub_models),
                        split.boundary,
                        self.predicates,
                        self.checker,
                        self.program.structs,
                        reference_search=self.config.reference_search,
                    )
                    split_cache[cache_key] = (split, atom_results)
                    stats.atom_cache_misses += 1
                else:
                    split, atom_results = cached
                    stats.atom_cache_hits += 1
                for atom_result in atom_results:
                    atoms = list(result.atoms)
                    exists = list(result.exists)
                    if atom_result.atom is not None:
                        atoms.append(atom_result.atom)
                        exists.extend(atom_result.exists)
                    residual = models_union(
                        list(split.rest_models), list(atom_result.residual_models)
                    )
                    next_results.append(
                        InferredResult(
                            atoms=atoms,
                            exists=exists,
                            models=residual,
                            instantiations=merge_instantiations(
                                result.instantiations, atom_result.instantiations
                            ),
                        )
                    )
            if next_results:
                next_results.sort(
                    key=lambda r: (r.residual_cells(), -r.spatial_atom_count())
                )
                results = next_results[:MAX_TOTAL_RESULTS]

        return self._finalize(results, models, location, free_vars)

    def infer_at(
        self,
        function_name: str,
        location_name: str,
        test_cases: Sequence[TestCase],
    ) -> list[Invariant]:
        """Infer invariants at one location of a function."""
        traces = self.collect(function_name, test_cases, locations=[location_name])
        models = traces.models_at(Location(function_name, location_name))
        free_vars = self._free_vars_for(function_name, location_name)
        invariants = self.infer_from_models(
            models, location=location_name, free_vars=free_vars
        )
        self.flush_persistent()
        return invariants

    def infer_function(
        self, function_name: str, test_cases: Sequence[TestCase]
    ) -> Specification:
        """Infer a full specification (pre, posts, loop invariants) for a function.

        The trace collection always runs here (rather than accepting a
        pre-collected one): test-case closures may share a seeded RNG, so
        which draw the tracer observes is part of the deterministic
        contract -- see the note in ``evaluation.table1.evaluate_program``.
        """
        start = monotime()
        function_span = (
            self.tracer.span("function", name=function_name, tests=len(test_cases))
            if self.tracer is not None
            else nullcontext()
        )
        with function_span:
            specification = self._infer_function(function_name, test_cases)
        specification.inference_seconds = monotime() - start
        return specification

    def _infer_function(
        self, function_name: str, test_cases: Sequence[TestCase]
    ) -> Specification:
        function = self.program.get_function(function_name)
        traces = self.collect(function_name, test_cases)
        specification = Specification(function=function_name)

        reached = {location.name for location in traces.locations()}
        for location_name in function.locations():
            if location_name not in reached:
                specification.unreached_locations.append(location_name)

        entry_models = traces.models_at(Location(function_name, "entry"))
        specification.preconditions = self.infer_from_models(
            entry_models,
            location="entry",
            free_vars=self._free_vars_for(function_name, "entry"),
        )
        self.flush_persistent(final=False)

        for return_location in function.return_locations():
            models = traces.models_at(Location(function_name, return_location))
            invariants = self.infer_from_models(
                models,
                location=return_location,
                free_vars=self._free_vars_for(function_name, return_location),
            )
            specification.postconditions[return_location] = invariants
            self.flush_persistent(final=False)

        for loop_location in function.loop_locations():
            models = traces.models_at(Location(function_name, loop_location))
            invariants = self.infer_from_models(models, location=loop_location)
            specification.loop_invariants[loop_location] = invariants
            self.flush_persistent(final=False)

        specification.validated = self._validate(specification, traces, function_name)
        self.flush_persistent()
        return specification

    # ------------------------------------------------------------------ internals --

    def _finalize(
        self,
        results: Sequence[InferredResult],
        models: Sequence[StackHeapModel],
        location: str,
        free_vars: Sequence[str] | None,
    ) -> list[Invariant]:
        """Add pure equalities, quantify out-of-scope variables, deduplicate."""
        stack_names = [name for name, _ in models[0].stack]
        free = set(free_vars) if free_vars is not None else set(stack_names)
        invariants: list[Invariant] = []
        seen: set[str] = set()
        from_freed = any(model.has_freed_cells() for model in models)

        for result in results:
            pure = infer_pure_equalities(models, result.instantiations)
            spatial = star(*result.atoms)
            pure_formula = conjoin(pure)
            used = spatial.free_vars() | pure_formula.free_vars()
            exists = list(dict.fromkeys(result.exists))
            for name in stack_names:
                if name in used and name not in free and name not in exists:
                    exists.append(name)
            formula = _normalize_existentials(
                SymHeap(exists=exists, spatial=spatial, pure=pure_formula), free
            )
            rendered = pretty(formula)
            if rendered in seen:
                continue
            seen.add(rendered)
            invariants.append(
                Invariant(location=location, formula=formula, from_freed_traces=from_freed)
            )
            if len(invariants) >= MAX_INVARIANTS_PER_LOCATION:
                break
        return invariants

    def _common_pointer_vars(self, models: Sequence[StackHeapModel]) -> list[str]:
        """Pointer variables (plus ``res`` when present) common to all models."""
        common: list[str] | None = None
        for model in models:
            names = model.pointer_vars()
            if common is None:
                common = names
            else:
                common = [name for name in common if name in names]
        return common or []

    def _order_variables(
        self, models: Sequence[StackHeapModel], variables: Sequence[str]
    ) -> list[str]:
        """The paper's heuristic: follow reachability from already-analysed variables."""
        strategy = self.config.variable_order
        if strategy == "stack":
            return list(variables)
        if strategy == "reverse":
            return list(reversed(variables))

        remaining = list(variables)
        order: list[str] = []
        reach_cache = [
            {
                name: model.heap.reachable_from([model.value_of(name)])
                for name in remaining
                if model.has_var(name)
            }
            for model in models
        ]
        while remaining:
            chosen = None
            if order:
                for candidate in remaining:
                    if self._directly_reachable(candidate, order, models, reach_cache):
                        chosen = candidate
                        break
            if chosen is None:
                chosen = remaining[0]
            order.append(chosen)
            remaining.remove(chosen)
        return order

    @staticmethod
    def _directly_reachable(
        candidate: str,
        processed: Sequence[str],
        models: Sequence[StackHeapModel],
        reach_cache: Sequence[dict[str, frozenset[int]]],
    ) -> bool:
        for model, reach in zip(models, reach_cache):
            if not model.has_var(candidate):
                continue
            value = model.value_of(candidate)
            for previous in processed:
                if value != 0 and value in reach.get(previous, frozenset()):
                    return True
                if model.has_var(previous) and model.value_of(previous) == value:
                    return True
        return False

    def _free_vars_for(self, function_name: str, location_name: str) -> list[str] | None:
        """Free variables of pre/postconditions: parameters and ``res`` only."""
        function = self.program.get_function(function_name)
        params = [name for name, _ in function.params]
        if location_name == "entry":
            return params
        if location_name.startswith("ret#"):
            return params + ["res"]
        return None

    def _validate(
        self, specification: Specification, traces: TraceCollection, function_name: str
    ) -> bool:
        """Frame-rule validation of the pre/post combination (Section 4.4)."""
        if not specification.preconditions:
            return True
        precondition = specification.preconditions[0]
        all_valid = True
        for return_location, invariants in specification.postconditions.items():
            if not invariants:
                continue
            pairs = paired_entry_exit_models(traces, function_name, return_location)
            if not pairs:
                continue
            valid = self._memoized_verdict(precondition, invariants[0], pairs)
            if not valid:
                all_valid = False
                specification.postconditions[return_location] = [
                    replace(invariant, spurious=True) for invariant in invariants
                ]
        return all_valid

    def _memoized_verdict(
        self,
        precondition: Invariant,
        postcondition: Invariant,
        pairs: Sequence[tuple[StackHeapModel, StackHeapModel]],
    ) -> bool:
        """:func:`validate_specification` behind the shared memo.

        The verdict is a function of the registry, the two formulas and the
        paired models' content, so it is memoized where the location
        results are (``StreamMemo.locations``, under the same LRU bound),
        on the same terms: a shared memo only, never the
        ``reference_search`` oracle.  The key's leading tag keeps it apart
        from every location key.
        """
        if self.config.reference_search or not self.checker.shares_streams:
            return validate_specification(precondition, postcondition, pairs, self.checker)
        key = HashedKey(
            (
                "validation",
                self.checker.registry_space(),
                self._struct_key(),
                precondition.formula,
                postcondition.formula,
                _fold_digests(entry.digest() + exit.digest() for entry, exit in pairs),
            )
        )
        cached = self.checker.locations.recall(key)
        if cached is not None:
            self.checker.stats.validation_memo_hits += 1
            return cached
        valid = validate_specification(precondition, postcondition, pairs, self.checker)
        self.checker.locations.add(key, valid)
        return valid


def _fold_digests(digests: Iterable[bytes]) -> bytes:
    """One 20-byte digest of a sequence of fixed-width model digests."""
    return hashlib.blake2b(b"".join(digests), digest_size=20).digest()


def _normalize_existentials(formula: SymHeap, free: set[str]) -> SymHeap:
    """Rename machine-generated existentials to ``u1, u2, ...`` for readability.

    Variables that correspond to out-of-scope program variables (e.g. a local
    ``tmp`` quantified in a postcondition) keep their names; only the fresh
    ``u<N>``/``_v<N>`` names produced during the search are renumbered, in
    order of appearance, avoiding clashes with free variables.
    """
    from repro.sl.exprs import Var

    generated = [
        name for name in formula.exists if name.startswith("u") and name[1:].isdigit()
    ] + [name for name in formula.exists if name.startswith("_v")]
    if not generated:
        return formula
    renaming: dict[str, Var] = {}
    counter = 1
    # The generated names are all substituted away, so they must not block
    # their own replacements: keeping them in ``taken`` would make the
    # renumbering depend on the raw counter values (alpha-variants of the
    # same invariant would render differently, breaking the engine's
    # determinism fingerprint and the pretty-based deduplication).
    taken = (set(free) | set(formula.exists)) - set(generated)
    for name in generated:
        while f"u{counter}" in taken:
            counter += 1
        new_name = f"u{counter}"
        counter += 1
        renaming[name] = Var(new_name)
        taken.add(new_name)
    new_exists = tuple(renaming[name].name if name in renaming else name for name in formula.exists)
    renamed = SymHeap(
        (),
        formula.spatial.substitute(renaming),
        formula.pure.substitute(renaming),
    )
    return SymHeap(new_exists, renamed.spatial, renamed.pure)


# ---------------------------------------------------------------------------
# Convenience functions
# ---------------------------------------------------------------------------


def infer_invariants(
    program: Program,
    function_name: str,
    location_name: str,
    predicates: PredicateRegistry,
    test_cases: Sequence[TestCase],
    config: SlingConfig | None = None,
) -> list[Invariant]:
    """Infer invariants at one location (see :class:`Sling.infer_at`)."""
    return Sling(program, predicates, config).infer_at(function_name, location_name, test_cases)


def infer_specification(
    program: Program,
    function_name: str,
    predicates: PredicateRegistry,
    test_cases: Sequence[TestCase],
    config: SlingConfig | None = None,
) -> Specification:
    """Infer a function specification (see :class:`Sling.infer_function`)."""
    return Sling(program, predicates, config).infer_function(function_name, test_cases)
