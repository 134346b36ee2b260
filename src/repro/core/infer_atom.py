"""Atomic-predicate inference: the ``InferAtom`` procedure (Algorithm 2).

Given a root pointer variable, its sub-models and their common boundary,
``infer_atoms`` searches the predefined inductive predicates for atomic
formulae satisfied by *all* sub-models:

1. for each predicate, argument tuples are enumerated from subsets of the
   boundary (always containing the root) padded with fresh existential
   variables, in ascending subset size, filtered for type consistency;
2. each candidate is checked against every sub-model by the symbolic-heap
   model checker, which also yields residual models and existential
   instantiations;
3. when every sub-model is a single cell, a singleton (points-to) template
   is additionally derived;
4. when nothing else matches, the ``emp`` fallback is returned with the
   sub-models as residue.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.core.boundary import NIL_NAME
from repro.core.results import AtomResult
from repro.lang.types import StructRegistry, is_pointer_type
from repro.sl.checker import BATCH_VACUOUS, ModelChecker, PureVariant, build_skeleton
from repro.sl.exprs import Expr, Nil, Var
from repro.sl.model import StackHeapModel
from repro.sl.predicates import InductivePredicate, PredicateRegistry
from repro.sl.screen import ModelFacts, screen_candidates
from repro.sl.spatial import PointsTo, PredApp, SymHeap, fresh_vars


#: Predicates with more parameters than this are skipped (the paper notes
#: the search is exponential in the arity; its largest predicate has 10).
MAX_PRED_ARITY = 10
#: Upper bound on boundary-subset size (and hence permutation length).
MAX_BOUNDARY_SUBSET = 6
#: Hard cap on the number of candidate formulae enumerated per predicate.
MAX_CANDIDATES_PER_PRED = 4000
#: Accepted atomic formulae returned per root variable.
MAX_RESULTS = 3


class Candidate(NamedTuple):
    """One enumerated argument permutation (before screening/grouping)."""

    permutation: tuple[str, ...]
    #: The fresh existential names of the permutation's enumeration pool.
    fresh: set[str]


@dataclass(frozen=True)
class CandidateGroup:
    """All surviving candidates that share one spatial skeleton.

    The skeleton is determined by (predicate, root position); every member
    differs from it only by pure slot equalities (its :class:`PureVariant`).
    ``indices`` maps each variant back to its enumeration position so
    results are assembled in the original candidate order.
    """

    skeleton: SymHeap
    variants: tuple[PureVariant, ...]
    indices: tuple[int, ...]


def infer_atoms(
    root: str,
    sub_models: Sequence[StackHeapModel],
    boundary: Sequence[str],
    predicates: PredicateRegistry,
    checker: ModelChecker,
    structs: StructRegistry | None = None,
    weights: Sequence[int] | None = None,
    reference_search: bool = False,
) -> list[AtomResult]:
    """Infer atomic heap predicates for ``root`` over its sub-models.

    ``weights`` (one per sub-model, defaulting to 1) scale the residual-cell
    ranking: the isomorphism-deduplicated driver passes each representative
    model's class size so the ranking reproduces the sums an undeduplicated
    run would have computed.  ``reference_search`` checks every candidate
    with the exact per-candidate ``check_all``, skipping the semantic
    pre-filter and skeleton batching (see ``SlingConfig.reference_search``).
    """
    if not sub_models:
        return []

    results: list[AtomResult] = []
    root_type = _var_type(root, sub_models)
    sub_heaps_empty = all(model.heap.is_empty() for model in sub_models)

    if not sub_heaps_empty:
        # Per-model facts for the candidate pre-filter, computed once per
        # split and shared by every predicate's candidate loop.
        facts = (
            None
            if reference_search
            else tuple(ModelFacts(model, root) for model in sub_models)
        )
        for predicate in predicates.candidates_for_type(root_type):
            if predicate.arity > MAX_PRED_ARITY:
                continue
            results.extend(
                _infer_inductive(root, sub_models, boundary, predicate, checker, facts)
            )
        if all(len(model.heap) == 1 for model in sub_models):
            singleton = _infer_singleton(root, sub_models, boundary)
            if singleton is not None:
                results.append(singleton)

    results = _rank_and_prune(results, weights)
    if not results:
        results.append(
            AtomResult(
                atom=None,
                exists=(),
                residual_models=tuple(sub_models),
                instantiations=tuple({} for _ in sub_models),
            )
        )
    return results


# ---------------------------------------------------------------------------
# Inductive predicates
# ---------------------------------------------------------------------------


def _infer_inductive(
    root: str,
    sub_models: Sequence[StackHeapModel],
    boundary: Sequence[str],
    predicate: InductivePredicate,
    checker: ModelChecker,
    facts: Sequence[ModelFacts] | None,
) -> list[AtomResult]:
    """Enumerate, screen, group and batch-check one predicate's candidates.

    The pipeline has four phases, all order-stable with respect to the
    reference one-candidate-at-a-time loop (results are identical and appear
    in the same order):

    1. enumerate argument permutations (type filter, signature dedup,
       admission cap);
    2. screen the whole batch against the per-model facts
       (:func:`repro.sl.screen.screen_candidates` -- a pure optimisation);
    3. group survivors by spatial skeleton -- one :class:`CandidateGroup`
       per (predicate, root position) with the pure slot deltas attached --
       and decide each group with ``checker.check_batch``, which runs the
       heap-matching search once per (skeleton, model) instead of once per
       candidate and settles the whole group's variants in one columnar
       pass over the stream's slot indexes (:mod:`repro.sl.kernels`);
    4. assemble accepted candidates into :class:`AtomResult`\\ s in
       enumeration order.

    Under the reference search ``facts`` is ``None``: phase 2 is skipped and
    phase 3 checks each candidate with ``checker.check_all``.
    """
    arity = predicate.arity
    results: list[AtomResult] = []
    candidates_seen = 0
    others = [name for name in boundary if name != root]
    max_subset = min(arity, MAX_BOUNDARY_SUBSET, len(boundary))
    stats = checker.stats
    models_list = list(sub_models)

    # -- phase 1: enumeration -------------------------------------------------
    enumerated: list[Candidate] = []
    seen_signatures: set[tuple] = set()
    capped = False
    for subset_size in range(1, max_subset + 1):
        if capped:
            break
        for extra in itertools.combinations(others, subset_size - 1):
            if capped:
                break
            subset = (root, *extra)
            fresh = fresh_vars(arity - subset_size, prefix="u")
            fresh_set = set(fresh)
            pool = list(subset) + list(fresh)
            for permutation in itertools.permutations(pool, arity):
                if root not in permutation:
                    continue
                if not _type_consistent(permutation, predicate, sub_models, fresh_set):
                    continue
                # Fresh existentials are interchangeable: collapse permutations
                # that only differ by which fresh variable sits where.
                signature = tuple(
                    name if name not in fresh_set else "?" for name in permutation
                )
                if signature in seen_signatures:
                    continue
                seen_signatures.add(signature)
                # The admission cap deliberately counts every enumerated
                # candidate (pre-filtered or not), so enabling the filter
                # cannot let later permutations through that the unfiltered
                # search would have cut off.
                candidates_seen += 1
                if candidates_seen > MAX_CANDIDATES_PER_PRED:
                    capped = True
                    break
                stats.candidates_generated += 1
                enumerated.append(Candidate(permutation, fresh_set))

    # -- phase 2: whole-group screening ---------------------------------------
    if facts is not None:
        survivors = screen_candidates(
            predicate, enumerated, facts, checker.registry, stats
        )
    else:
        survivors = enumerated
    if not survivors:
        return results
    prepared = []
    for candidate in survivors:
        used_fresh = tuple(name for name in candidate.permutation if name in candidate.fresh)
        formula = SymHeap(
            exists=used_fresh,
            spatial=PredApp(
                predicate.name, [_to_expr(name) for name in candidate.permutation]
            ),
        )
        prepared.append((candidate, used_fresh, formula))
    stats.candidates_checked += len(prepared)

    # -- phase 3: skeleton-batched checking -----------------------------------
    if facts is not None and models_list:
        outcomes: list = [None] * len(prepared)
        for group in _group_by_skeleton(prepared, predicate, root):
            stats.candidate_groups += 1
            group_outcomes = checker.check_batch(
                models_list, group.skeleton, group.variants
            )
            for index, outcome in zip(group.indices, group_outcomes):
                outcomes[index] = outcome
    else:
        outcomes = [
            checker.check_all(models_list, formula) for _, _, formula in prepared
        ]

    # -- phase 4: assembly (enumeration order) --------------------------------
    for (candidate, used_fresh, formula), check in zip(prepared, outcomes):
        if check is None or check is BATCH_VACUOUS:
            continue
        if all(not result.consumed for result in check):
            continue
        results.append(
            AtomResult(
                atom=formula.spatial,
                exists=used_fresh,
                residual_models=tuple(
                    model.with_heap(result.residual)
                    for model, result in zip(sub_models, check)
                ),
                instantiations=tuple(result.instantiation for result in check),
            )
        )
    return results


def _group_by_skeleton(
    prepared: Sequence[tuple], predicate: InductivePredicate, root: str
) -> list[CandidateGroup]:
    """Partition surviving candidates into one group per spatial skeleton."""
    by_position: dict[int, list[int]] = {}
    for index, (candidate, _, _) in enumerate(prepared):
        by_position.setdefault(candidate.permutation.index(root), []).append(index)
    groups: list[CandidateGroup] = []
    for position, indices in by_position.items():
        skeleton = build_skeleton(predicate.name, predicate.arity, root, position)
        variants = tuple(
            _candidate_variant(prepared[index][0], prepared[index][2], position)
            for index in indices
        )
        groups.append(
            CandidateGroup(skeleton=skeleton, variants=variants, indices=tuple(indices))
        )
    return groups


def _candidate_variant(
    candidate: Candidate, formula: SymHeap, root_position: int
) -> PureVariant:
    """Express one candidate as pure slot deltas over its group's skeleton."""
    var_slots: list[tuple[int, str]] = []
    nil_slots: list[int] = []
    free_slots: list[tuple[int, str]] = []
    for position, name in enumerate(candidate.permutation):
        if position == root_position:
            continue
        if name in candidate.fresh:
            free_slots.append((position, name))
        elif name == NIL_NAME:
            nil_slots.append(position)
        else:
            var_slots.append((position, name))
    return PureVariant(
        formula=formula,
        var_slots=tuple(var_slots),
        nil_slots=tuple(nil_slots),
        free_slots=tuple(free_slots),
    )


def _type_consistent(
    permutation: Sequence[str],
    predicate: InductivePredicate,
    sub_models: Sequence[StackHeapModel],
    fresh: set[str],
) -> bool:
    """Algorithm 2, line 8: boundary arguments must match the parameter types."""
    for name, param_type in zip(permutation, predicate.param_types):
        if name in fresh:
            continue
        if name == NIL_NAME:
            # nil may instantiate any pointer parameter but not an integer one.
            if param_type is not None and not is_pointer_type(param_type):
                return False
            continue
        var_type = _var_type(name, sub_models)
        if param_type is None:
            # Integer-ish parameter: only fresh existentials may fill it;
            # boundary members are pointers by construction.
            return False
        if var_type is None:
            # Untyped stack variable (e.g. the ghost ``res``): allow it for
            # pointer parameters.
            continue
        if var_type != param_type:
            return False
    return True


# ---------------------------------------------------------------------------
# Singleton predicates
# ---------------------------------------------------------------------------


def _infer_singleton(
    root: str, sub_models: Sequence[StackHeapModel], boundary: Sequence[str]
) -> AtomResult | None:
    """Derive ``root |-> (k1, ..., kn)`` when every sub-model is one cell."""
    cells = []
    for model in sub_models:
        root_value = model.stack_dict.get(root)
        if root_value is None or root_value not in model.heap:
            return None
        cells.append(model.heap[root_value])
    type_names = {cell.type_name for cell in cells}
    if len(type_names) != 1:
        return None
    type_name = type_names.pop()
    field_count = len(cells[0].values)
    if any(len(cell.values) != field_count for cell in cells):
        return None

    args: list[Expr] = []
    exists: list[str] = []
    per_model_instantiations: list[dict[str, int]] = [dict() for _ in sub_models]
    for position in range(field_count):
        common = _common_variable_for_field(position, cells, sub_models, boundary)
        if common is not None:
            args.append(common)
            continue
        fresh_name = fresh_vars(1, prefix="u")[0]
        exists.append(fresh_name)
        args.append(Var(fresh_name))
        for index, cell in enumerate(cells):
            per_model_instantiations[index][fresh_name] = cell.values[position]

    atom = PointsTo(Var(root), type_name, args)
    residuals = []
    for model in sub_models:
        root_value = model.stack_dict[root]
        residuals.append(model.with_heap(model.heap.remove([root_value])))
    return AtomResult(
        atom=atom,
        exists=tuple(exists),
        residual_models=tuple(residuals),
        instantiations=tuple(per_model_instantiations),
    )


def _common_variable_for_field(
    position: int,
    cells: Sequence,
    sub_models: Sequence[StackHeapModel],
    boundary: Sequence[str],
) -> Expr | None:
    """A boundary variable (or nil) whose value matches this field in every model."""
    if all(cell.values[position] == 0 for cell in cells):
        return Nil()
    for name in boundary:
        if name == NIL_NAME:
            continue
        if all(
            name in model.stack_dict
            and model.stack_dict[name] == cell.values[position]
            for model, cell in zip(sub_models, cells)
        ):
            return Var(name)
    return None


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _to_expr(name: str) -> Expr:
    return Nil() if name == NIL_NAME else Var(name)


def _var_type(name: str, models: Sequence[StackHeapModel]) -> str | None:
    for model in models:
        var_type = model.type_dict.get(name)
        if var_type is not None:
            return var_type
    return None


def _rank_and_prune(
    results: list[AtomResult], weights: Sequence[int] | None = None
) -> list[AtomResult]:
    """Prefer full-coverage results with the fewest fresh existentials."""

    def rank(result: AtomResult) -> tuple:
        if weights is None:
            residual = sum(len(model.heap) for model in result.residual_models)
        else:
            residual = sum(
                weight * len(model.heap)
                for weight, model in zip(weights, result.residual_models)
            )
        return (
            0 if result.covers_everything() else 1,
            residual,
            len(result.exists),
        )

    unique: list[AtomResult] = []
    seen: set[str] = set()
    for result in sorted(results, key=rank):
        key = repr(result.atom)
        if key in seen:
            continue
        seen.add(key)
        unique.append(result)
    return unique[:MAX_RESULTS]
