"""Skeleton-batched checking: ``check_batch`` must equal per-candidate checks.

The contract under test is the exactness guarantee of
:meth:`repro.sl.checker.ModelChecker.check_batch` (see its docstring):

* a ``None`` outcome means the exact ``check_all`` refutes the candidate;
* a :data:`BATCH_VACUOUS` outcome means the exact outcome is refuted or
  all-vacuous -- either way the candidate loop drops it;
* a results outcome carries *bit-identical* reductions -- same residual
  heaps, same consumed sets, same existential instantiations -- as the
  per-candidate search.

The property tests drive randomized sll / dll / tree workloads (heap shapes,
stack aliasing, dangling and nil pointers) through the full candidate
lattice of a predicate, exactly as ``infer_atoms`` builds it: every argument
permutation of boundary variables and fresh existentials, grouped into one
skeleton per root position.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.infer_atom import Candidate, _candidate_variant
from repro.sl.checker import BATCH_VACUOUS, ModelChecker, PureVariant, build_skeleton
from repro.sl.exprs import Nil, Var
from repro.sl.model import Heap, HeapCell, StackHeapModel
from repro.sl.spatial import PredApp, SymHeap
from repro.sl.stdpreds import standard_predicates

_PREDICATES = standard_predicates()

#: Fresh existential names used by the generated candidates ("u" prefix, as
#: in Algorithm 2's enumeration).
_FRESH = ("u91", "u92", "u93")


# ---------------------------------------------------------------------------
# model generators
# ---------------------------------------------------------------------------


def _sll_heap(size: int, base: int = 1) -> dict[int, HeapCell]:
    return {
        base + index: HeapCell(
            "SllNode", {"next": base + index + 1 if index + 1 < size else 0}
        )
        for index in range(size)
    }


def _dll_heap(size: int) -> dict[int, HeapCell]:
    cells = {}
    for index in range(1, size + 1):
        cells[index] = HeapCell(
            "DllNode", {"next": index + 1 if index < size else 0, "prev": index - 1}
        )
    return cells


def _tree_heap(size: int) -> dict[int, HeapCell]:
    """A left-packed binary tree with ``size`` nodes at addresses 1..size."""
    cells = {}
    for index in range(1, size + 1):
        left = 2 * index if 2 * index <= size else 0
        right = 2 * index + 1 if 2 * index + 1 <= size else 0
        cells[index] = HeapCell("TNode", {"left": left, "right": right})
    return cells


def _stack_value(choice: int, size: int) -> int:
    """Map a hypothesis draw onto nil, a valid address or a dangling one."""
    if choice == 0 or size == 0:
        return 0
    if choice <= size:
        return choice
    return 997  # dangling: never allocated by the generators above


# ---------------------------------------------------------------------------
# the equivalence harness
# ---------------------------------------------------------------------------


def _result_key(results):
    if results is None:
        return None
    return [
        (r.residual, dict(r.instantiation), set(r.consumed))
        for r in results
    ]


def _candidates(pred_name: str, boundary: list[str], root: str) -> list[Candidate]:
    """Every type-free argument permutation of the candidate lattice."""
    predicate = _PREDICATES.get(pred_name)
    arity = predicate.arity
    pool = list(boundary) + list(_FRESH[: max(arity - 1, 0)])
    fresh = set(_FRESH)
    seen: set[tuple] = set()
    out: list[Candidate] = []
    for permutation in itertools.permutations(pool, arity):
        if root not in permutation:
            continue
        signature = tuple("?" if name in fresh else name for name in permutation)
        if signature in seen:
            continue
        seen.add(signature)
        out.append(Candidate(permutation, fresh))
    return out


def _variant_of(pred_name: str, candidate: Candidate, position: int) -> PureVariant:
    """Build the candidate's formula and pure-delta variant (as infer_atoms does)."""
    used_fresh = tuple(name for name in candidate.permutation if name in candidate.fresh)
    formula = SymHeap(
        exists=used_fresh,
        spatial=PredApp(
            pred_name,
            [Nil() if name == "nil" else Var(name) for name in candidate.permutation],
        ),
    )
    return _candidate_variant(candidate, formula, position)


def _assert_batch_matches_exact(pred_name, boundary, root, models, drop_vacuous=True):
    predicate = _PREDICATES.get(pred_name)
    batch_checker = ModelChecker(_PREDICATES)
    exact_checker = ModelChecker(_PREDICATES)

    by_position: dict[int, list[Candidate]] = {}
    for candidate in _candidates(pred_name, boundary, root):
        by_position.setdefault(candidate.permutation.index(root), []).append(candidate)

    compared = 0
    for position, members in by_position.items():
        skeleton = build_skeleton(predicate.name, predicate.arity, root, position)
        variants = [_variant_of(predicate.name, candidate, position) for candidate in members]
        outcomes = batch_checker.check_batch(
            models, skeleton, variants, drop_vacuous=drop_vacuous
        )
        assert len(outcomes) == len(variants)
        for variant, outcome in zip(variants, outcomes):
            exact = exact_checker.check_all(models, variant.formula)
            compared += 1
            if outcome is None:
                assert exact is None, (
                    f"check_batch refuted {variant.formula!r} but check_all accepted"
                )
            elif outcome is BATCH_VACUOUS:
                assert exact is None or all(not r.consumed for r in exact), (
                    f"check_batch called {variant.formula!r} vacuous but the exact "
                    "reduction consumes cells"
                )
            else:
                assert exact is not None, (
                    f"check_batch accepted {variant.formula!r} but check_all refuted"
                )
                assert _result_key(outcome) == _result_key(exact), (
                    f"check_batch results for {variant.formula!r} differ from the "
                    "exact per-candidate results"
                )
    assert compared > 0


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
    y_choice=st.integers(min_value=0, max_value=7),
)
def test_sll_lattice_batch_equals_exact(sizes, y_choice):
    models = [
        StackHeapModel(
            {"x": 1 if size else 0, "y": _stack_value(y_choice, size)},
            Heap(_sll_heap(size)),
            {"x": "SllNode*", "y": "SllNode*"},
        )
        for size in sizes
    ]
    for pred in ("sll", "lseg"):
        _assert_batch_matches_exact(pred, ["x", "y", "nil"], "x", models)


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=2),
    y_choice=st.integers(min_value=0, max_value=6),
    corrupt=st.booleans(),
)
def test_dll_lattice_batch_equals_exact(sizes, y_choice, corrupt):
    models = []
    for size in sizes:
        cells = _dll_heap(size)
        if corrupt and size >= 2:
            fields = dict(cells[2].fields)
            fields["prev"] = 2  # self-loop back-pointer: never a valid dll
            cells[2] = HeapCell("DllNode", fields)
        models.append(
            StackHeapModel(
                {"x": 1 if size else 0, "y": _stack_value(y_choice, size)},
                Heap(cells),
                {"x": "DllNode*", "y": "DllNode*"},
            )
        )
    _assert_batch_matches_exact("dll", ["x", "y", "nil"], "x", models)


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=2),
    y_choice=st.integers(min_value=0, max_value=8),
    drop_vacuous=st.booleans(),
)
def test_tree_lattice_batch_equals_exact(sizes, y_choice, drop_vacuous):
    models = [
        StackHeapModel(
            {"x": 1 if size else 0, "y": _stack_value(y_choice, size)},
            Heap(_tree_heap(size)),
            {"x": "TNode*", "y": "TNode*"},
        )
        for size in sizes
    ]
    for pred in ("tree", "treeseg"):
        _assert_batch_matches_exact(
            pred, ["x", "y", "nil"], "x", models, drop_vacuous=drop_vacuous
        )


@settings(max_examples=20, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=5),
    y_choice=st.integers(min_value=0, max_value=7),
)
def test_sorted_list_bounds_batch_equals_exact(values, y_choice):
    """`sls`/`slseg` leave their bound parameters to the deferred endgame --
    the matcher must re-run `_discharge_deferred` per variant, including the
    bounds-fixpoint witness selection."""
    cells = {}
    next_addr = 0
    for index in range(len(values) - 1, -1, -1):
        addr = index + 1
        cells[addr] = HeapCell("SNode", {"next": next_addr, "data": values[index]})
        next_addr = addr
    size = len(values)
    models = [
        StackHeapModel(
            {"x": 1 if size else 0, "y": _stack_value(y_choice, size)},
            Heap(cells),
            {"x": "SNode*", "y": "SNode*"},
        )
    ]
    for pred in ("sls", "slseg"):
        _assert_batch_matches_exact(pred, ["x", "y", "nil"], "x", models)


# ---------------------------------------------------------------------------
# unit tests: stream memo, bounded refuters
# ---------------------------------------------------------------------------


class TestEnvStreamMemo:
    def test_streams_are_reused_across_batches(self):
        checker = ModelChecker(_PREDICATES)
        models = [
            StackHeapModel({"x": 1, "y": 2}, Heap(_sll_heap(3)), {"x": "SllNode*"})
        ]
        by = _candidates("lseg", ["x", "y", "nil"], "x")
        position = by[0].permutation.index("x")
        members = [c for c in by if c.permutation.index("x") == position]
        skeleton = build_skeleton("lseg", 2, "x", position)

        def variants():
            return [_variant_of("lseg", candidate, position) for candidate in members]

        checker.check_batch(models, skeleton, variants())
        solved = checker.screen_stats.skeletons_solved
        assert solved >= 1
        checker.check_batch(models, skeleton, variants())
        assert checker.screen_stats.skeletons_solved == solved  # no re-solve
        assert checker.screen_stats.env_stream_reuses >= 1

    def test_streams_shared_across_aliasing_roots(self):
        # Two different root variables pointing at the same structure share
        # one stream: the memo keys on the root's value, not its name.
        checker = ModelChecker(_PREDICATES)
        model = StackHeapModel(
            {"x": 1, "z": 1, "y": 2}, Heap(_sll_heap(3)), {"x": "SllNode*"}
        )
        for root in ("x", "z"):
            members = [
                c
                for c in _candidates("lseg", [root, "y", "nil"], root)
                if c.permutation.index(root) == 0
            ]
            skeleton = build_skeleton("lseg", 2, root, 0)
            variants = [_variant_of("lseg", candidate, 0) for candidate in members]
            checker.check_batch([model], skeleton, variants)
        assert checker.screen_stats.skeletons_solved == 1
        assert checker.screen_stats.env_stream_reuses >= 1


class TestBoundedRefuters:
    def test_refuter_table_is_lru_bounded(self):
        checker = ModelChecker(_PREDICATES)
        checker.refuters_limit = 4
        for index in range(10):
            checker._learn_refuter(("shape", index), 0)
        assert len(checker._refuters) == 4
        assert ("shape", 9) in checker._refuters
        assert ("shape", 0) not in checker._refuters
