"""Canonical labeling: permutation invariance and checker equivalence.

The contract of :mod:`repro.sl.model`'s canonical layer is twofold:

* **Invariance** -- renaming a model's addresses through any bijection (that
  is applied consistently to the stack, the heap domain and every pointer
  field) does not change its canonical form: ``canonical(permute(m)) ==
  canonical(m)``, with the two relabelings composing into the witness
  bijection.
* **Exactness** -- the checker's verdicts on a permuted model are the
  verdicts on the original, transported through the bijection: same
  accept/refute decision, residual/consumed/instantiation equal up to the
  renaming.  This holds both for the per-candidate search (trivially: it
  never sees the other model) and, crucially, for the canonical stream
  memo, which *shares* one skeleton search between the original and the
  permuted copy.  End to end, a location whose models include renamed
  copies infers on the fast path exactly what ``reference_search`` infers.

The permutations deliberately move addresses into a disjoint high range so
no renamed address collides with integer data (the exactness guard would
otherwise exclude the model from sharing, which is correct but would make
these tests vacuous).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchsuite.registry import get_benchmark
from repro.core.infer_atom import Candidate, _candidate_variant
from repro.core.sling import Sling, SlingConfig
from repro.lang.types import standard_structs
from repro.sl import search as search_module
from repro.sl.checker import BATCH_VACUOUS, ModelChecker, build_skeleton
from repro.sl.model import CanonicalForm, Heap, HeapCell, StackHeapModel
from repro.sl.parser import parse_formula
from repro.sl.spatial import PredApp, SymHeap
from repro.sl.stdpreds import standard_predicates
from repro.sl.exprs import Nil, Var

_PREDICATES = standard_predicates()
_STRUCTS = standard_structs()
_FRESH = ("u91", "u92")


def _sll_heap(size: int) -> dict[int, HeapCell]:
    return {
        index + 1: HeapCell("SllNode", {"next": index + 2 if index + 1 < size else 0})
        for index in range(size)
    }


def _snode_heap(values: list[int]) -> dict[int, HeapCell]:
    cells = {}
    next_addr = 0
    for index in range(len(values) - 1, -1, -1):
        addr = index + 1
        cells[addr] = HeapCell("SNode", {"next": next_addr, "data": values[index]})
        next_addr = addr
    return cells


def _permute(model: StackHeapModel, mapping: dict[int, int]) -> StackHeapModel:
    """Rename every address occurrence of the model through ``mapping``."""

    def rename(value: int) -> int:
        return mapping.get(value, value)

    cells = {
        rename(addr): HeapCell(
            cell.type_name,
            [
                (name, rename(value) if value in mapping else value)
                for name, value in cell.fields
            ],
        )
        for addr, cell in model.heap.items()
    }
    stack = [(name, rename(value)) for name, value in model.stack]
    return StackHeapModel(
        stack,
        Heap(cells),
        model.var_types,
        [rename(addr) for addr in model.freed_addresses],
    )


def _shuffled_mapping(heap: Heap, order: list[int], base: int = 1000) -> dict[int, int]:
    """A bijection from the heap's addresses into a disjoint high range."""
    addresses = sorted(heap)
    targets = [base + position for position in range(len(addresses))]
    shuffled = [targets[index % len(targets)] for index in order[: len(targets)]]
    # ``order`` is a hypothesis-drawn preference list; fall back to a stable
    # assignment for the remainder and deduplicate collisions.
    used = set()
    result = {}
    pool = iter(target for target in targets)
    for addr, preferred in itertools.zip_longest(addresses, shuffled):
        if addr is None:
            break
        target = preferred
        while target is None or target in used:
            target = next(pool)
        used.add(target)
        result[addr] = target
    return result


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(min_value=0, max_value=6),
    y_choice=st.integers(min_value=0, max_value=7),
    order=st.permutations(list(range(6))),
)
def test_canonical_form_invariant_under_permutation(size, y_choice, order):
    y = 0 if y_choice == 0 or size == 0 else min(y_choice, size)
    model = StackHeapModel(
        {"x": 1 if size else 0, "y": y},
        Heap(_sll_heap(size)),
        {"x": "SllNode*", "y": "SllNode*"},
    )
    mapping = _shuffled_mapping(model.heap, list(order))
    permuted = _permute(model, mapping)

    canon = model.canonical(_STRUCTS)
    canon_permuted = permuted.canonical(_STRUCTS)
    assert canon.exact and canon_permuted.exact
    assert canon.form == canon_permuted.form
    # The relabelings compose into the witness bijection.
    for addr, cid in canon.to_id.items():
        assert canon_permuted.from_addr[cid] == mapping[addr]


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(st.integers(min_value=10, max_value=99), min_size=0, max_size=5),
    order=st.permutations(list(range(5))),
)
def test_canonical_form_keeps_integer_data(values, order):
    """Same shape, different data => different canonical forms; and data in
    the address range of the *renamed* model never confuses the encoding.

    Data is drawn from 10..99: disjoint from the original addresses (1..5),
    so the models stay exactly canonicalizable (a collision trips the
    exactness guard instead -- covered by ``TestInternTable``)."""
    model = StackHeapModel(
        {"x": 1 if values else 0}, Heap(_snode_heap(values)), {"x": "SNode*"}
    )
    mapping = _shuffled_mapping(model.heap, list(order))
    permuted = _permute(model, mapping)
    assert model.canonical(_STRUCTS).form == permuted.canonical(_STRUCTS).form
    if values:
        bumped = [value + 1 for value in values]
        other = StackHeapModel(
            {"x": 1}, Heap(_snode_heap(bumped)), {"x": "SNode*"}
        )
        assert other.canonical(_STRUCTS).form != model.canonical(_STRUCTS).form


def _mapped_result(result, mapping):
    if result is None:
        return None
    return (
        {mapping.get(addr, addr) for addr in result.residual.domain()},
        {name: mapping.get(value, value) for name, value in result.instantiation.items()},
        {mapping.get(addr, addr) for addr in result.consumed},
    )


def _concrete_result(result):
    if result is None:
        return None
    return (set(result.residual.domain()), dict(result.instantiation), set(result.consumed))


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(min_value=0, max_value=6),
    y_choice=st.integers(min_value=0, max_value=7),
    order=st.permutations(list(range(6))),
)
def test_checker_verdicts_invariant_under_permutation(size, y_choice, order):
    y = 0 if y_choice == 0 or size == 0 else min(y_choice, size)
    model = StackHeapModel(
        {"x": 1 if size else 0, "y": y},
        Heap(_sll_heap(size)),
        {"x": "SllNode*", "y": "SllNode*"},
    )
    permuted = _permute(model, _shuffled_mapping(model.heap, list(order)))
    mapping = _shuffled_mapping(model.heap, list(order))
    checker = ModelChecker(_PREDICATES, structs=_STRUCTS)
    for text in ("sll(x)", "lseg(x, y)", "lseg(x, nil)", "exists u. lseg(x, u)"):
        formula = parse_formula(text)
        original = checker.check(model, formula)
        renamed = checker.check(permuted, formula)
        assert _mapped_result(original, mapping) == _concrete_result(renamed), text


@settings(max_examples=20, deadline=None)
@given(
    size=st.integers(min_value=0, max_value=5),
    y_choice=st.integers(min_value=0, max_value=6),
    order=st.permutations(list(range(5))),
)
def test_shared_canonical_streams_match_exact_checker(size, y_choice, order):
    """check_batch over [m, permute(m)] -- which shares one canonical stream
    between the two -- must be bit-identical to the exact per-candidate
    search on each model."""
    y = 0 if y_choice == 0 or size == 0 else min(y_choice, size)
    model = StackHeapModel(
        {"x": 1 if size else 0, "y": y},
        Heap(_sll_heap(size)),
        {"x": "SllNode*", "y": "SllNode*"},
    )
    permuted = _permute(model, _shuffled_mapping(model.heap, list(order)))
    models = [model, permuted]

    predicate = _PREDICATES.get("lseg")
    pool = ["x", "y", "nil", *_FRESH[: predicate.arity - 1]]
    fresh = set(_FRESH)
    seen: set[tuple] = set()
    members = []
    for permutation in itertools.permutations(pool, predicate.arity):
        if permutation[0] != "x":
            continue
        signature = tuple("?" if name in fresh else name for name in permutation)
        if signature in seen:
            continue
        seen.add(signature)
        members.append(Candidate(permutation, fresh))

    shared = ModelChecker(_PREDICATES, structs=_STRUCTS)
    exact = ModelChecker(_PREDICATES)
    skeleton = build_skeleton("lseg", predicate.arity, "x", 0)
    variants = []
    for candidate in members:
        used_fresh = tuple(n for n in candidate.permutation if n in candidate.fresh)
        formula = SymHeap(
            exists=used_fresh,
            spatial=PredApp(
                "lseg",
                [Nil() if n == "nil" else Var(n) for n in candidate.permutation],
            ),
        )
        variants.append(_candidate_variant(candidate, formula, 0))
    outcomes = shared.check_batch(models, skeleton, variants)
    for variant, outcome in zip(variants, outcomes):
        reference = exact.check_all(models, variant.formula)
        if outcome is None:
            assert reference is None, variant.formula
        elif outcome is BATCH_VACUOUS:
            assert reference is None or all(not r.consumed for r in reference)
        else:
            assert reference is not None, variant.formula
            for got, want in zip(outcome, reference):
                assert got.residual == want.residual
                assert got.instantiation == want.instantiation
                assert got.consumed == want.consumed
    if size:
        # The permuted copy must have been served from the original's stream.
        assert shared.stats.canonical_stream_hits >= 1


def _sll_model(base: int, size: int, y_index: int | None = None) -> StackHeapModel:
    """An sll of ``size`` cells at addresses ``base``, ``base + 1``, ...

    ``y`` is nil, or points at the cell ``y_index`` steps from the head."""
    cells = {
        base + index: HeapCell(
            "SllNode", {"next": base + index + 1 if index + 1 < size else 0}
        )
        for index in range(size)
    }
    return StackHeapModel(
        {"x": base if size else 0, "y": 0 if y_index is None else base + y_index},
        Heap(cells),
        {"x": "SllNode*", "y": "SllNode*"},
    )


def _snode_model(base: int, data: list[int]) -> StackHeapModel:
    """A sorted-list node chain at ``base``, ``base + 1``, ... holding
    ``data``; a datum equal to an allocated address makes the heap's
    canonical labeling non-exact."""
    cells = {
        base + index: HeapCell(
            "SNode",
            {"next": base + index + 1 if index + 1 < len(data) else 0, "data": value},
        )
        for index, value in enumerate(data)
    }
    return StackHeapModel({"x": base if data else 0}, Heap(cells), {"x": "SNode*"})


@pytest.mark.parametrize(
    "models, max_solutions, keys, name",
    [
        pytest.param(
            # Three shapes presented as five models: sizes 2, 3 and 3 again
            # under another address layout, a renamed copy of the size-2
            # model, and size 4.
            [
                _sll_model(1, 2),
                _sll_model(1, 3),
                _sll_model(700, 3),
                _sll_model(40, 2),
                _sll_model(1, 4),
            ],
            None,
            "canonical",
            "sll/insertFront",
            id="renamed-copies",
        ),
        pytest.param(
            # A solution cap of 1 truncates every multi-solution search, so
            # the selected reduction depends on the enumeration order, which
            # address renaming does not preserve.
            [_sll_model(1, 3), _sll_model(600, 3)],
            1,
            "canonical",
            "sll/insertFront",
            id="truncated-enumeration",
        ),
        pytest.param(
            # ``y`` aliases a cell inside the list; the renamed copies move
            # the aliased cell along with the rest of the heap.
            [
                _sll_model(1, 3, y_index=1),
                _sll_model(500, 3, y_index=1),
                _sll_model(1, 4, y_index=2),
                _sll_model(90, 4, y_index=2),
            ],
            None,
            "canonical",
            "sll/insertFront",
            id="aliased-stack-var",
        ),
        pytest.param(
            # The empty list next to two layouts of a one-cell list.
            [_sll_model(1, 0), _sll_model(1, 1), _sll_model(300, 1)],
            None,
            "canonical",
            "sll/insertFront",
            id="empty-and-singleton",
        ),
        pytest.param(
            # Without structs no labeling is exact: every stream is keyed
            # on its concrete (root value, heap), renamed copies included.
            [_sll_model(1, 2), _sll_model(1, 3), _sll_model(700, 3)],
            None,
            "concrete",
            "sll/insertFront",
            id="checker-without-structs",
        ),
        pytest.param(
            # An int field holding an allocated address (data 2 at address
            # 2, data 21 at address 21): those heaps keep concrete keys.
            [_snode_model(1, [4, 2]), _snode_model(20, [21, 5, 9]), _snode_model(40, [3, 7])],
            None,
            "mixed",
            "sorted/insert",
            id="non-exact-heap",
        ),
    ],
)
def test_renamed_models_infer_like_reference_search(
    models, max_solutions, keys, name, monkeypatch
):
    """Address-renamed copies share canonical streams on the fast path and
    still infer exactly the invariants of ``reference_search``, which checks
    every model on its own.  ``keys`` says which stream keys the fast path
    uses: a heap without an exact labeling keeps a concrete key, shares
    nothing, and its stream never enters the memo's ``finished`` log, which
    is what a disk flush writes."""
    if max_solutions is not None:
        monkeypatch.setattr(search_module, "MAX_SOLUTIONS", max_solutions)
    benchmark = get_benchmark(name)

    def infer(reference_search: bool):
        sling = Sling(
            benchmark.program,
            benchmark.predicates,
            SlingConfig(discard_crashed_runs=True, reference_search=reference_search),
        )
        if keys == "concrete":
            sling.checker.structs = None
        invariants = sling.infer_from_models(models, location="entry")
        return [invariant.pretty() for invariant in invariants], sling.checker

    fast, checker = infer(False)
    reference, _ = infer(True)
    assert fast
    assert fast == reference
    memo = checker._streams
    concrete = [key for key in memo if not isinstance(key[-1], CanonicalForm)]
    assert all(isinstance(key[-1], CanonicalForm) for key in memo.finished)
    if keys == "canonical":
        assert not concrete
        # The renamed copies were served from streams solved on the originals.
        assert checker.stats.canonical_stream_hits > 0
    elif keys == "concrete":
        assert len(concrete) == len(memo) > 0
        assert checker.stats.canonical_stream_hits == 0
        assert not memo.finished
    else:
        assert 0 < len(concrete) < len(memo)


def _fast_path_stats(models: list[StackHeapModel]):
    benchmark = get_benchmark("sll/insertFront")
    sling = Sling(
        benchmark.program,
        benchmark.predicates,
        SlingConfig(discard_crashed_runs=True),
    )
    invariants = sling.infer_from_models(models, location="entry")
    return [invariant.pretty() for invariant in invariants], sling.checker.stats


@pytest.mark.parametrize(
    "originals",
    [
        pytest.param([_sll_model(1, 2), _sll_model(1, 3)], id="two-lists"),
        pytest.param(
            [_sll_model(1, 0), _sll_model(1, 1), _sll_model(1, 5)],
            id="with-empty-list",
        ),
        pytest.param(
            [_sll_model(1, 3, y_index=1), _sll_model(1, 4, y_index=3)],
            id="y-aliases-the-tail",
        ),
    ],
)
def test_renamed_copies_add_no_skeleton_search(originals):
    """Each model of a location runs Algorithm 2 on its own, but a renamed
    copy of a list already seen solves no skeleton search of its own: its
    streams are served, through the canonical stream key, from the ones
    solved on the original.  That holds for an aliased list too, whose
    residual heaps point at cells split off: those out-of-heap pointers are
    labeled like in-heap addresses."""
    copies = [
        _permute(model, {addr: 2000 + addr for addr in model.heap})
        for model in originals
    ]
    alone, alone_stats = _fast_path_stats(originals)
    doubled, doubled_stats = _fast_path_stats(originals + copies)
    assert alone
    assert doubled == alone
    assert doubled_stats.skeletons_solved == alone_stats.skeletons_solved
    assert doubled_stats.canonical_stream_hits > alone_stats.canonical_stream_hits


class TestInternTable:
    def test_forms_are_shared_objects(self):
        m1 = StackHeapModel({"x": 1}, Heap(_sll_heap(2)), {"x": "SllNode*"})
        m2 = _permute(m1, {1: 71, 2: 45})
        assert m1.canonical(_STRUCTS).form is m2.canonical(_STRUCTS).form

    def test_integer_collision_trips_exactness_guard(self):
        # data == 1 collides with the allocated address 1.
        cells = {1: HeapCell("SNode", {"next": 0, "data": 1})}
        model = StackHeapModel({"x": 1}, Heap(cells), {"x": "SNode*"})
        assert not model.canonical(_STRUCTS).exact

    def test_missing_structs_is_never_exact(self):
        model = StackHeapModel({"x": 1}, Heap(_sll_heap(2)), {"x": "SllNode*"})
        assert not model.canonical(None).exact
