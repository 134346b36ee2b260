"""Columnar group kernel: ``decide_group`` must agree with the reference.

The contract under test is the exactness guarantee of
:func:`repro.sl.kernels.decide_group` (see its docstring), checked per
(variant, model) pair against two oracles defined here:

* a plain per-variant *scan* of the stream applying the exact search's
  selection rule -- the kernel's verdict (``None`` refutation,
  ``_UNDECIDED`` sentinel or settled :class:`CheckResult`) must be the same
  object kind and value;
* the reference ``ModelChecker.check`` of the variant's own formula --
  every verdict other than ``_UNDECIDED`` (which makes the caller run the
  exact search) must be exactly its result.

The property tests drive randomized sll / dll / tree / sorted-list
workloads through the full candidate lattice of a predicate, under both
stream-view kinds: concretely-keyed streams (identity view) and
canonically-keyed streams (address-translating view).  The unit tests pin
each ``_UNDECIDED`` trigger (incomplete stream, ``MAX_SOLUTIONS`` overflow,
tie-ambiguity between distinct best reductions) deterministically and
exercise the kernel's slot matching (posting-list resolution plus the
deferred endgame) against a plain reference closure on synthetic entries.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.infer_atom import Candidate, _candidate_variant
from repro.lang.types import standard_structs
from repro.sl import checker as checker_module
from repro.sl import kernels
from repro.sl.checker import (
    CheckResult,
    EnvStream,
    ModelChecker,
    _IDENTITY_VIEW,
    _UNDECIDED,
    _variant_instantiation,
    build_skeleton,
)
from repro.sl.exprs import Nil, Var
from repro.sl.model import Heap, HeapCell, StackHeapModel
from repro.sl.spatial import PredApp, SymHeap
from repro.sl.stdpreds import standard_predicates

_PREDICATES = standard_predicates()
_STRUCTS = standard_structs()

_FRESH = ("u91", "u92", "u93")


# ---------------------------------------------------------------------------
# model generators (mirror tests/sl/test_check_batch.py)
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
    cells = {}
    for index in range(1, size + 1):
        left = 2 * index if 2 * index <= size else 0
        right = 2 * index + 1 if 2 * index + 1 <= size else 0
        cells[index] = HeapCell("TNode", {"left": left, "right": right})
    return cells


def _sorted_heap(values: list[int]) -> dict[int, HeapCell]:
    cells = {}
    next_addr = 0
    for index in range(len(values) - 1, -1, -1):
        addr = index + 1
        cells[addr] = HeapCell("SNode", {"next": next_addr, "data": values[index]})
        next_addr = addr
    return cells


def _stack_value(choice: int, size: int) -> int:
    if choice == 0 or size == 0:
        return 0
    if choice <= size:
        return choice
    return 997  # dangling: never allocated by the generators above


def _candidates(pred_name: str, boundary: list[str], root: str) -> list[Candidate]:
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


def _variant_of(pred_name: str, candidate: Candidate, position: int):
    used_fresh = tuple(name for name in candidate.permutation if name in candidate.fresh)
    formula = SymHeap(
        exists=used_fresh,
        spatial=PredApp(
            pred_name,
            [Nil() if name == "nil" else Var(name) for name in candidate.permutation],
        ),
    )
    return _candidate_variant(candidate, formula, position)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _reference_matcher(positions, slot_names, discharge):
    """The matcher contract as a plain closure.

    Pinned slots must agree with the entry's stored values (an unbound
    ``None`` slot matches anything); entries carrying deferred goals then
    re-run the endgame with the pinned names bound where the leaf left them
    unbound.
    """
    names = tuple(slot_names[position] for position in positions)

    def match(entry, values, concrete, view):
        for position, value in zip(positions, values):
            slot = entry.values[position]
            if slot is not None and slot != value:
                return False, None
        if entry.deferred is None:
            return True, None
        env = view.decode_env(entry.env)
        for name, value in zip(names, concrete):
            if env.get(name) is None:
                env[name] = value
        final_env = discharge(list(entry.deferred), env, entry.unknowns)
        return final_env is not None, final_env

    return match


# ---------------------------------------------------------------------------
# the verdict-equivalence harness
# ---------------------------------------------------------------------------


def _verdict_key(verdict):
    if verdict is None:
        return "refuted"
    if verdict is _UNDECIDED:
        return "undecided"
    return (verdict.residual, dict(verdict.instantiation), set(verdict.consumed))


def _checker(canonical: bool) -> ModelChecker:
    """A checker keying streams canonically (with structs) or concretely."""
    return ModelChecker(_PREDICATES, structs=_STRUCTS if canonical else None)


def _scan_verdict(checker, stream, view, item, slot_names, stack, model, domain):
    """The oracle scan: one pass over the stream for one variant.

    Applies the exact search's selection rule to the matching entries: the
    first solution of maximal consumed size wins; more than
    ``MAX_SOLUTIONS`` matches, an incomplete stream or tied solutions that
    disagree on residual or instantiation leave the pair ``_UNDECIDED``.
    """
    _, variant, positions, values = item
    match = _reference_matcher(positions, slot_names, checker._discharge_deferred)
    encoded = view.encode_values(values)
    matches, best_size, tied = 0, -1, []
    stream.ensure()
    for entry in stream.entries:
        matched, final_env = match(entry, encoded, values, view)
        if not matched:
            continue
        matches += 1
        if matches > checker_module.MAX_SOLUTIONS:
            return _UNDECIDED
        if entry.nconsumed > best_size:
            best_size, tied = entry.nconsumed, [(entry, final_env)]
        elif entry.nconsumed == best_size:
            tied.append((entry, final_env))
    if not stream.complete:
        return _UNDECIDED
    if matches == 0:
        return None

    def instantiation(entry, final_env):
        return _variant_instantiation(variant, entry, final_env, stack, slot_names, view)

    chosen, chosen_env = tied[0]
    chosen_instantiation = instantiation(chosen, chosen_env)
    for entry, final_env in tied[1:]:
        if entry.avail != chosen.avail or instantiation(entry, final_env) != chosen_instantiation:
            return _UNDECIDED
    avail = view.decode_avail(chosen.avail)
    return CheckResult(
        residual=model.heap.restrict(avail),
        instantiation=chosen_instantiation,
        consumed=domain - avail,
    )


def _assert_kernel_matches_scan(checker, pred_name, boundary, root, models):
    """Per (variant, model): ``decide_group`` == the oracle scan, and every
    settled verdict == the reference ``check`` of the variant's formula.

    The kernel and the scan read the same memoized stream (the kernel
    materializes it first), so any divergence is the kernel's fault, not the
    enumeration's.
    """
    predicate = _PREDICATES.get(pred_name)
    reference = ModelChecker(_PREDICATES)
    compared = 0
    by_position: dict[int, list[Candidate]] = {}
    for candidate in _candidates(pred_name, boundary, root):
        by_position.setdefault(candidate.permutation.index(root), []).append(candidate)

    for position, members in by_position.items():
        skeleton = build_skeleton(predicate.name, predicate.arity, root, position)
        atom = skeleton.spatial_atoms()[0]
        slot_names = tuple(arg.name for arg in atom.args)
        variants = [_variant_of(predicate.name, c, position) for c in members]
        for model in models:
            stack = model.stack_map
            domain = model.heap.domain()
            root_value = stack.get(root)
            if root_value is None:
                continue
            stream, view = checker._get_stream(skeleton, model, position, root_value)
            work = []
            for index, variant in enumerate(variants):
                required = variant.resolve(stack)
                if required is None:
                    continue
                positions = tuple(pair[0] for pair in required)
                values = tuple(pair[1] for pair in required)
                work.append((index, variant, positions, values))
            verdicts = kernels.decide_group(
                checker, stream, view, slot_names, stack, model, domain, work
            )
            assert len(verdicts) == len(work)
            for item, verdict in zip(work, verdicts):
                compared += 1
                scanned = _scan_verdict(
                    checker, stream, view, item, slot_names, stack, model, domain
                )
                assert _verdict_key(verdict) == _verdict_key(scanned), (
                    f"kernel verdict for {item[1].formula!r} diverges from "
                    f"the oracle scan on model {model!r}"
                )
                if verdict is _UNDECIDED:
                    continue
                expected = reference.check(model, item[1].formula)
                assert _verdict_key(verdict) == _verdict_key(expected), (
                    f"kernel verdict for {item[1].formula!r} diverges from "
                    f"the reference check on model {model!r}"
                )
    assert compared > 0


# ---------------------------------------------------------------------------
# property tests, under both stream-view kinds
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
    y_choice=st.integers(min_value=0, max_value=7),
    canonical=st.booleans(),
)
def test_sll_kernel_equals_scan(sizes, y_choice, canonical):
    checker = _checker(canonical)
    models = [
        StackHeapModel(
            {"x": 1 if size else 0, "y": _stack_value(y_choice, size)},
            Heap(_sll_heap(size)),
            {"x": "SllNode*", "y": "SllNode*"},
        )
        for size in sizes
    ]
    for pred in ("sll", "lseg"):
        _assert_kernel_matches_scan(checker, pred, ["x", "y", "nil"], "x", models)


@settings(max_examples=15, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=2),
    y_choice=st.integers(min_value=0, max_value=6),
    corrupt=st.booleans(),
    canonical=st.booleans(),
)
def test_dll_kernel_equals_scan(sizes, y_choice, corrupt, canonical):
    checker = _checker(canonical)
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
    _assert_kernel_matches_scan(checker, "dll", ["x", "y", "nil"], "x", models)


@settings(max_examples=15, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=2),
    y_choice=st.integers(min_value=0, max_value=8),
    canonical=st.booleans(),
)
def test_tree_kernel_equals_scan(sizes, y_choice, canonical):
    checker = _checker(canonical)
    models = [
        StackHeapModel(
            {"x": 1 if size else 0, "y": _stack_value(y_choice, size)},
            Heap(_tree_heap(size)),
            {"x": "TNode*", "y": "TNode*"},
        )
        for size in sizes
    ]
    for pred in ("tree", "treeseg"):
        _assert_kernel_matches_scan(checker, pred, ["x", "y", "nil"], "x", models)


@settings(max_examples=15, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=5),
    y_choice=st.integers(min_value=0, max_value=7),
    canonical=st.booleans(),
)
def test_sorted_list_kernel_equals_scan(values, y_choice, canonical):
    """`sls`/`slseg` leave bound parameters to the deferred endgame: the
    generated ``endgame`` must bind the pinned slots and reproduce the
    ``_discharge_deferred`` bounds-fixpoint witness selection."""
    checker = _checker(canonical)
    size = len(values)
    models = [
        StackHeapModel(
            {"x": 1 if size else 0, "y": _stack_value(y_choice, size)},
            Heap(_sorted_heap(values)),
            {"x": "SNode*", "y": "SNode*"},
        )
    ]
    for pred in ("sls", "slseg"):
        _assert_kernel_matches_scan(checker, pred, ["x", "y", "nil"], "x", models)


# ---------------------------------------------------------------------------
# deterministic _UNDECIDED triggers
# ---------------------------------------------------------------------------


class TestUndecidedTriggers:
    def _tie_verdict(self, entries):
        """Kernel verdict for a hand-built two-entry tie stream."""
        checker = _checker(False)
        model = StackHeapModel({"x": 1}, Heap(_sll_heap(2)), {"x": "SllNode*"})
        stack = model.stack_map
        domain = model.heap.domain()
        skeleton = build_skeleton("lseg", 2, "x", 0)
        atom = skeleton.spatial_atoms()[0]
        slot_names = tuple(arg.name for arg in atom.args)
        hole = slot_names[1]
        leaves = [({"x": 1, hole: value}, avail, [], set()) for value, avail in entries]
        stream = EnvStream(lambda: iter(leaves), slot_names, len(model.heap), 16)
        variant = _variant_of("lseg", Candidate(("x", "u91"), {"u91"}), 0)
        work = [(0, variant, (), ())]
        (verdict,) = kernels.decide_group(
            checker, stream, _IDENTITY_VIEW, slot_names, stack, model, domain, work
        )
        return verdict, model

    def test_residual_tie_ambiguity_is_undecided(self):
        # Two solutions of equal consumed size but different availability
        # sets: the "first of maximal size" rule cannot break the tie.
        verdict, _ = self._tie_verdict([(2, [1]), (2, [2])])
        assert verdict is _UNDECIDED

    def test_instantiation_tie_ambiguity_is_undecided(self):
        # Same residual, but the tied solutions pin the candidate's fresh
        # argument to different values.
        verdict, _ = self._tie_verdict([(2, [1]), (997, [1])])
        assert verdict is _UNDECIDED

    def test_agreeing_ties_settle(self):
        # Ties that agree on residual and instantiation are not ambiguous:
        # the first solution settles the pair.
        verdict, model = self._tie_verdict([(2, [1]), (2, [1])])
        assert verdict is not _UNDECIDED
        assert _verdict_key(verdict) == (
            model.heap.restrict(frozenset({1})), {"u91": 2}, {2}
        )

    def test_max_solutions_overflow_is_undecided(self, monkeypatch):
        # lseg(x, u) on a 3-node list has four solutions (hole at every
        # suffix); MAX_SOLUTIONS=1 forces the overflow sentinel.
        monkeypatch.setattr(checker_module, "MAX_SOLUTIONS", 1)
        checker = _checker(False)
        models = [
            StackHeapModel({"x": 1}, Heap(_sll_heap(3)), {"x": "SllNode*"})
        ]
        _assert_kernel_matches_scan(checker, "lseg", ["x", "nil"], "x", models)
        assert self._some_verdict(checker, "lseg", models) is _UNDECIDED

    def test_incomplete_stream_is_undecided_without_scanning(self, monkeypatch):
        # A stream cut off by the entry cap can refute nothing; the kernel
        # must return _UNDECIDED for every variant without touching entries.
        monkeypatch.setattr(checker_module, "STREAM_MAX_ENTRIES", 1)
        checker = _checker(False)
        models = [
            StackHeapModel({"x": 1}, Heap(_sll_heap(3)), {"x": "SllNode*"})
        ]
        before = checker.stats.pure_variant_evals
        verdicts = self._group_verdicts(checker, "lseg", models)
        assert verdicts and all(v is _UNDECIDED for v in verdicts)
        assert checker.stats.pure_variant_evals == before

    def _group_verdicts(self, checker, pred_name, models):
        predicate = _PREDICATES.get(pred_name)
        model = models[0]
        stack = model.stack_map
        root_value = stack["x"]
        skeleton = build_skeleton(predicate.name, predicate.arity, "x", 0)
        atom = skeleton.spatial_atoms()[0]
        slot_names = tuple(arg.name for arg in atom.args)
        stream, view = checker._get_stream(skeleton, model, 0, root_value)
        work = []
        for index, candidate in enumerate(_candidates(pred_name, ["x", "nil"], "x")):
            if candidate.permutation.index("x") != 0:
                continue
            variant = _variant_of(pred_name, candidate, 0)
            required = variant.resolve(stack)
            if required is None:
                continue
            work.append(
                (
                    index,
                    variant,
                    tuple(pair[0] for pair in required),
                    tuple(pair[1] for pair in required),
                )
            )
        return kernels.decide_group(
            checker, stream, view, slot_names, stack, model, model.heap.domain(), work
        )

    def _some_verdict(self, checker, pred_name, models):
        verdicts = self._group_verdicts(checker, pred_name, models)
        for verdict in verdicts:
            if verdict is _UNDECIDED:
                return verdict
        return None


# ---------------------------------------------------------------------------
# slot matching vs the reference closure
# ---------------------------------------------------------------------------


class _FakeEntry:
    def __init__(self, values, deferred=None, env=None, unknowns=None):
        self.values = values
        self.deferred = deferred
        self.env = env
        self.unknowns = unknowns


class _IdentityView:
    def decode_env(self, env):
        return dict(env)


class TestGeneratedMatchers:
    """The kernel's matching -- a one-entry stream's posting-list resolution
    plus :func:`kernels._endgame` -- against the reference closure."""

    SLOTS = ("x", "?w1", "?w2")

    def _pairs(self, positions):
        names = tuple(self.SLOTS[p] for p in positions)

        def match(entry, values, concrete, view):
            stream = EnvStream(None, self.SLOTS, 0, 16)
            stream.entries = [entry]
            indexes = [stream.position_index(p) for p in positions]
            if not kernels._candidate_entries(indexes, values):
                return False, None
            if entry.deferred is None:
                return True, None
            final_env = kernels._endgame(entry, names, concrete, view, self._discharge)
            return final_env is not None, final_env

        return match, _reference_matcher(positions, self.SLOTS, self._discharge)

    @staticmethod
    def _discharge(goals, env, unknowns):
        # Stand-in endgame: succeed iff the pinned slot landed on an even
        # value (deterministic, binding-sensitive).
        return env if env.get("?w1", 0) % 2 == 0 else None

    def test_match_agrees_with_closure_on_plain_entries(self):
        match, closure = self._pairs((1, 2))
        for values in itertools.product((None, 5, 7), repeat=2):
            entry = _FakeEntry(("root",) + values)
            for pinned in itertools.product((5, 7), repeat=2):
                expected = closure(entry, pinned, pinned, _IdentityView())
                got = match(entry, pinned, pinned, _IdentityView())
                assert got == expected, (values, pinned)

    def test_match_agrees_with_closure_on_deferred_entries(self):
        match, closure = self._pairs((1,))
        view = _IdentityView()
        for stored, pinned in (((None,), (4,)), ((None,), (5,)), ((4,), (4,))):
            entry = _FakeEntry(
                ("root",) + stored, deferred=("goal",), env={"?w1": stored[0]},
                unknowns=frozenset({"?w1"}),
            )
            expected = closure(entry, pinned, pinned, view)
            got = match(entry, pinned, pinned, view)
            assert got == expected, (stored, pinned)

    def test_endgame_binds_only_unbound_names(self):
        entry = _FakeEntry(
            ("root", None, None), deferred=("goal",), env={"?w1": None},
            unknowns=frozenset({"?w1"}),
        )
        final = kernels._endgame(
            entry, ("?w1",), (2,), _IdentityView(), self._discharge
        )
        assert final == {"?w1": 2}
        bound = _FakeEntry(
            ("root", 7, None), deferred=("goal",), env={"?w1": 7},
            unknowns=frozenset(),
        )
        assert (
            kernels._endgame(bound, ("?w1",), (2,), _IdentityView(), self._discharge)
            is None
        )


class TestRegistrySpace:
    def test_registry_space_is_the_registry_fingerprint(self):
        from repro.cache.fingerprint import registry_fingerprint

        checker = _checker(False)
        assert checker.registry_space() == registry_fingerprint(_PREDICATES)
        assert checker.registry_space() is checker.registry_space()


# ---------------------------------------------------------------------------
# hash-seed independence
# ---------------------------------------------------------------------------


_HASHSEED_SCRIPT = """
import json
from repro.benchsuite.registry import get_benchmark
from repro.core.sling import Sling, SlingConfig

bm = get_benchmark("dll/append")
sling = Sling(bm.program, bm.predicates, SlingConfig(discard_crashed_runs=True))
spec = sling.infer_function(bm.function, bm.test_cases(0))
stats = sling.cache_stats()
print(json.dumps({
    "invariants": [inv.pretty() for inv in spec.all_invariants()],
    "counters": {k: stats[k] for k in (
        "pure_variant_evals", "kernel_groups", "stream_index_hits",
        "kernel_scan_fallbacks", "batch_exact_fallbacks",
    )},
}, sort_keys=True))
"""


def test_kernel_verdicts_independent_of_hash_seed():
    """The kernel's index lookups and settle-record keys are dict *lookups*,
    never dict-order iteration: results and counters must be bit-identical
    under different ``PYTHONHASHSEED`` values."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
