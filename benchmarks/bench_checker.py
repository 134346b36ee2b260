"""Ablation A2: cost of the symbolic-heap model checker (Section 4.5).

The paper notes the checking problem is EXPTIME in general but cheap on the
small traces SLING collects.  These benchmarks measure how the checker's cost
grows with structure size and with the number of traces, which is the
empirical justification for the "few traces of size 10" input protocol.
"""

import itertools
import random

import pytest

from repro.core.infer_atom import Candidate, _candidate_variant
from repro.datagen import make_avl, make_bst, make_dll, make_sll
from repro.lang import RuntimeHeap, standard_structs
from repro.sl.checker import ModelChecker, build_skeleton
from repro.sl.exprs import Nil, Var
from repro.sl.model import Heap, HeapCell, StackHeapModel
from repro.sl.parser import parse_formula
from repro.sl.spatial import PredApp, SymHeap
from repro.sl.stdpreds import standard_predicates

_STRUCTS = standard_structs()
_CHECKER = ModelChecker(standard_predicates())


def _model(generator, size, var_type, seed=0):
    rng = random.Random(seed)
    heap = RuntimeHeap(_STRUCTS)
    root = generator(heap, rng, size)
    cells = {}
    for address in heap.reachable([root]):
        struct = _STRUCTS.get(heap.type_of(address))
        values = heap.cell(address)
        cells[address] = HeapCell(struct.name, [(n, values[n]) for n in struct.field_names])
    return StackHeapModel({"x": root}, Heap(cells), {"x": var_type})


_SCENARIOS = {
    "sll": (make_sll, "SllNode*", "sll(x)"),
    "dll": (make_dll, "DllNode*", "exists p, t. dll(x, p, t, nil)"),
    "bst": (make_bst, "BstNode*", "exists lo, hi. bst(x, lo, hi)"),
    "avl": (make_avl, "AvlNode*", "exists h. avl(x, h)"),
}


@pytest.mark.parametrize("structure", sorted(_SCENARIOS))
@pytest.mark.parametrize("size", [10, 30, 80])
def test_checker_scales_with_structure_size(benchmark, structure, size):
    """One reduction over a single model of growing size."""
    generator, var_type, formula_text = _SCENARIOS[structure]
    model = _model(generator, size, var_type)
    formula = parse_formula(formula_text)

    result = benchmark.pedantic(_CHECKER.check, args=(model, formula), rounds=3, iterations=1)
    assert result is not None and result.covers_everything()


@pytest.mark.parametrize("trace_count", [1, 5, 25])
def test_checker_scales_with_trace_count(benchmark, trace_count):
    """Checking one candidate against many traces (Algorithm 2, line 10)."""
    models = [_model(make_dll, 10, "DllNode*", seed=seed) for seed in range(trace_count)]
    formula = parse_formula("exists p, t. dll(x, p, t, nil)")

    results = benchmark.pedantic(_CHECKER.check_all, args=(models, formula), rounds=3, iterations=1)
    assert results is not None and len(results) == trace_count


def test_checker_rejection_cost(benchmark):
    """Refuting a wrong candidate (the common case during enumeration)."""
    model = _model(make_dll, 30, "DllNode*")
    wrong = parse_formula("sll(x)")
    result = benchmark.pedantic(_CHECKER.check, args=(model, wrong), rounds=3, iterations=1)
    assert result is None


# ---------------------------------------------------------------------------
# Columnar kernel vs the reference per-candidate search
# ---------------------------------------------------------------------------
#
# Group decision over synthetic streams of varying entry counts: an sll of
# ``size`` nodes gives the lseg skeleton a stream of size+1 entries (one per
# suffix hole), and the full candidate lattice of lseg supplies a realistic
# mix of pinned and pin-free variants.  The kernel shares one skeleton search
# and resolves the pinned variants through the slot indexes; the reference
# (``check_all``) runs the exact search once per candidate.

_FRESH = ("u91", "u92")


def _lseg_batch(size: int):
    """(models, skeleton, variants) for one lseg group over an sll chain."""
    cells = {
        addr: HeapCell("SllNode", {"next": addr + 1 if addr < size else 0})
        for addr in range(1, size + 1)
    }
    model = StackHeapModel(
        {"x": 1, "y": size // 2 or 0},
        Heap(cells),
        {"x": "SllNode*", "y": "SllNode*"},
    )
    fresh = set(_FRESH)
    pool = ["x", "y", "nil", *_FRESH[:1]]
    variants = []
    seen = set()
    for permutation in itertools.permutations(pool, 2):
        if permutation[0] != "x":
            continue
        signature = tuple("?" if name in fresh else name for name in permutation)
        if signature in seen:
            continue
        seen.add(signature)
        candidate = Candidate(permutation, fresh)
        used_fresh = tuple(n for n in permutation if n in fresh)
        formula = SymHeap(
            exists=used_fresh,
            spatial=PredApp(
                "lseg",
                [Nil() if n == "nil" else Var(n) for n in permutation],
            ),
        )
        variants.append(_candidate_variant(candidate, formula, 0))
    skeleton = build_skeleton("lseg", 2, "x", 0)
    return [model], skeleton, variants


def _decide(path, checker, models, skeleton, variants):
    if path == "kernel":
        return checker.check_batch(models, skeleton, variants)
    return [checker.check_all(models, variant.formula) for variant in variants]


@pytest.mark.parametrize("entries", [8, 32, 128])
@pytest.mark.parametrize("path", ["kernel", "reference"])
def test_group_decision_kernel_vs_reference(benchmark, entries, path):
    """One candidate group settled against a stream of ``entries`` entries.

    Run via ``make bench-micro``; compare the ``kernel`` and ``reference``
    rows at equal entry counts.  A fresh checker per round keeps the stream
    memo and the settle-record cache cold, so the kernel timing covers the
    stream solve plus the decision pass itself.
    """
    models, skeleton, variants = _lseg_batch(entries - 1)

    def setup():
        return (ModelChecker(standard_predicates()),), {}

    def run(checker):
        return _decide(path, checker, models, skeleton, variants)

    outcomes = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    assert len(outcomes) == len(variants)


def _outcome_key(outcomes):
    key = []
    for outcome in outcomes:
        if outcome is None or not isinstance(outcome, list):
            key.append(outcome)
        else:
            key.append(
                [
                    r if r is None else (r.residual, dict(r.instantiation), set(r.consumed))
                    for r in outcome
                ]
            )
    return key


@pytest.mark.parametrize("entries", [64])
def test_group_decision_paths_agree(entries):
    """The kernel and the reference must produce identical outcomes on the
    same batch (cheap end-to-end identity check riding along with the
    micro-bench)."""
    models, skeleton, variants = _lseg_batch(entries - 1)
    outcomes = {
        path: _decide(
            path, ModelChecker(standard_predicates()), models, skeleton, variants
        )
        for path in ("kernel", "reference")
    }
    assert _outcome_key(outcomes["kernel"]) == _outcome_key(outcomes["reference"])
