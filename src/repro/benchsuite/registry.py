"""The benchmark registry: programs, predicates, inputs and documented properties."""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.results import Invariant, Specification
from repro.lang.ast import Program
from repro.lang.tracer import TestCase
from repro.sl.exprs import Eq, pure_conjuncts
from repro.sl.predicates import PredicateRegistry
from repro.sl.spatial import PointsTo, PredApp

#: Category modules loaded by :func:`load_all`, in Table 1 order.
_CATEGORY_MODULES = [
    "repro.benchsuite.sll",
    "repro.benchsuite.sorted_list",
    "repro.benchsuite.dll",
    "repro.benchsuite.circular",
    "repro.benchsuite.bst",
    "repro.benchsuite.avl",
    "repro.benchsuite.priority_tree",
    "repro.benchsuite.rbt",
    "repro.benchsuite.tree_traversal",
    "repro.benchsuite.glib_dll",
    "repro.benchsuite.glib_sll",
    "repro.benchsuite.openbsd_queue",
    "repro.benchsuite.memregion",
    "repro.benchsuite.binomial_heap",
    "repro.benchsuite.svcomp",
    "repro.benchsuite.grasshopper_sll_iter",
    "repro.benchsuite.grasshopper_sll_rec",
    "repro.benchsuite.grasshopper_dll",
    "repro.benchsuite.grasshopper_sorted",
    "repro.benchsuite.afwp_sll",
    "repro.benchsuite.afwp_dll",
    "repro.benchsuite.cyclist",
]


@dataclass(frozen=True)
class DocumentedProperty:
    """A documented specification or loop invariant, used by Table 2.

    ``kind`` is ``"spec"`` (a pre/postcondition pair) or ``"loop"`` (a loop
    invariant).  ``check`` decides whether an inferred
    :class:`~repro.core.results.Specification` covers the documented
    property; the helpers below build the common cases.
    """

    kind: str
    description: str
    check: Callable[[Specification], bool]


@dataclass
class BenchmarkProgram:
    """One benchmark program together with everything needed to analyse it."""

    name: str
    category: str
    program: Program
    function: str
    predicates: PredicateRegistry
    #: Builds the test suite; receives a seeded RNG so runs are reproducible.
    make_tests: Callable[[random.Random], Sequence[TestCase]]
    documented: list[DocumentedProperty] = field(default_factory=list)
    #: Program crashes on every input (marked ``*`` in Table 1).
    has_bug: bool = False
    #: Program frees memory whose cells remain visible to the tracer
    #: (bold in Table 1: its invariants are classified spurious).
    uses_free: bool = False
    #: Approximate lines of C code of the original program (Table 1's LoC).
    c_loc: int = 0

    def loc(self) -> int:
        """Lines-of-code proxy: the declared C LoC or the statement count."""
        return self.c_loc or self.program.statement_count()

    def test_cases(self, seed: int = 0) -> list[TestCase]:
        """Instantiate the test suite with a fixed seed."""
        return list(self.make_tests(random.Random(seed)))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, BenchmarkProgram] = {}
_LOADED = False


def register(benchmark: BenchmarkProgram) -> BenchmarkProgram:
    """Add a benchmark to the global registry (category modules call this)."""
    _REGISTRY[benchmark.name] = benchmark
    return benchmark


def load_all() -> None:
    """Import every category module (idempotent)."""
    global _LOADED
    if _LOADED:
        return
    for module_name in _CATEGORY_MODULES:
        importlib.import_module(module_name)
    _LOADED = True


def all_benchmarks() -> list[BenchmarkProgram]:
    """All registered benchmarks, in registration order."""
    load_all()
    return list(_REGISTRY.values())


def get_benchmark(name: str) -> BenchmarkProgram:
    """Look up a benchmark by name (e.g. ``"dll/concat"``)."""
    load_all()
    return _REGISTRY[name]


def categories() -> list[str]:
    """Category names in Table 1 order."""
    load_all()
    ordered: list[str] = []
    for benchmark in _REGISTRY.values():
        if benchmark.category not in ordered:
            ordered.append(benchmark.category)
    return ordered


def benchmarks_by_category() -> dict[str, list[BenchmarkProgram]]:
    """Benchmarks grouped by category, in Table 1 order."""
    load_all()
    grouped: dict[str, list[BenchmarkProgram]] = {}
    for benchmark in _REGISTRY.values():
        grouped.setdefault(benchmark.category, []).append(benchmark)
    return grouped


# ---------------------------------------------------------------------------
# Documented-property helpers
# ---------------------------------------------------------------------------


def _mentions_predicate(invariant: Invariant, pred_name: "str | tuple[str, ...]") -> bool:
    """The invariant's spatial part uses one of the given inductive predicates."""
    names = (pred_name,) if isinstance(pred_name, str) else tuple(pred_name)
    return any(
        isinstance(atom, PredApp) and atom.name in names
        for atom in invariant.formula.spatial_atoms()
    )


def _describes_variable(invariant: Invariant, var: str | None) -> bool:
    """The invariant constrains ``var``: it roots a spatial atom or occurs in a pure equality.

    This is the (syntactic but permissive) stand-in for the paper's manual
    "matched or stronger than the documented invariant" judgement: SLING
    often describes ``res`` through an equality (``prev = res``) or a
    points-to rather than by rooting the documented predicate at ``res``.
    """
    if var is None:
        return True
    for atom in invariant.formula.spatial_atoms():
        if isinstance(atom, PredApp) and atom.args and getattr(atom.args[0], "name", None) == var:
            return True
        if isinstance(atom, PointsTo) and getattr(atom.source, "name", None) == var:
            return True
    for conjunct in pure_conjuncts(invariant.formula.pure):
        if isinstance(conjunct, Eq):
            names = {getattr(conjunct.left, "name", None), getattr(conjunct.right, "name", None)}
            if var in names:
                return True
    return False


def _invariant_mentions(invariant: Invariant, pred_name: str, root: str | None) -> bool:
    return _mentions_predicate(invariant, pred_name) and _describes_variable(invariant, root)


def spec_with_pred(
    pred_name: "str | tuple[str, ...]",
    pre_root: str | None = None,
    post_root: str | None = None,
    description: str | None = None,
) -> DocumentedProperty:
    """Documented spec: pre and post both describe the structure with ``pred_name``.

    ``pre_root`` / ``post_root`` optionally pin the first argument of the
    predicate occurrence (e.g. the parameter at the entry, ``res`` at the
    exit).  The property counts as found when some precondition and some
    postcondition invariant both mention the predicate accordingly, all
    non-spurious.
    """

    def check(spec: Specification) -> bool:
        pre_ok = any(
            _invariant_mentions(inv, pred_name, pre_root) and not inv.spurious
            for inv in spec.preconditions
        )
        post_ok = any(
            _invariant_mentions(inv, pred_name, post_root) and not inv.spurious
            for invariants in spec.postconditions.values()
            for inv in invariants
        )
        return pre_ok and post_ok

    return DocumentedProperty(
        kind="spec",
        description=description or f"pre/post describe a {pred_name} structure",
        check=check,
    )


def post_only_pred(
    pred_name: "str | tuple[str, ...]", post_root: str | None = None, description: str | None = None
) -> DocumentedProperty:
    """Documented spec for constructors: only the postcondition is non-trivial."""

    def check(spec: Specification) -> bool:
        return any(
            _invariant_mentions(inv, pred_name, post_root) and not inv.spurious
            for invariants in spec.postconditions.values()
            for inv in invariants
        )

    return DocumentedProperty(
        kind="spec",
        description=description or f"post describes a {pred_name} structure",
        check=check,
    )


def pre_only_pred(
    pred_name: "str | tuple[str, ...]", pre_root: str | None = None, description: str | None = None
) -> DocumentedProperty:
    """Documented spec for destructors: only the precondition is non-trivial."""

    def check(spec: Specification) -> bool:
        return any(
            _invariant_mentions(inv, pred_name, pre_root) and not inv.spurious
            for inv in spec.preconditions
        )

    return DocumentedProperty(
        kind="spec",
        description=description or f"pre describes a {pred_name} structure",
        check=check,
    )


def loop_with_pred(
    pred_name: "str | tuple[str, ...]", root: str | None = None, description: str | None = None
) -> DocumentedProperty:
    """Documented loop invariant: the loop head maintains a ``pred_name`` shape."""

    def check(spec: Specification) -> bool:
        return any(
            _invariant_mentions(inv, pred_name, root) and not inv.spurious
            for invariants in spec.loop_invariants.values()
            for inv in invariants
        )

    return DocumentedProperty(
        kind="loop",
        description=description or f"loop maintains a {pred_name} structure",
        check=check,
    )


def pure_post_equality(left: str, right: str, description: str | None = None) -> DocumentedProperty:
    """Documented post property: a pure equality (e.g. ``res = x``) holds at exit."""

    def check(spec: Specification) -> bool:
        for invariants in spec.postconditions.values():
            for invariant in invariants:
                if invariant.spurious:
                    continue
                for conjunct in pure_conjuncts(invariant.formula.pure):
                    if isinstance(conjunct, Eq):
                        names = {
                            getattr(conjunct.left, "name", "nil"),
                            getattr(conjunct.right, "name", "nil"),
                        }
                        if names == {left, right}:
                            return True
        return False

    return DocumentedProperty(
        kind="spec",
        description=description or f"postcondition implies {left} = {right}",
        check=check,
    )
