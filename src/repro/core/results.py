"""Result types produced by the SLING inference pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.sl.exprs import PureFormula, pure_conjuncts
from repro.sl.model import StackHeapModel
from repro.sl.pretty import pretty
from repro.sl.spatial import PointsTo, PredApp, Spatial, SymHeap


@dataclass(frozen=True)
class AtomResult:
    """One accepted atomic formula for a root variable (Algorithm 2 output).

    ``atom`` is an inductive predicate application, a points-to or ``emp``
    (represented by ``None``); ``exists`` are the fresh existential variables
    introduced for unmatched parameters; ``residual_models`` and
    ``instantiations`` follow Definition 2, one entry per sub-model.
    """

    atom: Spatial | None
    exists: tuple[str, ...]
    residual_models: tuple[StackHeapModel, ...]
    instantiations: tuple[Mapping[str, int], ...]

    @property
    def is_emp(self) -> bool:
        """True when the result is the trivial ``emp`` fallback."""
        return self.atom is None

    def covers_everything(self) -> bool:
        """True when the atom consumed every cell of every sub-model."""
        return all(model.heap.is_empty() for model in self.residual_models)


@dataclass
class InferredResult:
    """A tuple ``(F, SH, I)`` of Algorithm 1, threaded through the iterations.

    ``atoms`` are the spatial conjuncts accumulated so far, ``exists`` their
    existential variables, ``models`` the residual stack-heap models (the
    part of the original heaps not yet described) and ``instantiations`` the
    accumulated existential instantiations (one per original model).
    """

    atoms: list[Spatial] = field(default_factory=list)
    exists: list[str] = field(default_factory=list)
    pure: list[PureFormula] = field(default_factory=list)
    models: list[StackHeapModel] = field(default_factory=list)
    instantiations: list[dict[str, int]] = field(default_factory=list)

    def residual_cells(self) -> int:
        """Total number of heap cells not yet described by the formula."""
        return sum(len(model.heap) for model in self.models)

    def spatial_atom_count(self) -> int:
        """Number of non-``emp`` spatial conjuncts."""
        return len(self.atoms)


@dataclass(frozen=True)
class Invariant:
    """A final inferred invariant at a program location."""

    location: str
    formula: SymHeap
    #: True when the invariant was inferred from traces containing freed
    #: cells (the paper conservatively reports such invariants as spurious).
    from_freed_traces: bool = False
    #: True when frame-rule validation rejected the enclosing specification.
    spurious: bool = False

    # -- metrics used by Table 1 -----------------------------------------------

    def singleton_count(self) -> int:
        """Number of points-to (singleton) atoms in the invariant."""
        return sum(1 for atom in self.formula.spatial_atoms() if isinstance(atom, PointsTo))

    def predicate_count(self) -> int:
        """Number of inductive predicate applications in the invariant."""
        return sum(1 for atom in self.formula.spatial_atoms() if isinstance(atom, PredApp))

    def pure_count(self) -> int:
        """Number of pure conjuncts (equalities) in the invariant."""
        return len(pure_conjuncts(self.formula.pure))

    def is_useful(self) -> bool:
        """True when the invariant says something beyond ``emp``/``true``."""
        return self.singleton_count() + self.predicate_count() + self.pure_count() > 0

    def pretty(self, field_names: Mapping[str, tuple[str, ...]] | None = None) -> str:
        """Human-readable rendering of the invariant."""
        return pretty(self.formula, field_names)


@dataclass
class Specification:
    """Pre/postconditions and loop invariants inferred for one function."""

    function: str
    preconditions: list[Invariant] = field(default_factory=list)
    #: Postconditions grouped by return location (``ret#0``, ``ret#1``, ...).
    postconditions: dict[str, list[Invariant]] = field(default_factory=dict)
    #: Loop invariants grouped by loop-head location (``loop#0``, ...).
    loop_invariants: dict[str, list[Invariant]] = field(default_factory=dict)
    #: Locations for which no traces were obtained (unreached by the tests).
    unreached_locations: list[str] = field(default_factory=list)
    #: Whether the frame-rule validation accepted the pre/post combination.
    validated: bool = True
    #: Wall-clock seconds spent on inference for this function.
    inference_seconds: float = 0.0

    def all_invariants(self) -> list[Invariant]:
        """Every invariant of the specification, in location order."""
        result = list(self.preconditions)
        for invariants in self.postconditions.values():
            result.extend(invariants)
        for invariants in self.loop_invariants.values():
            result.extend(invariants)
        return result

    def invariant_count(self) -> int:
        """Total number of inferred invariants."""
        return len(self.all_invariants())

    def spurious_count(self) -> int:
        """Number of invariants flagged as spurious."""
        return sum(1 for invariant in self.all_invariants() if invariant.spurious or invariant.from_freed_traces)

    def locations_with_invariants(self) -> list[str]:
        """Locations that received at least one invariant."""
        result = []
        if self.preconditions:
            result.append("entry")
        result.extend(loc for loc, invs in self.postconditions.items() if invs)
        result.extend(loc for loc, invs in self.loop_invariants.items() if invs)
        return result


def merge_instantiations(
    first: Sequence[Mapping[str, int]], second: Sequence[Mapping[str, int]]
) -> list[dict[str, int]]:
    """Pointwise union of two equal-length instantiation sequences (``I (+) I'``)."""
    merged = []
    for left, right in zip(first, second):
        combined = dict(left)
        combined.update(right)
        merged.append(combined)
    return merged
