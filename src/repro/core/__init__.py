"""The SLING inference algorithm (the paper's primary contribution).

Besides the per-location pipeline (``boundary`` -> ``infer_atom`` ->
``infer_pure`` -> ``validate`` orchestrated by ``sling``), this package
hosts the batch-inference engine (:mod:`repro.core.engine`): the single
entry point through which the evaluation harnesses, the benchmarks and the
``repro`` CLI run batches of (benchmark, seed, config) jobs -- inline or
across a ``multiprocessing`` pool -- with structured per-job reports and
memoization-cache accounting.
"""

from repro.core.results import AtomResult, InferredResult, Invariant, Specification
from repro.core.boundary import split_heap, SplitResult
from repro.core.engine import (
    CacheStats,
    EngineError,
    EngineJob,
    EngineReport,
    InferenceEngine,
)
from repro.core.infer_atom import infer_atoms
from repro.core.infer_pure import infer_pure_equalities
from repro.core.validate import validate_specification
from repro.core.sling import Sling, SlingConfig, infer_invariants, infer_specification

__all__ = [
    "CacheStats",
    "EngineError",
    "EngineJob",
    "EngineReport",
    "InferenceEngine",
    "AtomResult",
    "InferredResult",
    "Invariant",
    "Specification",
    "split_heap",
    "SplitResult",
    "infer_atoms",
    "infer_pure_equalities",
    "validate_specification",
    "Sling",
    "SlingConfig",
    "infer_invariants",
    "infer_specification",
]
