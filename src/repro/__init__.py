"""Reproduction of SLING (PLDI 2019): dynamic inference of separation-logic invariants.

The package is organised as follows:

* :mod:`repro.sl` -- separation-logic formulae, inductive predicates,
  stack-heap models and the symbolic-heap model checker.
* :mod:`repro.lang` -- *heaplang*, a small C-like heap-manipulating language
  with an interpreter and a tracing debugger.  It stands in for the C
  benchmark programs and the LLDB debugger used by the paper.
* :mod:`repro.datagen` -- random data-structure generators used to build
  test inputs inside the interpreter heap.
* :mod:`repro.core` -- the SLING inference algorithm itself (heap
  partitioning, atomic-predicate inference, pure inference, frame-rule
  validation) and the parallel batch-inference engine
  (:mod:`repro.core.engine`) that fans inference jobs out over a worker
  pool with per-job timeouts and cache accounting.
* :mod:`repro.baselines` -- a simplified static bi-abduction analyser used
  as the S2 comparison point of Table 2.
* :mod:`repro.benchsuite` -- heaplang re-implementations of the paper's
  benchmark categories together with their documented invariants.
* :mod:`repro.evaluation` -- harnesses regenerating Table 1 and Table 2 on
  top of the engine (``jobs=N`` parallel sweeps).
* :mod:`repro.cli` -- the ``repro`` command line (``python -m repro
  infer|table1|table2|bench|docs``).

The hot path is memoized at two levels: the symbolic-heap model checker
caches reductions per (alpha-normalized formula, model) and the inductive
predicates cache their case unfoldings per argument shape; both count hits
and misses into the job's ``CacheStats``, which the engine reports per job.
"""

from repro.core.engine import EngineJob, EngineReport, InferenceEngine
from repro.core.sling import Sling, SlingConfig, infer_invariants, infer_specification

__all__ = [
    "Sling",
    "SlingConfig",
    "infer_invariants",
    "infer_specification",
    "EngineJob",
    "EngineReport",
    "InferenceEngine",
]

__version__ = "0.2.0"
