"""The benchsuite's trace corpus: every benchmark's traces at one seed.

:func:`corpus_digest` folds everything the tracer observed into one
digest, independently of :meth:`~repro.sl.model.StackHeapModel.digest`:
for each run of each benchmark, every event's location, stack, heap cells
in heap order, typing and freed addresses, then the run's outcome, error
text and the interpreter's final step count.  :data:`PINNED_DIGESTS`
holds the digest of the seed-0 corpus; any change to what the
interpreter executes or the tracer snapshots moves it.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.benchsuite.registry import all_benchmarks
from repro.lang.tracer import TraceCollection, collect_models

#: Seed -> :func:`corpus_digest` of :func:`collect_corpus` at that seed.
PINNED_DIGESTS = {0: "9369e8510ddad8adb59196ed56c81e0a5eafcfa78a9c00350de1740e4f55665a"}


def collect_corpus(seed: int = 0) -> list[tuple[str, TraceCollection]]:
    """``(benchmark name, collect_models(...))`` for every benchmark, in
    registry order, each with its own seeded test suite."""
    return [
        (
            benchmark.name,
            collect_models(benchmark.program, benchmark.function, benchmark.test_cases(seed)),
        )
        for benchmark in all_benchmarks()
    ]


def corpus_digest(corpus: Iterable[tuple[str, TraceCollection]]) -> str:
    """A hex ``sha256`` over every event and run outcome of ``corpus``."""
    digest = hashlib.sha256()
    for name, collection in corpus:
        digest.update(repr(("benchmark", name)).encode())
        for run, outcome in zip(collection.runs, collection.outcomes):
            for event in run:
                model = event.model
                cells = [
                    (address, cell.type_name, cell.fields)
                    for address, cell in model.heap.items()
                ]
                digest.update(
                    repr(
                        (
                            str(event.location),
                            model.stack,
                            cells,
                            model.var_types,
                            sorted(model.freed_addresses),
                        )
                    ).encode()
                )
            digest.update(
                repr(
                    (
                        "outcome",
                        outcome.crashed,
                        outcome.timed_out,
                        outcome.error,
                        outcome.result,
                        outcome.steps,
                    )
                ).encode()
            )
    return digest.hexdigest()
