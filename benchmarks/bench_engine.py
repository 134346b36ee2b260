#!/usr/bin/env python3
"""Benchmark the batch-inference engine: parallelism, batching, screening.

Runs up to three sweeps over the Table 1 suite (sequential with the
reference search, sequential on the fast path, parallel on the fast path),
checks that every sweep reproduces the
same invariants exactly, and records wall times, speedups, cache hit rates
and candidate-screening/batching counters as JSON.  With ``--jobs 1`` the
parallel sweep is skipped (``parallel_skipped`` in the report); on a
single-CPU machine it still runs -- preserving the full-suite parallel
determinism assertion -- but its wall time is reported as ``null`` with a
``parallel_note`` rather than recording a meaningless fork-overhead
"speedup".  Unless ``--out`` is given, the
report is written to ``benchmarks/BENCH_engine.json`` so successive runs
accumulate a performance trajectory in the repository.

``--compare BENCH_prev.json`` loads a previous report and exits with status
1 when the sequential wall time regressed by more than 20% -- wire it into
CI against the last committed ``BENCH_engine.json``.

Examples::

    PYTHONPATH=src python benchmarks/bench_engine.py --jobs 4
    PYTHONPATH=src python benchmarks/bench_engine.py --category SLL --out engine.json
    PYTHONPATH=src python benchmarks/bench_engine.py --compare benchmarks/BENCH_engine.json

This is the ``python -m repro bench`` subcommand (see ``repro.cli``); the
wrapper exists so the performance harnesses live together under
``benchmarks/`` and simply delegates, flags and all (adding only the
default ``--out`` path above).
"""

import os
import sys

from repro.cli import main

def _is_full_sweep(arguments: list[str]) -> bool:
    """True when no --limit/--category restriction narrows the run.

    Only full sweeps are comparable trajectory points; a restricted run must
    never overwrite the committed ``BENCH_engine.json`` baseline.
    """
    narrowing = ("--limit", "--category", "--warm-start")
    return not any(
        arg in narrowing or arg.startswith(tuple(f"{flag}=" for flag in narrowing))
        for arg in arguments
    )


if __name__ == "__main__":
    arguments = sys.argv[1:]
    has_out = any(arg == "--out" or arg.startswith("--out=") for arg in arguments)
    if not has_out and _is_full_sweep(arguments):
        default_out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_engine.json")
        arguments = [*arguments, "--out", default_out]
    main(["bench", *arguments])
