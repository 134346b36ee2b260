"""One Table 1 sweep in a fresh process, reported as one JSON line.

Run by ``run.py``; standalone::

    python3 perfbench/sweep.py --mode plain --jobs 1 --seed 0 --scratch DIR

Modes: ``plain`` (untraced), ``layers`` (the benchmark's per-layer wrappers,
see ``layers.py``) and ``telemetry`` (the program's own tracing, a
``Telemetry`` handed to ``run_table1`` through ``SlingConfig``).

The sweep is ``repro.evaluation.table1.run_table1`` with the default
configuration and no cache file.  The only harness hook is an
``on_report`` callback on ``InferenceEngine.run``, which timestamps each
program's report as the caller receives it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.benchsuite.registry import load_all  # noqa: E402
from repro.core.engine import InferenceEngine  # noqa: E402
from repro.core.sling import SlingConfig  # noqa: E402
from repro.evaluation.table1 import run_table1  # noqa: E402
from repro.telemetry import Telemetry, monotime  # noqa: E402

import golden  # noqa: E402
import layers  # noqa: E402


def observe_reports(received: list) -> None:
    """Record ``(monotime, report)`` for every report the engine's caller gets."""
    run = InferenceEngine.run

    def run_observed(self, batch, on_report=None, **kwargs):
        def observed(index, report):
            received.append((monotime(), report))
            if on_report is not None:
                on_report(index, report)

        return run(self, batch, on_report=observed, **kwargs)

    InferenceEngine.run = run_observed


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped children (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "layers", "telemetry"), required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="input seed (shipped)")
    parser.add_argument("--scratch", required=True, help="private directory for this sweep")
    arguments = parser.parse_args()

    load_all()
    config = None
    clock = None
    if arguments.mode == "layers":
        clock = layers.LayerClock()
        layers.install(clock, segment_dir=arguments.scratch)
    elif arguments.mode == "telemetry":
        telemetry = Telemetry(os.path.join(arguments.scratch, "trace.ndjson"))
        config = SlingConfig(discard_crashed_runs=True, telemetry=telemetry)
    received: list = []
    observe_reports(received)
    ready = monotime()

    start = monotime()
    result = run_table1(config=config, seed=arguments.seed, jobs=arguments.jobs)
    if arguments.mode == "telemetry":
        telemetry.close()
    end = monotime()

    programs = [program for row in result.rows for program in row.programs]
    reference = golden.load("table1", arguments.seed)
    observed = {program.name: golden.fingerprint(program.specification) for program in programs}
    wrong = golden.mismatches(reference, observed)
    missing = sorted(set(reference) - set(observed))
    failed = [report.job.benchmark for _, report in received if not report.ok]
    cache = result.cache_totals()
    record = {
        "ready": ready,
        "start": start,
        "end": end,
        "programs": len(programs),
        "job_ms": [report.seconds * 1000.0 for _, report in received],
        "arrival_ms": [(at - start) * 1000.0 for at, _ in received],
        "failed": failed,
        "mismatched": wrong + missing,
        "peak_rss_mb": peak_rss_mb(),
        "counters": cache.as_dict(),
    }
    if clock is not None:
        timelines = clock.timelines() + layers.read_segments(arguments.scratch)
        record["books"] = layers.account(timelines, end - start)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
