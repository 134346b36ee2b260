"""The ``repro`` command-line interface.

Installed as the ``repro`` console script and runnable as ``python -m
repro``.  Subcommands:

``infer``
    Run full specification inference on named benchmarks (or whole
    categories) through the batch engine and print the invariants.  With
    ``--connect SOCKET`` the request is served by a running ``repro
    serve`` daemon instead (NDJSON record stream on stdout), falling back
    to an in-process run emitting the identical stream when no daemon
    answers.
``serve``
    Run the long-lived inference daemon: NDJSON requests over a Unix
    socket, bounded admission, per-request deadlines, graceful drain on
    SIGTERM and crash-safe resume (see ``docs/serving.md``).
``table1`` / ``table2``
    Regenerate the paper's evaluation tables, optionally in parallel
    (``--jobs N``) and as JSON (``--json``).
``cache``
    Inspect and manage persistent cache files: ``stats``, ``export``,
    ``import``, ``clear``, ``fingerprint`` (the registry fingerprint used
    as the CI cache key) and ``verify`` (a cached Table 1 sweep must
    reproduce the cache-less one from disk).
``trace``
    Analyse NDJSON span traces written by ``--trace-out``: ``summary``
    (per-phase table, hottest locations/predicates), ``export --format
    chrome`` (Perfetto / ``about://tracing``) and ``diff`` (see
    ``docs/observability.md``).
``docs``
    Regenerate ``docs/predicates.md`` from the predicate standard library.

Every subcommand that analyses programs goes through
:class:`repro.core.engine.InferenceEngine`, so ``--jobs``/``--timeout``
behave identically everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core.engine import EngineError, EngineJob, InferenceEngine
from repro.evaluation.table1 import (
    MIN_WARM_HIT_RATE,
    add_table1_arguments,
    table1_command,
    verify_cache_file,
)
from repro.evaluation.table2 import add_table2_arguments, table2_command
from repro.sl.stdpreds import STRUCT_FIELDS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SLING reproduction: dynamic inference of separation-logic invariants.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    infer = subparsers.add_parser(
        "infer", help="infer specifications for benchmarks from the registry"
    )
    infer.add_argument(
        "--benchmark",
        action="append",
        help="benchmark name, e.g. sll/insertFront (repeatable)",
    )
    infer.add_argument(
        "--category", action="append", help="run every benchmark of a category (repeatable)"
    )
    infer.add_argument("--list", action="store_true", help="list benchmark names and exit")
    infer.add_argument("--seed", type=int, default=0, help="random seed for test inputs")
    infer.add_argument("--jobs", type=int, default=1, help="engine worker processes")
    infer.add_argument(
        "--timeout", type=float, default=None, help="per-benchmark timeout in seconds"
    )
    infer.add_argument("--json", action="store_true", help="emit JSON instead of text")
    infer.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write an NDJSON span trace of the run (see docs/observability.md)",
    )
    infer.add_argument(
        "--connect",
        default=None,
        metavar="SOCKET",
        help=(
            "submit to a running 'repro serve' daemon on this Unix socket "
            "and stream its NDJSON records to stdout; falls back to an "
            "in-process run emitting the identical stream when no daemon "
            "answers"
        ),
    )
    infer.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --connect: request deadline, seconds from admission",
    )
    infer.add_argument(
        "--request-id",
        default="infer",
        metavar="ID",
        help="with --connect: the request id stamped into every record",
    )
    infer.set_defaults(handler=_cmd_infer)

    serve = subparsers.add_parser(
        "serve", help="run the long-lived inference daemon (see docs/serving.md)"
    )
    serve.add_argument(
        "--socket", required=True, metavar="PATH", help="Unix socket to listen on"
    )
    serve.add_argument("--jobs", type=int, default=1, help="engine worker processes")
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        help="admission queue capacity; overflowing submissions are rejected",
    )
    serve.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="request journal for crash-safe resume (default: SOCKET.journal)",
    )
    serve.add_argument(
        "--cache-file",
        default=None,
        metavar="PATH",
        help="persistent cache file, flushed incrementally per function",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job timeout applied to every request (deadlines tighten it)",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write an NDJSON span trace (request/queue_wait/drain spans)",
    )
    serve.set_defaults(handler=_cmd_serve)

    table1 = subparsers.add_parser("table1", help="regenerate Table 1 (invariant inference)")
    add_table1_arguments(table1)
    table1.set_defaults(handler=table1_command)

    table2 = subparsers.add_parser("table2", help="regenerate Table 2 (SLING vs S2)")
    add_table2_arguments(table2)
    table2.set_defaults(handler=table2_command)

    cache = subparsers.add_parser(
        "cache", help="inspect and manage persistent cache files"
    )
    cache.add_argument(
        "action",
        choices=("stats", "export", "import", "clear", "fingerprint", "verify"),
        help=(
            "stats: summarize a cache file; export: dump it as JSON; "
            "import: merge a dump into a cache file; clear: drop all "
            "entries; fingerprint: print the standard predicate registry's "
            "fingerprint (the cache key); verify: write the file if it is "
            "missing, then fail (exit 1) unless a Table 1 sweep reading it "
            f"reproduces the cache-less sweep with a disk hit rate >= "
            f"{MIN_WARM_HIT_RATE}"
        ),
    )
    cache.add_argument(
        "--file", default=None, metavar="PATH", help="the cache file to operate on"
    )
    cache.add_argument(
        "--dump",
        default=None,
        metavar="PATH",
        help="dump file written by export / read by import (default: stdout/stdin)",
    )
    cache.set_defaults(handler=_cmd_cache)

    trace = subparsers.add_parser(
        "trace", help="analyse NDJSON span traces written by --trace-out"
    )
    trace.add_argument(
        "action",
        choices=("summary", "export", "diff"),
        help=(
            "summary: per-phase self/total table and hottest spans; "
            "export: convert to another format (--format); "
            "diff: per-phase deltas between two traces (old new)"
        ),
    )
    trace.add_argument(
        "files", nargs="+", metavar="FILE", help="trace file(s); diff takes exactly two"
    )
    trace.add_argument(
        "--format",
        choices=("chrome",),
        default="chrome",
        help="export format (chrome: trace-event JSON for Perfetto/about://tracing)",
    )
    trace.add_argument(
        "--out", default=None, metavar="FILE", help="write export output here (default: stdout)"
    )
    trace.add_argument(
        "--top", type=int, default=10, help="hottest spans listed per kind (summary)"
    )
    trace.add_argument("--json", action="store_true", help="emit JSON instead of text")
    trace.set_defaults(handler=_cmd_trace)

    docs = subparsers.add_parser("docs", help="regenerate docs/predicates.md")
    docs.add_argument(
        "--out",
        default="docs/predicates.md",
        help="output path (default: docs/predicates.md)",
    )
    docs.add_argument("--stdout", action="store_true", help="print to stdout instead")
    docs.set_defaults(handler=_cmd_docs)

    return parser


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_infer(arguments: argparse.Namespace) -> None:
    from repro.benchsuite.registry import all_benchmarks

    if arguments.list:
        for benchmark in all_benchmarks():
            print(f"{benchmark.name:32s} [{benchmark.category}]")
        return

    names: list[str] = list(arguments.benchmark or [])
    if arguments.category:
        wanted = set(arguments.category)
        names.extend(
            benchmark.name
            for benchmark in all_benchmarks()
            if benchmark.category in wanted and benchmark.name not in names
        )
    if not names:
        raise SystemExit("infer: pass --benchmark NAME and/or --category NAME (or --list)")

    if arguments.connect:
        _infer_served(arguments, names)
        return

    config = None
    telemetry = None
    if arguments.trace_out:
        from repro.core.sling import SlingConfig
        from repro.telemetry import Telemetry

        telemetry = Telemetry(arguments.trace_out)
        config = SlingConfig(discard_crashed_runs=True, telemetry=telemetry)
    engine = InferenceEngine(jobs=arguments.jobs, job_timeout=arguments.timeout)
    reports = engine.run(
        [
            EngineJob(kind="spec", benchmark=name, seed=arguments.seed, config=config)
            for name in names
        ]
    )
    if telemetry is not None:
        telemetry.merge_segments()
        telemetry.close()

    if arguments.json:
        print(json.dumps([_spec_report_dict(report) for report in reports], indent=2))
        failed = sum(1 for report in reports if not report.ok)
        if failed:
            raise SystemExit(f"infer: {failed} benchmark(s) failed")
        return

    failures = 0
    for report in reports:
        if not report.ok:
            failures += 1
            print(f"== {report.job.benchmark}: FAILED ({report.error})")
            continue
        payload = report.payload
        spec = payload.specification
        print(f"== {payload.benchmark} ({payload.function}), {report.seconds:.2f}s ==")
        for invariant in spec.preconditions:
            print(f"  [pre     ] {invariant.pretty(STRUCT_FIELDS)}")
        for location, invariants in spec.postconditions.items():
            for invariant in invariants:
                flag = " (spurious)" if invariant.spurious else ""
                print(f"  [{location:8s}] {invariant.pretty(STRUCT_FIELDS)}{flag}")
        for location, invariants in spec.loop_invariants.items():
            for invariant in invariants:
                print(f"  [{location:8s}] {invariant.pretty(STRUCT_FIELDS)}")
        print(f"  validated: {spec.validated}")
    if failures:
        raise SystemExit(f"infer: {failures} benchmark(s) failed")


def _infer_served(arguments: argparse.Namespace, names: list[str]) -> None:
    """``infer --connect``: daemon-served, with an in-process fallback."""
    from repro.serve.client import ServeUnavailable, run_local, submit
    from repro.serve.protocol import ServeRequest

    request = ServeRequest(
        id=arguments.request_id,
        benchmarks=tuple(names),
        seed=arguments.seed,
        deadline=arguments.deadline,
    )
    try:
        terminal = submit(arguments.connect, request, sys.stdout)
    except ServeUnavailable as reason:
        print(f"# {reason}; running in-process", file=sys.stderr)
        terminal = run_local(request, sys.stdout, jobs=arguments.jobs)
    if terminal["type"] == "rejected":
        raise SystemExit(f"infer: request rejected: {terminal['reason']}")
    if terminal["status"] != "complete":
        raise SystemExit(f"infer: request ended {terminal['status']}")


def _cmd_serve(arguments: argparse.Namespace) -> None:
    from repro.serve.daemon import DEFAULT_QUEUE_LIMIT, ServeDaemon

    telemetry = None
    if arguments.trace_out:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(arguments.trace_out)
    daemon = ServeDaemon(
        arguments.socket,
        jobs=arguments.jobs,
        queue_limit=arguments.queue_limit or DEFAULT_QUEUE_LIMIT,
        journal_path=arguments.journal,
        cache_file=arguments.cache_file,
        request_timeout=arguments.request_timeout,
        telemetry=telemetry,
    )
    sys.exit(daemon.serve())


def _spec_report_dict(report) -> dict:
    data = {
        "benchmark": report.job.benchmark,
        "ok": report.ok,
        "seconds": round(report.seconds, 4),
        "cache": report.cache.as_dict(),
    }
    if not report.ok:
        data["error"] = report.error
        return data
    spec = report.payload.specification
    data["function"] = report.payload.function
    data["validated"] = spec.validated
    data["invariants"] = [
        {
            "location": invariant.location,
            "formula": invariant.pretty(),
            "spurious": invariant.spurious,
        }
        for invariant in spec.all_invariants()
    ]
    return data


def _cmd_cache(arguments: argparse.Namespace) -> None:
    """``repro cache``: inspect and manage persistent cache files."""
    from repro.cache import CacheStore, registry_fingerprint
    from repro.sl.stdpreds import standard_predicates

    if arguments.action == "fingerprint":
        # The registry fingerprint doubles as the CI cache key: predicate
        # edits change it, so stale warmed caches are never restored.
        print(registry_fingerprint(standard_predicates()))
        return

    if arguments.file is None:
        raise SystemExit(f"cache {arguments.action}: pass --file PATH")
    if arguments.action == "verify":
        report = verify_cache_file(arguments.file)
        print(json.dumps(report, indent=2))
        if not report["identical"]:
            raise SystemExit(
                "cache verify: a sweep through the cache file diverged from "
                "the cache-less sweep"
            )
        if not report["passed"]:
            raise SystemExit(
                f"cache verify: warm disk hit rate {report['warm']['hit_rate']} "
                f"fell below {MIN_WARM_HIT_RATE}"
            )
        return
    store = CacheStore(arguments.file)
    try:
        if arguments.action == "stats":
            print(json.dumps(store.stats(), indent=2))
        elif arguments.action == "clear":
            dropped = store.clear()
            print(f"cleared {dropped} entries from {arguments.file}", file=sys.stderr)
        elif arguments.action == "export":
            dump = store.export_rows()
            if arguments.dump:
                with open(arguments.dump, "w", encoding="utf-8") as handle:
                    json.dump(dump, handle)
                print(
                    f"exported {len(dump['rows'])} entries to {arguments.dump}",
                    file=sys.stderr,
                )
            else:
                json.dump(dump, sys.stdout)
        elif arguments.action == "import":
            try:
                if arguments.dump:
                    with open(arguments.dump, encoding="utf-8") as handle:
                        dump = json.load(handle)
                else:
                    dump = json.load(sys.stdin)
                merged = store.import_rows(dump)
            except ValueError as error:
                # Undecodable text, invalid JSON and MalformedDumpError alike.
                raise SystemExit(f"cache import: malformed dump: {error}")
            if merged == 0 and store.load_errors:
                raise SystemExit(
                    f"cache import: dump rejected (schema mismatch or "
                    f"unreadable store {arguments.file})"
                )
            print(f"imported {merged} entries into {arguments.file}", file=sys.stderr)
    finally:
        store.close()


def _cmd_trace(arguments: argparse.Namespace) -> None:
    """``repro trace``: summarize, export or diff NDJSON span traces."""
    from repro.telemetry import (
        TraceError,
        diff_summaries,
        hottest,
        phase_summary,
        read_trace,
        to_chrome,
    )

    try:
        if arguments.action == "diff":
            if len(arguments.files) != 2:
                raise SystemExit("trace diff: pass exactly two trace files (old new)")
            diff = diff_summaries(
                read_trace(arguments.files[0]), read_trace(arguments.files[1])
            )
            if arguments.json:
                print(json.dumps(diff, indent=2))
            else:
                print(_format_trace_diff(diff))
            return
        if len(arguments.files) != 1:
            raise SystemExit(f"trace {arguments.action}: pass exactly one trace file")
        records = read_trace(arguments.files[0])
    except TraceError as error:
        raise SystemExit(f"trace: {error}")

    if arguments.action == "export":
        payload = json.dumps(to_chrome(records), indent=2)
        if arguments.out:
            with open(arguments.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {arguments.out}", file=sys.stderr)
        else:
            print(payload)
        return

    summary = phase_summary(records)
    hot = {
        label: hottest(records, kind, top=arguments.top)
        for label, kind in (
            ("locations", "location"),
            ("predicates", "candidate_group"),
        )
    }
    if arguments.json:
        print(json.dumps({"phases": summary, "hottest": hot}, indent=2))
        return
    print(_format_trace_summary(summary, hot))


def _format_trace_summary(summary: dict, hot: dict) -> str:
    from repro.telemetry import SPAN_KINDS

    header = f"{'phase':20s} {'count':>8s} {'total(s)':>10s} {'self(s)':>10s}"
    lines = [header, "-" * len(header)]
    ordered = [kind for kind in SPAN_KINDS if kind in summary]
    ordered += [kind for kind in summary if kind not in SPAN_KINDS]
    for kind in ordered:
        entry = summary[kind]
        self_column = (
            f"{entry['self_seconds']:10.3f}" if "self_seconds" in entry else f"{'(aux)':>10s}"
        )
        lines.append(
            f"{kind:20s} {entry['count']:8d} {entry['total_seconds']:10.3f} {self_column}"
        )
    for label, ranked in hot.items():
        if not ranked:
            continue
        lines.append("")
        lines.append(f"hottest {label}:")
        for entry in ranked:
            lines.append(
                f"  {entry['name']:40s} {entry['count']:6d}x {entry['total_seconds']:10.3f}s"
            )
    return "\n".join(lines)


def _format_trace_diff(diff: dict) -> str:
    header = (
        f"{'phase':20s} {'count':>13s} {'total(s)':>21s} {'delta':>10s}"
    )
    lines = [header, "-" * len(header)]
    for kind, entry in diff.items():
        lines.append(
            f"{kind:20s} {entry['count_old']:6d}>{entry['count_new']:<6d} "
            f"{entry['total_seconds_old']:10.3f}>{entry['total_seconds_new']:<10.3f} "
            f"{entry['total_delta']:+10.3f}"
        )
    return "\n".join(lines)


def _cmd_docs(arguments: argparse.Namespace) -> None:
    from repro.docsgen import render_predicate_reference

    text = render_predicate_reference()
    if arguments.stdout:
        print(text, end="")
        return
    import os

    directory = os.path.dirname(arguments.out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(arguments.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {arguments.out}", file=sys.stderr)


def main(argv: list[str] | None = None) -> None:
    """Entry point of the ``repro`` console script and ``python -m repro``."""
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    try:
        arguments.handler(arguments)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (e.g. ``repro infer ... | head -1``): exit
        # cleanly.  Pointing stdout at /dev/null first keeps the
        # interpreter's shutdown flush from tracebacking on the same pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(0)
    except EngineError as error:
        raise SystemExit(f"{arguments.command}: {error}")


if __name__ == "__main__":
    main()
