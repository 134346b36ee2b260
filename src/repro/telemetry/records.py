"""NDJSON trace-record conventions: schema, reading, validation.

A trace file is a stream of JSON objects, one per line, append-only and
cat-able -- the same record conventions ROADMAP item 1's streaming serve
mode will reuse.  Three record types exist in schema version 1:

``trace_meta``
    Written once per producing process: schema ``version``, the producer's
    ``pid``, the ``clock`` the span timestamps come from (``perf_counter``,
    i.e. ``CLOCK_MONOTONIC`` on Linux -- boot-relative and therefore
    comparable across the processes of one machine) and a ``unix_time``
    wall-clock anchor.

``span``
    One closed span: ``id`` (``"<pid>:<seq>"``), ``parent`` (a span id or
    ``null`` for roots), ``kind`` (the taxonomy of ``docs/observability.md``:
    ``sweep``, ``job``, ``function``, ``location``, ``candidate_group``,
    ``checker_call``, ``stream_materialize``, ``disk_io``), an optional
    ``name``, ``ts``/``dur`` in clock seconds, ``pid``, ``track`` (``main``
    for stack-nested spans, ``aux`` for the side-channel events ``retry``,
    ``pool_heal``, ``queue_wait`` and ``drain``, which do not nest on the
    span stack) and an ``attrs`` object carrying counter deltas and labels.

``counters``
    A point-in-time snapshot of a counter dictionary (``name``, ``pid``,
    ``ts``, ``values``) -- the per-job cache counters, in engine traces.
"""

from __future__ import annotations

import json

#: Version stamped into every ``trace_meta`` record.  Bump on any change a
#: reader could misinterpret; readers reject versions they do not know.
TRACE_SCHEMA_VERSION = 1

RECORD_TYPES = ("trace_meta", "span", "counters")

#: The span taxonomy (outermost first).
SPAN_KINDS = (
    "sweep",
    "job",
    "function",
    "location",
    "candidate_group",
    "variant_decide",  # one group-kernel call inside a candidate group
    "checker_call",
    "stream_materialize",
    "disk_io",
    # Resilience events emitted by the engine's pool supervisor (aux track,
    # zero-duration): a retry scheduled with backoff, and a healing round
    # (worker respawn, quarantine).  See docs/resilience.md.
    "retry",
    "pool_heal",
    # Serving-layer spans (repro.serve): one ``request`` per accepted
    # request, a ``queue_wait`` covering its time in the admission queue,
    # and one ``drain`` covering a SIGTERM graceful shutdown.  See
    # docs/serving.md.
    "request",
    "queue_wait",
    "drain",
)

_SPAN_REQUIRED = ("id", "kind", "ts", "dur", "pid", "track")


class TraceError(ValueError):
    """A trace file or record stream violates the schema."""


def read_trace(path) -> list[dict]:
    """Parse and validate one NDJSON trace file into a record list."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{number}: not valid JSON ({exc})") from exc
            try:
                validate_record(record)
            except TraceError as exc:
                raise TraceError(f"{path}:{number}: {exc}") from exc
            records.append(record)
    if not any(record["type"] == "trace_meta" for record in records):
        raise TraceError(f"{path}: no trace_meta record (not a trace file?)")
    return records


def validate_record(record) -> None:
    """Raise :class:`TraceError` unless ``record`` is a valid trace record."""
    if not isinstance(record, dict):
        raise TraceError(f"record is not an object: {record!r}")
    kind = record.get("type")
    if kind not in RECORD_TYPES:
        raise TraceError(f"unknown record type {kind!r}")
    if kind == "trace_meta":
        version = record.get("version")
        if version != TRACE_SCHEMA_VERSION:
            raise TraceError(
                f"unsupported trace schema version {version!r} "
                f"(this reader knows {TRACE_SCHEMA_VERSION})"
            )
        if not isinstance(record.get("pid"), int):
            raise TraceError("trace_meta record has no integer pid")
    elif kind == "span":
        for field in _SPAN_REQUIRED:
            if field not in record:
                raise TraceError(f"span record is missing {field!r}")
        if not isinstance(record["ts"], (int, float)) or not isinstance(
            record["dur"], (int, float)
        ):
            raise TraceError("span ts/dur must be numbers")
        if record["dur"] < 0:
            raise TraceError(f"span {record['id']!r} has negative duration")
        if record["track"] not in ("main", "aux"):
            raise TraceError(f"span track must be main or aux, got {record['track']!r}")
    elif kind == "counters":
        if not isinstance(record.get("values"), dict):
            raise TraceError("counters record has no values object")


def span_records(records) -> list[dict]:
    """Just the span records of a parsed trace, in file order."""
    return [record for record in records if record["type"] == "span"]
