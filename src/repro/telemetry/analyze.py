"""Trace analysis: per-phase summaries, Chrome export, regression diffs.

All functions here consume the parsed record lists of
:func:`repro.telemetry.records.read_trace`; nothing touches the tracer, so
traces from other machines (CI artifacts) analyse the same way as local
ones.
"""

from __future__ import annotations

from repro.telemetry.records import span_records


def self_times(records) -> dict[str, float]:
    """Per-span self time: duration minus the duration of main-track children.

    Only main-track spans participate -- they nest by construction (the
    tracer's stack), so within one process's span tree the self times are
    additive: they sum exactly to the root's duration.  ``aux``-track spans
    (``retry``, ``pool_heal``, ``queue_wait``, ``drain``) are excluded on
    both sides; they do not nest on the span stack.  Self times are
    clamped at zero: a parallel sweep's children overlap, so their summed
    duration may legitimately exceed the parent's wall time.
    """
    spans = [span for span in span_records(records) if span["track"] == "main"]
    child_totals: dict[str, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            child_totals[parent] = child_totals.get(parent, 0.0) + span["dur"]
    return {
        span["id"]: max(0.0, span["dur"] - child_totals.get(span["id"], 0.0))
        for span in spans
    }


def phase_summary(records) -> dict[str, dict]:
    """Aggregate spans per kind: count, total and self seconds.

    Main-track kinds report ``self_seconds`` (see :func:`self_times`);
    aux-track kinds report ``aux: true`` instead -- their total is a
    side-channel measurement outside the span stack and must not be added
    to the main-track self times.
    """
    selfs = self_times(records)
    summary: dict[str, dict] = {}
    for span in span_records(records):
        entry = summary.setdefault(
            span["kind"], {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0}
        )
        entry["count"] += 1
        entry["total_seconds"] += span["dur"]
        if span["track"] == "main":
            entry["self_seconds"] += selfs[span["id"]]
        else:
            entry["aux"] = True
    for entry in summary.values():
        entry["total_seconds"] = round(entry["total_seconds"], 6)
        if entry.pop("aux", False):
            del entry["self_seconds"]
            entry["aux"] = True
        else:
            entry["self_seconds"] = round(entry["self_seconds"], 6)
    return summary


def hottest(records, kind: str, top: int = 10) -> list[dict]:
    """The ``top`` hottest span names of one kind by summed duration."""
    totals: dict[str, dict] = {}
    for span in span_records(records):
        if span["kind"] != kind:
            continue
        name = span.get("name") or "<unnamed>"
        entry = totals.setdefault(name, {"name": name, "count": 0, "total_seconds": 0.0})
        entry["count"] += 1
        entry["total_seconds"] += span["dur"]
    ranked = sorted(totals.values(), key=lambda entry: -entry["total_seconds"])
    for entry in ranked:
        entry["total_seconds"] = round(entry["total_seconds"], 6)
    return ranked[:top]


def to_chrome(records) -> dict:
    """Convert a trace to Chrome trace-event JSON (``about://tracing``).

    Spans become complete (``ph: "X"``) events with microsecond timestamps
    normalized to the earliest span; each (pid, track) pair gets its own
    thread row, so after a parallel sweep every worker pid is one track and
    the overlap is finally visible.  ``trace_meta``/``counters`` records
    become process metadata and counter (``ph: "C"``) events.
    """
    spans = span_records(records)
    if spans:
        origin = min(span["ts"] for span in spans)
    else:
        origin = 0.0
    events = []
    tids: dict[tuple[int, str], int] = {}

    def tid_for(pid: int, track: str) -> int:
        key = (pid, track)
        tid = tids.get(key)
        if tid is None:
            tid = len(tids) + 1
            tids[key] = tid
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"pid {pid} ({track})"},
                }
            )
        return tid

    for record in records:
        if record["type"] == "trace_meta":
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": record["pid"],
                    "tid": 0,
                    "args": {"name": f"repro pid {record['pid']}"},
                }
            )
        elif record["type"] == "span":
            events.append(
                {
                    "name": record.get("name") or record["kind"],
                    "cat": record["kind"],
                    "ph": "X",
                    "ts": round((record["ts"] - origin) * 1e6, 3),
                    "dur": round(record["dur"] * 1e6, 3),
                    "pid": record["pid"],
                    "tid": tid_for(record["pid"], record["track"]),
                    "args": record.get("attrs", {}),
                }
            )
        elif record["type"] == "counters":
            events.append(
                {
                    "name": record.get("name") or "counters",
                    "ph": "C",
                    "ts": round((record["ts"] - origin) * 1e6, 3),
                    "pid": record["pid"],
                    "args": {
                        key: value
                        for key, value in record["values"].items()
                        if isinstance(value, (int, float))
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def diff_summaries(old_records, new_records) -> dict[str, dict]:
    """Per-kind self/total time deltas between two traces (regression triage).

    Keys are span kinds present in either trace; each entry carries the old
    and new totals and the delta (new minus old, negative = faster).
    """
    old = phase_summary(old_records)
    new = phase_summary(new_records)
    diff: dict[str, dict] = {}
    for kind in sorted(set(old) | set(new)):
        old_entry = old.get(kind, {"count": 0, "total_seconds": 0.0})
        new_entry = new.get(kind, {"count": 0, "total_seconds": 0.0})
        entry = {
            "count_old": old_entry["count"],
            "count_new": new_entry["count"],
            "total_seconds_old": old_entry["total_seconds"],
            "total_seconds_new": new_entry["total_seconds"],
            "total_delta": round(
                new_entry["total_seconds"] - old_entry["total_seconds"], 6
            ),
        }
        if "self_seconds" in old_entry or "self_seconds" in new_entry:
            entry["self_seconds_old"] = old_entry.get("self_seconds", 0.0)
            entry["self_seconds_new"] = new_entry.get("self_seconds", 0.0)
            entry["self_delta"] = round(
                entry["self_seconds_new"] - entry["self_seconds_old"], 6
            )
        diff[kind] = entry
    return diff
