"""The NDJSON wire protocol of the inference service.

One request per line in, one record per line out -- the same pipeline
idiom as ``jn``-style NDJSON tools, so ``repro infer --connect`` composes
in a shell pipeline.  The protocol is shared verbatim between the daemon
(:mod:`repro.serve.daemon`) and the in-process client fallback
(:mod:`repro.serve.client`): both sides render their streams through
:func:`records_for_report`, which is what makes daemon-served and locally
computed results bit-identical by construction.

Request (client -> daemon), one JSON object per line::

    {"id": "r1", "benchmarks": ["sll/insertFront"], "seed": 0,
     "deadline": 5.0}

``id`` names the request in every response record; ``deadline`` (optional,
seconds from admission) bounds the request's wall clock.  Response records
(daemon -> client), one JSON object per line, all carrying the request
``id``:

``accepted``
    The request passed admission control and was journaled.
``rejected``
    Admission control refused it (``reason``: ``queue full``, ``draining``
    or a parse error); nothing was run and nothing stays journaled (a
    queue-full rejection is journaled before the offer and immediately
    compensated, so a restart never resumes it).
``result``
    One per (function, location) as it resolves: the invariants inferred
    at that location.
``job``
    One per benchmark as its job finalizes: ok/error and validation.
``done``
    Terminal record: ``status`` is ``complete``, ``deadline_expired`` or
    ``cancelled``, plus a serving-counter snapshot.

Records are rendered with sorted keys and no run-dependent fields outside
``done.counters``/``done.seconds``, so two streams for the same request
are byte-comparable after dropping ``done`` (the equivalence suite pins
exactly that).  See ``docs/serving.md`` for the full schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.telemetry import monotime

#: Version stamped into every ``accepted``/``rejected``/``done`` record.
#: Bump on any change a client could misinterpret.
SERVE_PROTOCOL_VERSION = 1

#: Response record types, in lifecycle order.
SERVE_RECORD_TYPES = ("accepted", "rejected", "result", "job", "done")

#: Terminal ``done.status`` values.
DONE_STATUSES = ("complete", "deadline_expired", "cancelled")


class ProtocolError(ValueError):
    """A request line violates the schema (rejected, never crashes)."""


@dataclass(frozen=True)
class ServeRequest:
    """One parsed inference request."""

    id: str
    benchmarks: tuple[str, ...]
    seed: int = 0
    deadline: float | None = None

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "benchmarks": list(self.benchmarks),
            "seed": self.seed,
            "deadline": self.deadline,
        }


def parse_request(line: str) -> ServeRequest:
    """Parse one request line, raising :class:`ProtocolError` on any flaw."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ProtocolError(f"expected a JSON object, got {type(data).__name__}")
    request_id = data.get("id")
    if not isinstance(request_id, str) or not request_id or "\n" in request_id:
        raise ProtocolError("'id' must be a non-empty string")
    benchmarks = data.get("benchmarks")
    if (
        not isinstance(benchmarks, list)
        or not benchmarks
        or not all(isinstance(name, str) and name for name in benchmarks)
    ):
        raise ProtocolError("'benchmarks' must be a non-empty list of names")
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ProtocolError("'seed' must be an integer")
    deadline = data.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or isinstance(deadline, bool):
            raise ProtocolError("'deadline' must be a number of seconds")
        if deadline <= 0:
            raise ProtocolError("'deadline' must be positive")
        deadline = float(deadline)
    unknown = set(data) - {"id", "benchmarks", "seed", "deadline"}
    if unknown:
        raise ProtocolError(f"unknown field(s): {sorted(unknown)}")
    return ServeRequest(
        id=request_id, benchmarks=tuple(benchmarks), seed=seed, deadline=deadline
    )


def remaining_budget(deadline_at: float | None, cap: float | None = None) -> float | None:
    """The per-job timeout a request deadline leaves at this moment.

    The engine stamps each job through this at submission (its
    ``timeout_for`` hook), so the later jobs of a multi-benchmark request
    get only the budget still left, never the whole deadline again.
    ``cap`` is a per-job limit of the caller's own (``None``: none).  The
    1 ms floor covers the race where the deadline passes between the
    cancel poll and the stamp: the job then times out immediately.
    """
    if deadline_at is None:
        return cap
    remaining = max(deadline_at - monotime(), 0.001)
    return remaining if cap is None else min(cap, remaining)


def encode(record: dict) -> str:
    """One record as its canonical wire line (sorted keys, no whitespace)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def accepted_record(request_id: str) -> dict:
    return {"type": "accepted", "id": request_id, "version": SERVE_PROTOCOL_VERSION}


def rejected_record(request_id: str | None, reason: str) -> dict:
    return {
        "type": "rejected",
        "id": request_id,
        "reason": reason,
        "version": SERVE_PROTOCOL_VERSION,
    }


def done_record(
    request_id: str, status: str, jobs: int, counters: dict, seconds: float
) -> dict:
    if status not in DONE_STATUSES:
        raise ValueError(f"unknown done status {status!r} (expected one of {DONE_STATUSES})")
    return {
        "type": "done",
        "id": request_id,
        "status": status,
        "jobs": jobs,
        "counters": counters,
        "seconds": round(seconds, 4),
        "version": SERVE_PROTOCOL_VERSION,
    }


def records_for_report(request_id: str, report) -> list[dict]:
    """The response records of one finalized :class:`EngineReport`.

    One ``result`` record per (function, location) -- entry first, then the
    return locations, then the loop heads, each in specification order --
    followed by the benchmark's ``job`` record.  Every field is a pure
    function of the inference result (no timing, pids or paths), which is
    what makes the daemon's stream and the in-process fallback's stream
    bit-identical for a deterministic workload.
    """
    if not report.ok:
        return [
            {
                "type": "job",
                "id": request_id,
                "benchmark": report.job.benchmark,
                "ok": False,
                "error": report.error,
            }
        ]
    payload = report.payload
    specification = payload.specification

    def result(location: str, invariants) -> dict:
        return {
            "type": "result",
            "id": request_id,
            "benchmark": payload.benchmark,
            "function": payload.function,
            "location": location,
            "invariants": [
                {"formula": invariant.pretty(), "spurious": bool(invariant.spurious)}
                for invariant in invariants
            ],
        }

    records = [result("entry", specification.preconditions)]
    for location, invariants in specification.postconditions.items():
        records.append(result(location, invariants))
    for location, invariants in specification.loop_invariants.items():
        records.append(result(location, invariants))
    records.append(
        {
            "type": "job",
            "id": request_id,
            "benchmark": payload.benchmark,
            "ok": True,
            "validated": specification.validated,
            "unreached": list(specification.unreached_locations),
        }
    )
    return records
