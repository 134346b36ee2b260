"""Client side of the inference service: connect, submit, stream.

``repro infer --connect SOCKET`` goes through :func:`submit`: one request
line up the Unix socket, response records relayed to the output stream as
they arrive -- the first ``result`` record lands while later benchmarks are
still running, which is the point of serving over batching.

When no daemon answers, :func:`run_local` computes the same request
in-process and emits the *same* record stream (both sides render through
:func:`repro.serve.protocol.records_for_report`), so pipelines built on the
NDJSON output cannot tell the difference -- except that ``done.counters``
are all zero, because no serving layer was involved.
"""

from __future__ import annotations

import json
import socket

from repro.serve.protocol import (
    ServeRequest,
    accepted_record,
    done_record,
    encode,
    records_for_report,
    remaining_budget,
)


class ServeUnavailable(ConnectionError):
    """No daemon is answering on the socket (caller may fall back)."""


def submit(
    socket_path,
    request: ServeRequest,
    out,
    connect_timeout: float = 2.0,
) -> dict:
    """Send one request to a live daemon, relaying records to ``out``.

    Every response line is written to ``out`` verbatim (and flushed, to
    preserve the incremental-streaming property through a pipe).  Returns
    the terminal record -- ``done`` or ``rejected`` -- as a dict.  Raises
    :class:`ServeUnavailable` when nothing is listening.
    """
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(connect_timeout)
    try:
        conn.connect(str(socket_path))
    except OSError as exc:
        conn.close()
        raise ServeUnavailable(f"no daemon on {socket_path}: {exc}") from exc
    conn.settimeout(None)
    try:
        conn.sendall((encode(request.as_dict()) + "\n").encode("utf-8"))
        reader = conn.makefile("r", encoding="utf-8")
        for line in reader:
            line = line.rstrip("\n")
            if not line:
                continue
            out.write(line + "\n")
            out.flush()
            record = json.loads(line)
            if record.get("type") in ("done", "rejected"):
                return record
        raise ServeUnavailable(
            f"daemon on {socket_path} hung up before a terminal record"
        )
    finally:
        conn.close()


def run_local(
    request: ServeRequest,
    out,
    jobs: int = 1,
    cache_file=None,
    telemetry=None,
) -> dict:
    """The in-process fallback: same request, same record stream, no daemon.

    Builds the same engine configuration the daemon uses (crash discard on,
    incremental cache flushing when a cache file is given) and streams each
    benchmark's records as its job finalizes.  The request ``deadline`` is
    measured from this call: each job is stamped with the budget still left
    when it starts, exactly as the daemon does.
    """
    from repro.core.engine import CacheStats, EngineJob, InferenceEngine
    from repro.core.sling import SlingConfig
    from repro.telemetry import monotime

    def emit(record: dict) -> None:
        out.write(encode(record) + "\n")
        out.flush()

    started = monotime()
    emit(accepted_record(request.id))
    config = SlingConfig(
        discard_crashed_runs=True,
        persistent_cache=cache_file,
        incremental_flush=cache_file is not None,
        telemetry=telemetry,
    )
    engine = InferenceEngine(jobs=jobs)
    deadline_at = started + request.deadline if request.deadline is not None else None

    def cancel():
        if deadline_at is not None and monotime() > deadline_at:
            return "deadline"
        return None

    def on_report(index, report):
        for record in records_for_report(request.id, report):
            emit(record)

    reports = engine.run(
        [
            EngineJob(
                kind="spec",
                benchmark=name,
                seed=request.seed,
                config=config,
            )
            for name in request.benchmarks
        ],
        on_report=on_report,
        cancel=cancel,
        timeout_for=lambda job: remaining_budget(deadline_at),
    )
    stats = CacheStats()
    for report in reports:
        stats.merge(report.cache)
    status = "complete"
    if deadline_at is not None and (
        monotime() > deadline_at
        or any(
            (report.error or "").startswith("cancelled: deadline") or report.timed_out
            for report in reports
            if not report.ok
        )
    ):
        status = "deadline_expired"
    record = done_record(
        request.id,
        status,
        jobs=len(reports),
        counters={
            key: value for key, value in stats.as_dict().items() if key.startswith("serve_")
        },
        seconds=monotime() - started,
    )
    emit(record)
    return record
