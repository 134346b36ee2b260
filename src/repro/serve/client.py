"""Client side of the inference service: connect, submit, stream.

``repro infer --connect SOCKET`` goes through :func:`submit`: one request
line up the Unix socket, response records relayed to the output stream as
they arrive -- the first ``result`` record lands while later benchmarks are
still running, which is the point of serving over batching.

When no daemon answers, :func:`run_local` computes the same request
in-process and emits the *same* record stream (both sides serve through
:func:`repro.serve.daemon.run_request`), so pipelines built on the NDJSON
output cannot tell the difference -- except that ``done.counters`` are all
zero, because no serving layer was involved.
"""

from __future__ import annotations

import json
import socket

from repro.core.engine import CacheStats, InferenceEngine
from repro.serve.daemon import run_request, serve_counters
from repro.serve.protocol import ServeRequest, accepted_record, done_record, encode
from repro.telemetry import monotime


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


def run_local(request: ServeRequest, out, jobs: int = 1) -> dict:
    """The in-process fallback: same request, same record stream, no daemon.

    Serves the request through the daemon's own runner
    (:func:`repro.serve.daemon.run_request`), with the engine's default
    configuration, between an ``accepted`` and a ``done`` record of its
    own.  The request ``deadline`` is measured from this call.
    """
    def emit(record: dict) -> None:
        out.write(encode(record) + "\n")
        out.flush()

    started = monotime()
    emit(accepted_record(request.id))
    status, reports = run_request(
        InferenceEngine(jobs=jobs), request, emit, enqueued_at=started
    )
    record = done_record(
        request.id,
        status,
        jobs=len(reports),
        counters=serve_counters(CacheStats()),
        seconds=monotime() - started,
    )
    emit(record)
    return record
