"""The daemon as an operator runs it: real subprocesses, sockets and signals.

One daemon lifecycle, start to resume:

1. ``repro infer --connect`` against a live ``repro serve`` streams its
   records incrementally (the first ``result`` arrives while the client is
   still running) and bit-identically to an in-process run.
2. SIGTERM with one request in flight and one queued drains with exit 0,
   finishing the in-flight request and leaving the queued one journaled.
3. A restarted daemon on the same journal resumes the queued request into
   ``<journal>.recovered.ndjson`` bit-identically, then drains with exit 0
   on a second SIGTERM (an idle drain).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time

from repro.serve.protocol import ServeRequest, encode
from tests.conftest import reference_payload, served_payload

#: The streamed request: a fast job first (its records land early), then
#: slower DLL jobs, so the first record arrives well before the client exits.
STREAM_BENCHMARKS = ("sll/insertFront", "dll/concat", "dll/midDelStar")

#: The request in flight at SIGTERM: benchmarks the daemon has not run yet,
#: so it is still busy with them when the next request is queued.
DRAIN_BENCHMARKS = ("sll/append", "dll/midDelMid", "dll/insertBack")

#: The request left queued at SIGTERM and resumed by the restarted daemon.
RESUME_BENCHMARKS = ("sll/reverse", "dll/append")

#: Generous bound on any single wait (subprocess start-up included).
WAIT = 60.0

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(_SRC)
    return env


def _wait_for(predicate, what: str) -> None:
    deadline = time.monotonic() + WAIT
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.05)


def _start_daemon(socket_path: str, journal: str, log) -> subprocess.Popen:
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--journal", journal],
        stdout=log,
        stderr=subprocess.STDOUT,
        env=_env(),
    )

    def answering() -> bool:
        assert daemon.poll() is None, f"daemon exited {daemon.returncode} at start-up"
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
            try:
                probe.connect(socket_path)
            except OSError:
                return False
        return True

    _wait_for(answering, f"daemon socket {socket_path}")
    return daemon


def _sigterm(daemon: subprocess.Popen) -> int:
    daemon.send_signal(signal.SIGTERM)
    try:
        return daemon.wait(timeout=WAIT)
    except subprocess.TimeoutExpired:
        daemon.kill()
        raise AssertionError("daemon did not drain after SIGTERM")


def _submit(socket_path: str, request: ServeRequest, until: str):
    """Submit ``request``; read its records up to the first ``until`` one."""
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(WAIT)
    conn.connect(socket_path)
    conn.sendall((encode(request.as_dict()) + "\n").encode("utf-8"))
    reader = conn.makefile("r", encoding="utf-8")
    for line in reader:
        record = json.loads(line)
        assert record["type"] != "rejected", record
        if record["type"] == until:
            return conn, reader
    raise AssertionError(f"stream of {request.id} ended before a {until} record")


def _stream_through_connect(socket_path: str, request: ServeRequest) -> None:
    lines = []
    first_result_while_running = None
    with subprocess.Popen(
        [sys.executable, "-m", "repro", "infer", "--connect", socket_path]
        + [arg for name in request.benchmarks for arg in ("--benchmark", name)]
        + ["--seed", str(request.seed), "--request-id", request.id],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=_env(),
        text=True,
    ) as client:
        for line in client.stdout:
            line = line.rstrip("\n")
            if first_result_while_running is None and '"type":"result"' in line:
                first_result_while_running = client.poll() is None
            lines.append(line)
    assert client.wait(timeout=WAIT) == 0
    assert first_result_while_running, "the stream was batched, not incremental"
    assert served_payload(lines) == reference_payload(request)
    done = json.loads(lines[-1])
    assert (done["type"], done["status"]) == ("done", "complete")
    assert done["counters"]["serve_requests"] >= 1


def test_connect_stream_sigterm_drain_and_restart_resume(tmp_path):
    socket_path = str(tmp_path / "repro.sock")
    journal = str(tmp_path / "repro.journal")
    in_flight = ServeRequest(id="drain-inflight", benchmarks=DRAIN_BENCHMARKS)
    queued = ServeRequest(id="drain-queued", benchmarks=RESUME_BENCHMARKS)

    with open(tmp_path / "daemon.log", "a") as log:
        daemon = _start_daemon(socket_path, journal, log)
        try:
            _stream_through_connect(
                socket_path, ServeRequest(id="stream", benchmarks=STREAM_BENCHMARKS)
            )
            # A first result proves the executor holds this request, so the
            # next one is queued behind it when the signal lands.
            conn_a, reader_a = _submit(socket_path, in_flight, until="result")
            conn_b, _ = _submit(socket_path, queued, until="accepted")
            assert _sigterm(daemon) == 0
            statuses = [json.loads(line).get("status") for line in reader_a]
            assert statuses[-1] == "complete"
            conn_a.close()
            conn_b.close()
        finally:
            if daemon.poll() is None:
                daemon.kill()
        assert os.path.exists(journal), "the drain left no journal behind"

        expected = reference_payload(queued)
        recovered_path = journal + ".recovered.ndjson"

        def resumed() -> list[str]:
            if not os.path.exists(recovered_path):
                return []
            with open(recovered_path, encoding="utf-8") as handle:
                return served_payload(handle.read().splitlines())

        daemon = _start_daemon(socket_path, journal, log)
        try:
            _wait_for(lambda: len(resumed()) >= len(expected), "the resumed stream")
            assert _sigterm(daemon) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
        assert resumed() == expected
