"""Daemon equivalence suite: served results are bit-identical, always.

The serving layer must never change *what* is computed -- only where and
when.  These tests pin that four ways: a daemon-served stream against the
in-process fallback, a pooled daemon against an inline one, a
kill-and-resume restart against a fresh run, and the request after an
abused one (queue overflow, deadline expiry, client disconnect) against a
fresh run.  A subprocess test closes the loop against the one-shot CLI
(``repro infer --json``).  Every thread-hosted daemon must drain with exit 0,
and a persistent connection must not keep the requests it finished alive.
"""

from __future__ import annotations

import gc
import io
import json
import os
import socket
import subprocess
import sys
import time

import pytest

from repro.serve import daemon as daemon_module
from repro.serve.client import submit
from repro.serve.daemon import ServeDaemon, _PendingRequest
from repro.serve.journal import RequestJournal
from repro.serve.protocol import ServeRequest, encode
from tests.conftest import SERVE_WAIT, reference_payload, served_payload

#: Small smoke workload (one fast SLL job, one slower DLL job).
WORKLOAD = ("sll/insertFront", "dll/append")


def _by_benchmark(lines) -> dict[str, list[str]]:
    grouped: dict[str, list[str]] = {}
    for line in served_payload(lines):
        grouped.setdefault(json.loads(line)["benchmark"], []).append(line)
    return grouped


class TestServedEquivalence:
    def test_daemon_stream_matches_in_process_run(self, serve_daemon):
        host = serve_daemon(jobs=1)
        request = ServeRequest(id="eq", benchmarks=WORKLOAD, seed=0)
        out = io.StringIO()
        terminal = submit(host.socket_path, request, out)
        assert terminal["type"] == "done"
        assert terminal["status"] == "complete"
        assert terminal["counters"]["serve_requests"] == 1
        assert served_payload(out.getvalue().splitlines()) == reference_payload(request)

    def test_each_job_report_is_one_socket_write(self, serve_daemon, monkeypatch):
        """``accepted``, one write per benchmark with all its records, ``done``."""
        writes = []
        write = daemon_module._Connection.write

        def counted(self, records, *args, **kwargs):
            writes.append([record["type"] for record in records])
            return write(self, records, *args, **kwargs)

        monkeypatch.setattr(daemon_module._Connection, "write", counted)
        host = serve_daemon(jobs=1)
        request = ServeRequest(id="writes", benchmarks=WORKLOAD, seed=0)
        out = io.StringIO()
        submit(host.socket_path, request, out)
        assert served_payload(out.getvalue().splitlines()) == reference_payload(request)
        assert writes[0] == ["accepted"] and writes[-1] == ["done"]
        reports = writes[1:-1]
        assert len(reports) == len(WORKLOAD)
        assert all(types[-1] == "job" and "result" in types for types in reports)

    def test_pool_daemon_matches_inline_per_benchmark(self, serve_daemon):
        """--jobs 2 may reorder job completion, never change any job's records."""
        host = serve_daemon(jobs=2)
        request = ServeRequest(
            id="pool", benchmarks=WORKLOAD + ("sll/reverse", "dll/concat"), seed=0
        )
        out = io.StringIO()
        terminal = submit(host.socket_path, request, out)
        assert terminal["status"] == "complete"
        assert _by_benchmark(out.getvalue().splitlines()) == _by_benchmark(
            reference_payload(request)
        )

    def test_request_isolation_keeps_streams_identical(self, serve_daemon):
        """A warm daemon serves the same request identically every time,
        the second time from the functions the first one left in the
        daemon's memo, with no search."""
        host = serve_daemon(jobs=1)
        request = ServeRequest(id="warm", benchmarks=WORKLOAD)
        streams = []
        counters = []
        for _ in range(2):
            out = io.StringIO()
            submit(host.socket_path, request, out)
            streams.append(served_payload(out.getvalue().splitlines()))
            counters.append(host.counters())
        assert counters[0]["function_memo_hits"] == 0
        assert counters[1]["function_memo_hits"] == len(WORKLOAD)
        assert counters[1]["skeletons_solved"] == counters[0]["skeletons_solved"]
        assert streams[0] == streams[1] == reference_payload(request)


class TestKillAndResume:
    def test_restart_resumes_journaled_requests_bit_identically(
        self, tmp_path, serve_daemon
    ):
        journal_path = str(tmp_path / "crashed.journal")
        requests = [
            ServeRequest(id="lost-1", benchmarks=WORKLOAD[:1], seed=0),
            ServeRequest(id="lost-2", benchmarks=WORKLOAD[1:], seed=0),
        ]
        # A daemon that crashed mid-flight: requests journaled as accepted,
        # never marked done (the journal is exactly what survives a kill -9).
        journal = RequestJournal(journal_path)
        for request in requests:
            journal.record_accepted(request)
        journal.close()

        host = serve_daemon(jobs=1, journal_path=journal_path)
        recovered_path = journal_path + ".recovered.ndjson"
        expected = [line for request in requests for line in reference_payload(request)]
        deadline = time.monotonic() + SERVE_WAIT
        while True:
            if os.path.exists(recovered_path):
                with open(recovered_path, encoding="utf-8") as handle:
                    lines = served_payload(handle.read().splitlines())
                if len(lines) >= len(expected):
                    break
            assert time.monotonic() < deadline, "resume never completed"
            time.sleep(0.05)
        assert lines == expected
        assert host.counters()["serve_requests_resumed"] == 2
        host.stop()
        # After the resumed runs were journaled done, nothing is pending.
        reopened = RequestJournal(journal_path)
        assert reopened.unfinished() == []
        reopened.close()


#: The long request the abuse tests keep in flight: DLL benchmarks are the
#: slowest of the list suites (50-200 ms each), so there is always a window
#: to overflow the queue or hang up within.
LONG_WORKLOAD = (
    "dll/concat",
    "dll/midDelMid",
    "dll/midDelStar",
    "dll/insertBack",
    "dll/append",
)

#: The request after the abuse, proving the daemon survived unharmed.
FOLLOWUP = ("sll/insertFront", "sll/append")


def _connect(socket_path: str):
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(SERVE_WAIT)
    conn.connect(socket_path)
    return conn, conn.makefile("r", encoding="utf-8")


def _send(conn, request: ServeRequest) -> None:
    conn.sendall((encode(request.as_dict()) + "\n").encode("utf-8"))


def _read_until(reader, *types: str) -> list[dict]:
    """Read records until one of ``types`` arrives (inclusive)."""
    records = []
    for line in reader:
        if not line.strip():
            continue
        records.append(json.loads(line))
        if records[-1].get("type") in types:
            return records
    raise AssertionError(f"stream ended before any of {types} arrived")


def _assert_followup_identical(host) -> None:
    """Abuse may cost the abused request, never the next one."""
    request = ServeRequest(id="followup", benchmarks=FOLLOWUP)
    out = io.StringIO()
    terminal = submit(host.socket_path, request, out)
    assert terminal["type"] == "done"
    assert terminal["status"] == "complete"
    assert served_payload(out.getvalue().splitlines()) == reference_payload(request)


class TestDaemonUnderAbuse:
    """Each abuse leaves the daemon serving bit-identical results, and it
    still drains with exit 0 (asserted by the ``serve_daemon`` teardown)."""

    def test_queue_overflow_rejects_only_the_extra_submission(self, serve_daemon):
        host = serve_daemon(jobs=1, queue_limit=1)
        conn_a, reader_a = _connect(host.socket_path)
        _send(conn_a, ServeRequest(id="overflow-inflight", benchmarks=LONG_WORKLOAD))
        # Once the first result is out the executor is busy with this
        # request, so the next admission sits in the one-slot queue.
        _read_until(reader_a, "result")
        conn_b, reader_b = _connect(host.socket_path)
        _send(conn_b, ServeRequest(id="overflow-queued", benchmarks=FOLLOWUP[:1]))
        assert _read_until(reader_b, "accepted", "rejected")[-1]["type"] == "accepted"
        conn_c, reader_c = _connect(host.socket_path)
        _send(conn_c, ServeRequest(id="overflow-extra", benchmarks=FOLLOWUP[:1]))
        verdict = _read_until(reader_c, "accepted", "rejected")[-1]
        assert verdict["type"] == "rejected"
        assert verdict["reason"] == "queue full"
        conn_c.close()
        # Both admitted requests still run to completion.
        for reader, conn in ((reader_a, conn_a), (reader_b, conn_b)):
            assert _read_until(reader, "done")[-1]["status"] == "complete"
            conn.close()
        counters = host.counters()
        assert counters["serve_rejections"] >= 1
        assert counters["serve_queue_high_water"] >= 1
        _assert_followup_identical(host)

    def test_deadline_expiry_ends_the_stream_with_partial_results(self, serve_daemon):
        host = serve_daemon(jobs=1)
        conn, reader = _connect(host.socket_path)
        _send(conn, ServeRequest(id="deadline", benchmarks=LONG_WORKLOAD, deadline=0.05))
        records = _read_until(reader, "done")
        conn.close()
        assert records[-1]["status"] == "deadline_expired"
        expired = [
            record
            for record in records
            if record.get("type") == "job"
            and not record.get("ok")
            and str(record.get("error", "")).startswith(("cancelled: deadline", "timeout"))
        ]
        assert expired, "no job was cut off by the deadline"
        assert host.counters()["serve_deadline_expiries"] >= 1
        # Whatever the deadline cut off left nothing wrong in the memo.
        request = ServeRequest(id="after-deadline", benchmarks=LONG_WORKLOAD)
        out = io.StringIO()
        assert submit(host.socket_path, request, out)["status"] == "complete"
        assert served_payload(out.getvalue().splitlines()) == reference_payload(request)
        _assert_followup_identical(host)

    def test_client_disconnect_cancels_the_abandoned_request(self, serve_daemon):
        host = serve_daemon(jobs=1)
        conn, reader = _connect(host.socket_path)
        _send(conn, ServeRequest(id="vanisher", benchmarks=LONG_WORKLOAD))
        _read_until(reader, "result")
        # Hang up mid-stream, ungracefully.  shutdown() actually sends the
        # FIN; close() alone would keep the fd alive through the reader.
        conn.shutdown(socket.SHUT_RDWR)
        reader.close()
        conn.close()
        deadline = time.monotonic() + SERVE_WAIT
        while host.counters()["serve_client_disconnects"] < 1:
            assert time.monotonic() < deadline, "the hangup was never counted"
            time.sleep(0.05)
        _assert_followup_identical(host)


class TestConnectionMemory:
    def test_a_connection_keeps_no_finished_request(self, serve_daemon):
        """Sequential requests on one connection leave at most the last
        one reachable, not every request the connection ever sent."""
        host = serve_daemon(jobs=1)
        conn, reader = _connect(host.socket_path)
        try:
            for number in range(40):
                _send(conn, ServeRequest(id=f"seq-{number}", benchmarks=WORKLOAD[:1]))
                assert _read_until(reader, "done")[-1]["status"] == "complete"
            gc.collect()
            alive = [
                obj
                for obj in gc.get_objects()
                if isinstance(obj, _PendingRequest) and obj.request.id.startswith("seq-")
            ]
            assert len(alive) <= 1
        finally:
            reader.close()
            conn.close()


class _RecordingSink:
    """A stand-in connection for direct _admit calls; collects records."""

    def __init__(self):
        self.records = []

    def write(self, records, fault_plan=None, request_id=""):
        self.records.extend(records)


class TestSocketExclusivity:
    def test_second_daemon_leaves_live_socket_intact(self, tmp_path, serve_daemon):
        """A refused rival must not unlink the running daemon's socket."""
        host = serve_daemon(jobs=1)
        rival = ServeDaemon(host.socket_path, journal_path=str(tmp_path / "rival.journal"))
        with pytest.raises(RuntimeError, match="live daemon"):
            rival.serve(install_signals=False)
        assert os.path.exists(host.socket_path)
        out = io.StringIO()
        terminal = submit(
            host.socket_path, ServeRequest(id="still-up", benchmarks=WORKLOAD[:1]), out
        )
        assert terminal["status"] == "complete"


class TestAdmissionJournal:
    def test_overflow_rejection_never_resumes(self, tmp_path):
        """A queue-full rejection leaves no unfinished journal entry."""
        daemon = ServeDaemon(str(tmp_path / "serve.sock"), queue_limit=1)
        sink = _RecordingSink()
        try:
            admitted = daemon._admit(
                sink, json.dumps({"id": "kept", "benchmarks": list(WORKLOAD[:1])})
            )
            assert admitted is not None
            rejected = daemon._admit(
                sink, json.dumps({"id": "spilt", "benchmarks": list(WORKLOAD[:1])})
            )
            assert rejected is None
            assert [record["type"] for record in sink.records] == [
                "accepted",
                "rejected",
            ]
            assert daemon.stats.serve_rejections == 1
        finally:
            daemon.journal.close()
        journal = RequestJournal(daemon.journal_path)
        assert [request.id for request in journal.unfinished()] == ["kept"]
        journal.close()


class TestOneShotCliEquivalence:
    @pytest.fixture(scope="class")
    def cli_env(self):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        return env

    def test_served_invariants_match_one_shot_cli(self, serve_daemon, cli_env):
        """Daemon-served records carry the invariants the batch CLI prints."""
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "infer", "--json"]
            + [arg for name in WORKLOAD for arg in ("--benchmark", name)],
            env=cli_env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        cli_invariants = {
            (entry["benchmark"], inv["location"], inv["formula"], inv["spurious"])
            for entry in json.loads(completed.stdout)
            for inv in entry["invariants"]
        }

        host = serve_daemon(jobs=1)
        out = io.StringIO()
        submit(host.socket_path, ServeRequest(id="cli", benchmarks=WORKLOAD), out)
        served_invariants = {
            (record["benchmark"], record["location"], inv["formula"], inv["spurious"])
            for line in out.getvalue().splitlines()
            if '"type":"result"' in line
            for record in [json.loads(line)]
            for inv in record["invariants"]
        }
        assert served_invariants == cli_invariants
