"""The long-lived inference daemon behind ``python -m repro serve``.

One Unix-domain socket, NDJSON in and out (:mod:`repro.serve.protocol`),
one warm :class:`~repro.core.engine.InferenceEngine` shared by every
request.  What stays hot across requests instead of being rebuilt per CLI
invocation: the interned canonical forms (with their rendered cache
keys), the predicate screens and unfolding templates compiled on demand
into the benchmarks' registries, and the persistent cache tier of the
thread running the jobs -- one open sqlite connection per cache file and
the set of stream rows already on disk, so a warm request never reopens
the file and flushes only what it newly learned (see
:func:`repro.cache.bind_tier`) -- and one stream memo
(:func:`repro.sl.stream.stream_pool`) open on that thread for the daemon's
whole life, so a request is served the skeleton streams, whole-location
results and whole-function specifications an earlier request left there.  A request that repeats an earlier one's benchmark
and seed builds its test inputs and runs none of them: the function memo
(``Sling.infer_function``) answers from the program and those inputs.
Each request still gets a fresh checker: its records are its own,
bit-identical to an in-process run, but its work counters depend on what
earlier requests left in the memo.
Teardown closes the tiers.  The robustness contract:

* **Bounded admission.**  A fixed-capacity FIFO queue; a submission that
  would overflow it is rejected immediately with a structured ``rejected``
  record, never buffered unboundedly.
* **Deadlines.**  A request's optional ``deadline`` (seconds from
  admission) is enforced three ways: each job is stamped, at the moment
  the engine submits it, with the budget still remaining then as its
  in-process alarm timeout, the engine's cancel hook is polled
  between jobs and on every pool poll (in-flight pool jobs are killed
  through the claim-slot machinery), and the terminal record is marked
  ``deadline_expired`` with whatever partial results were streamed.
* **Graceful drain.**  SIGTERM (or SIGINT) stops admission -- new
  submissions get ``rejected: draining`` -- finishes the in-flight
  request, checkpoints the still-queued ones (they are already journaled,
  so a restart re-runs them), flushes and exits 0.
* **Crash-safe resume.**  Admissions are journaled before they are
  acknowledged (:mod:`repro.serve.journal`); a restarted daemon re-runs
  accepted-but-unfinished requests first, appending their record streams
  to ``<journal>.recovered.ndjson`` -- bit-identical to what the crashed
  run would have produced, by the engine's determinism guarantee.
* **Client-disconnect detection.**  A vanished reader (EOF on its
  connection, or a failed record write) cancels its in-flight request
  instead of leaking a running sweep.

Threading: the calling thread (the process main thread, under the CLI)
runs resume and the executor loop -- keeping it the main thread is what
makes ``SIGALRM`` job timeouts and signal-based drain work -- while one
background thread accepts connections and one short-lived thread per
connection reads submissions.  The state shared across threads -- the
admission queue, the counters, the journal -- is lock-guarded; a pending
request's disconnect/done flags are ``threading.Event``s.
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import threading
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cache import close_tiers
from repro.core.engine import CacheStats, EngineJob, EngineReport, InferenceEngine
from repro.core.sling import SlingConfig
from repro.serve.journal import RequestJournal
from repro.serve.protocol import (
    ProtocolError,
    ServeRequest,
    accepted_record,
    done_record,
    encode,
    parse_request,
    records_for_report,
    rejected_record,
    remaining_budget,
)
from repro.sl.stream import stream_pool
from repro.telemetry import monotime

log = logging.getLogger("repro.serve")

#: Default admission-queue capacity (requests, not jobs).
DEFAULT_QUEUE_LIMIT = 16

#: Journal events between checkpoint compactions.  A checkpoint fsyncs on
#: the executor thread, so it runs once per 256 one-benchmark requests; the
#: journal stays under about 50 KB.
DEFAULT_CHECKPOINT_EVERY = 512

#: Accept-loop poll period; bounds both drain latency and socket teardown.
ACCEPT_POLL_SECONDS = 0.2


class AdmissionQueue:
    """Bounded FIFO with a high-water mark; the admission-control core.

    ``offer`` is atomic accept-or-reject (no blocking producers: backpressure
    is an immediate structured rejection, not a stalled client), ``pop``
    blocks the single consumer with a timeout, and ``high_water`` records
    the deepest the queue ever got (the ``serve_queue_high_water`` counter).
    FIFO order is the admission contract the hypothesis suite pins: items
    pop in exactly the order their offers succeeded.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit}")
        self.limit = limit
        self.high_water = 0
        self.closed = False
        self._items: deque = deque()
        self._condition = threading.Condition()

    def offer(self, item) -> bool:
        """Append atomically; ``False`` when full or closed (rejected)."""
        with self._condition:
            if self.closed or len(self._items) >= self.limit:
                return False
            self._items.append(item)
            if len(self._items) > self.high_water:
                self.high_water = len(self._items)
            self._condition.notify()
            return True

    def pop(self, timeout: float):
        """The oldest item, or ``None`` after ``timeout`` seconds idle."""
        with self._condition:
            if not self._items:
                self._condition.wait(timeout)
            if not self._items:
                return None
            return self._items.popleft()

    def close(self) -> list:
        """Stop admitting and return whatever was still queued."""
        with self._condition:
            self.closed = True
            remaining = list(self._items)
            self._items.clear()
            return remaining

    def depth(self) -> int:
        with self._condition:
            return len(self._items)

    def high_water_mark(self) -> int:
        """The high-water mark, read under the queue's lock."""
        with self._condition:
            return self.high_water


class _ClientGone(Exception):
    """The request's client vanished mid-stream (write failed or EOF)."""


class _Connection:
    """One client connection: a locked record writer over the socket."""

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self.lock = threading.Lock()
        self.alive = True

    def write(
        self, records: Sequence[dict], fault_plan=None, request_id: str = ""
    ) -> None:
        """Send ``records`` as one payload, in one ``sendall``."""
        payload = "".join(encode(record) + "\n" for record in records).encode("utf-8")
        with self.lock:
            if not self.alive:
                raise _ClientGone
            try:
                if fault_plan is not None:
                    from repro.faults import maybe_inject

                    maybe_inject(fault_plan, "serve_client_write", qualifier=request_id)
                self.conn.sendall(payload)
            except Exception as exc:  # noqa: BLE001 -- any failure = client gone
                self.alive = False
                raise _ClientGone from exc

    def close(self) -> None:
        with self.lock:
            self.alive = False
            try:
                self.conn.close()
            except OSError:
                pass


class _FileSink:
    """Record writer used for resumed requests (no client to stream to)."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self._file = open(self.path, "a", encoding="utf-8")

    def write(
        self, records: Sequence[dict], fault_plan=None, request_id: str = ""
    ) -> None:
        self._file.write("".join(encode(record) + "\n" for record in records))
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


@dataclass
class _PendingRequest:
    """One admitted request travelling from reader to executor."""

    request: ServeRequest
    sink: object  # _Connection | _FileSink
    enqueued_at: float
    resumed: bool = False
    #: Set by the reader thread on EOF, or by a failed record write; the
    #: executor's cancel hook polls it.  An Event, not a bool: it crosses
    #: from reader to executor thread.
    disconnected: threading.Event = field(default_factory=threading.Event)
    #: Set by the executor once the terminal record is written; the reader
    #: thread checks it on client hang-up to skip cancelling finished work.
    done: threading.Event = field(default_factory=threading.Event)


class ServeDaemon:
    """See the module docstring.  Construct, then call :meth:`serve`."""

    def __init__(
        self,
        socket_path,
        jobs: int = 1,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        journal_path=None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        cache_file=None,
        request_timeout: float | None = None,
        telemetry=None,
        fault_plan=None,
    ):
        self.socket_path = os.fspath(socket_path)
        self.jobs = jobs
        self.journal_path = (
            os.fspath(journal_path) if journal_path is not None else self.socket_path + ".journal"
        )
        self.recovered_path = self.journal_path + ".recovered.ndjson"
        self.checkpoint_every = checkpoint_every
        self.request_timeout = request_timeout
        self.telemetry = telemetry
        self.fault_plan = fault_plan
        self.queue = AdmissionQueue(queue_limit)
        self.engine = InferenceEngine(jobs=jobs)
        self.config = SlingConfig(
            persistent_cache=cache_file, telemetry=telemetry, fault_plan=fault_plan
        )
        #: Aggregated counters of everything served (the serve_* fields are
        #: this daemon's own; the rest accumulate from job reports).
        self.stats = CacheStats()
        self._stats_lock = threading.Lock()
        self.journal = RequestJournal(self.journal_path, fault_plan=fault_plan)
        self.tracer = telemetry.tracer() if telemetry is not None else None
        self._draining = threading.Event()
        self._stopping = threading.Event()
        self._listener: socket.socket | None = None
        self._connections: list[_Connection] = []
        self._conn_lock = threading.Lock()

    # ----------------------------------------------------------- lifecycle --

    def serve(self, install_signals: bool = True) -> int:
        """Resume, accept and execute until drained; returns the exit code.

        Run this on the process main thread when ``install_signals`` is
        true (SIGTERM/SIGINT drain) or when job timeouts must interrupt
        in-flight inline jobs (``SIGALRM``).  Tests run it on a background
        thread with ``install_signals=False`` and drain via :meth:`stop`.
        """
        previous_handlers = {}
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous_handlers[signum] = signal.signal(
                    signum, lambda *_: self._draining.set()
                )
        try:
            # Bind before resuming: the socket probe in _listen doubles as
            # the exclusivity check, so a second daemon pointed at a live
            # socket fails here without replaying the live daemon's journal.
            self._listen()
            # Every request runs on this thread, so they all share one
            # stream memo (and every engine batch fills it; see the module
            # docstring).
            with stream_pool():
                self._resume_journaled()
                accept_thread = threading.Thread(
                    target=self._accept_loop, name="repro-serve-accept", daemon=True
                )
                accept_thread.start()
                log.info(
                    "serving on %s (queue limit %d)", self.socket_path, self.queue.limit
                )
                self._executor_loop()
                self._drain()
            accept_thread.join(timeout=2 * ACCEPT_POLL_SECONDS)
            return 0
        finally:
            self._teardown()
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)

    def stop(self) -> None:
        """Programmatic SIGTERM equivalent (thread-hosted daemons)."""
        self._draining.set()

    def _listen(self) -> None:
        if os.path.exists(self.socket_path):
            # A previous daemon's socket file: refuse if it answers, else
            # it is stale (crash leftovers) and safe to replace.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.socket_path)
            except OSError:
                os.unlink(self.socket_path)
            else:
                probe.close()
                raise RuntimeError(f"socket {self.socket_path} already has a live daemon")
            finally:
                probe.close()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen()
        listener.settimeout(ACCEPT_POLL_SECONDS)
        self._listener = listener

    def _teardown(self) -> None:
        self._stopping.set()
        # Unlink the socket file only if *this* instance bound it
        # (_listener is set right after bind): when _listen refused because
        # a live daemon answered, that daemon's socket must stay reachable.
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        self.journal.close()
        close_tiers()
        if self.telemetry is not None:
            self.telemetry.merge_segments()
            self.telemetry.close()

    # -------------------------------------------------------------- resume --

    def _resume_journaled(self) -> None:
        """Re-run accepted-but-unfinished requests from a previous life."""
        pending = self.journal.unfinished()
        if not pending:
            return
        log.info(
            "resuming %d journaled request(s) into %s",
            len(pending),
            self.recovered_path,
        )
        sink = _FileSink(self.recovered_path)
        try:
            for request in pending:
                with self._stats_lock:
                    self.stats.serve_requests_resumed += 1
                self._run_request(
                    _PendingRequest(
                        request=request,
                        sink=sink,
                        enqueued_at=monotime(),
                        resumed=True,
                    )
                )
        finally:
            sink.close()

    # ------------------------------------------------------------ admission --

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                if self.fault_plan is not None:
                    from repro.faults import maybe_inject

                    maybe_inject(
                        self.fault_plan, "serve_accept", qualifier=self.socket_path
                    )
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                if self._stopping.is_set():
                    return
                continue
            except Exception as exc:  # noqa: BLE001 -- injected accept fault
                log.warning("accept failed (%s: %s); continuing", type(exc).__name__, exc)
                continue
            connection = _Connection(conn)
            with self._conn_lock:
                self._connections.append(connection)
            threading.Thread(
                target=self._reader_loop,
                args=(connection,),
                name="repro-serve-reader",
                daemon=True,
            ).start()

    def _reader_loop(self, connection: _Connection) -> None:
        """Read submissions off one connection until its client hangs up."""
        submitted: list[_PendingRequest] = []
        try:
            reader = connection.conn.makefile("r", encoding="utf-8")
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                pending = self._admit(connection, line)
                if pending is not None:
                    # Keep only what a hang-up may still cancel: a finished
                    # request held here would live as long as the
                    # connection.
                    submitted = [
                        earlier for earlier in submitted if not earlier.done.is_set()
                    ]
                    submitted.append(pending)
        except (OSError, ValueError):
            pass
        finally:
            # EOF (or a broken read): the client is gone.  Whatever it
            # submitted and has not finished is cancelled, not leaked.
            for pending in submitted:
                if not pending.done.is_set():
                    pending.disconnected.set()
            connection.close()
            with self._conn_lock:
                if connection in self._connections:
                    self._connections.remove(connection)

    def _admit(self, connection: _Connection, line: str) -> _PendingRequest | None:
        """Parse + admission-control one submission; returns it if accepted."""
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self._safe_write(connection, rejected_record(None, f"bad request: {exc}"))
            with self._stats_lock:
                self.stats.serve_rejections += 1
            return None
        if self._draining.is_set():
            self._safe_write(connection, rejected_record(request.id, "draining"))
            with self._stats_lock:
                self.stats.serve_rejections += 1
            return None
        pending = _PendingRequest(
            request=request, sink=connection, enqueued_at=monotime()
        )
        # Journal *before* the queue: the executor can pop and finish an
        # offered request at any moment, and its 'done' event must land
        # after the 'accepted' one -- and before the client is acknowledged,
        # so a crash cannot lose a request the client saw accepted.
        self.journal.record_accepted(request)
        if not self.queue.offer(pending):
            # Never admitted: compensate so the journal does not resume it.
            self.journal.record_done(request.id)
            self._safe_write(connection, rejected_record(request.id, "queue full"))
            with self._stats_lock:
                self.stats.serve_rejections += 1
            return None
        with self._stats_lock:
            self.stats.serve_requests += 1
            high_water = self.queue.high_water_mark()
            if high_water > self.stats.serve_queue_high_water:
                self.stats.serve_queue_high_water = high_water
        self._safe_write(connection, accepted_record(request.id))
        return pending

    @staticmethod
    def _safe_write(sink, record: dict) -> bool:
        try:
            sink.write([record])
            return True
        except _ClientGone:
            return False

    # ------------------------------------------------------------- executor --

    def _executor_loop(self) -> None:
        while True:
            pending = self.queue.pop(ACCEPT_POLL_SECONDS)
            if self._draining.is_set():
                # A popped-but-unserved request stays journaled as accepted,
                # so the restarted daemon re-runs it (checkpointed, not lost).
                return
            if pending is None:
                continue
            self._run_request(pending)
            if self.journal.events_since_checkpoint >= self.checkpoint_every:
                self.journal.checkpoint()

    def _run_request(self, pending: _PendingRequest) -> None:
        request = pending.request
        started = monotime()
        if self.tracer is not None:
            self.tracer.emit_span(
                "queue_wait",
                request.id,
                ts=pending.enqueued_at,
                dur=started - pending.enqueued_at,
                track="aux",
                parent=self.tracer.current_id,
            )
        span = (
            self.tracer.span(
                "request",
                name=request.id,
                benchmarks=len(request.benchmarks),
                resumed=pending.resumed,
            )
            if self.tracer is not None
            else nullcontext()
        )
        with span:
            status, reports = run_request(
                self.engine,
                request,
                lambda records: self._stream_records(pending, records),
                enqueued_at=pending.enqueued_at,
                config=self.config,
                disconnected=pending.disconnected,
                request_timeout=self.request_timeout,
            )
        with self._stats_lock:
            for report in reports:
                self.stats.merge(report.cache)
            if status == "deadline_expired":
                self.stats.serve_deadline_expiries += 1
            elif status == "cancelled":
                self.stats.serve_client_disconnects += 1
            counters = serve_counters(self.stats)
        self._safe_write(
            pending.sink,
            done_record(
                request.id,
                status,
                jobs=len(reports),
                counters=counters,
                seconds=monotime() - started,
            ),
        )
        pending.done.set()
        self.journal.record_done(request.id)

    def _stream_records(self, pending: _PendingRequest, records: list[dict]) -> None:
        """Write response records; a failed write cancels the request."""
        try:
            pending.sink.write(
                records, fault_plan=self.fault_plan, request_id=pending.request.id
            )
        except _ClientGone:
            pending.disconnected.set()

    # ---------------------------------------------------------------- drain --

    def _drain(self) -> None:
        """Stop admitting, checkpoint the backlog, flush -- then exit 0."""
        drain_started = monotime()
        remaining = self.queue.close()
        # Already journaled as accepted; the checkpoint compacts them into
        # the journal a restarted daemon resumes from.
        self.journal.checkpoint()
        log.info(
            "drained: %d queued request(s) checkpointed for resume", len(remaining)
        )
        if self.tracer is not None:
            self.tracer.emit_span(
                "drain",
                self.socket_path,
                ts=drain_started,
                dur=monotime() - drain_started,
                track="aux",
                parent=self.tracer.current_id,
                checkpointed=len(remaining),
            )


# ------------------------------------------------------------------ runner --


def run_request(
    engine: InferenceEngine,
    request: ServeRequest,
    write: Callable[[list[dict]], None],
    *,
    enqueued_at: float,
    config: SlingConfig | None = None,
    disconnected: threading.Event | None = None,
    request_timeout: float | None = None,
) -> tuple[str, list[EngineReport]]:
    """Run one request's jobs, ``write``-ing each job's records, in one
    call, as the job finalizes; returns ``(status, reports)``.

    The one request runner: the daemon's executor and the in-process
    fallback (:func:`repro.serve.client.run_local`) both serve through it,
    so the two emit the same ``result`` and ``job`` records under the same
    status rules.  ``config`` is every job's :class:`SlingConfig` (``None``:
    the engine's default).  The ``deadline`` counts from ``enqueued_at``;
    a request already past it runs nothing and reports every benchmark as
    ``cancelled: deadline``.  Each job is stamped with the budget left when
    it starts, capped by ``request_timeout``.  ``disconnected`` is polled as
    a cancel reason: the daemon sets it when the client hangs up, or in
    ``write`` when a record cannot be delivered.
    """
    if disconnected is None:
        disconnected = threading.Event()
    deadline_at = enqueued_at + request.deadline if request.deadline is not None else None
    if deadline_at is not None and monotime() >= deadline_at:
        # Expired while queued: nothing runs, every job is reported.
        write(
            [
                {
                    "type": "job",
                    "id": request.id,
                    "benchmark": name,
                    "ok": False,
                    "error": "cancelled: deadline",
                }
                for name in request.benchmarks
            ]
        )
        return "deadline_expired", []

    def cancel() -> str | None:
        if disconnected.is_set():
            return "client disconnected"
        if deadline_at is not None and monotime() > deadline_at:
            return "deadline"
        return None

    def on_report(index: int, report: EngineReport) -> None:
        write(records_for_report(request.id, report))

    reports = engine.run(
        [
            EngineJob(kind="spec", benchmark=name, seed=request.seed, config=config)
            for name in request.benchmarks
        ],
        on_report=on_report,
        cancel=cancel,
        timeout_for=lambda job: remaining_budget(deadline_at, request_timeout),
    )

    errors = [report.error or "" for report in reports if not report.ok]
    if disconnected.is_set() or any(
        error.startswith("cancelled: client disconnected") for error in errors
    ):
        return "cancelled", reports
    if deadline_at is not None and (
        monotime() > deadline_at
        or any(error.startswith("cancelled: deadline") for error in errors)
        or any(report.timed_out for report in reports)
    ):
        return "deadline_expired", reports
    return "complete", reports


def serve_counters(stats: CacheStats) -> dict:
    """The ``serve_*`` counters of ``stats``: a ``done`` record's counters."""
    return {key: value for key, value in stats.as_dict().items() if key.startswith("serve_")}
