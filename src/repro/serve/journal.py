"""Crash-safe journal of accepted-but-unfinished requests.

The daemon appends one NDJSON event per lifecycle transition -- ``accepted``
when a request passes admission control (before the client is told), and
``done`` when its terminal record has been written.  An ``accepted`` line
is flushed and fsynced, so no request a client saw accepted is lost to any
crash.  A ``done`` line is only flushed: it survives the daemon's own
crash, and a power cut can lose it only until the next ``accepted`` fsync
(or checkpoint) makes the file durable.  A lost ``done`` makes a restart
re-run a finished request, which is harmless: a restarted daemon replays
:meth:`RequestJournal.unfinished` before accepting new work, and inference
is deterministic per (benchmark, seed, config), so the re-run produces
bit-identical results to what the crashed run would have delivered.
Keeping the fsync off the ``done`` path, and outside the lock ``done``
takes, keeps the disk's latency, which other processes on the host move,
out of the executor's request loop.

Periodically the journal is *checkpointed*: compacted down to just the
still-unfinished ``accepted`` events, written to a sibling temp file and
atomically ``os.replace``d over the journal.  The journal keeps those
events in memory, so a checkpoint writes them without reading the file
back.  A failed checkpoint (disk full, or the ``serve_checkpoint`` fault
site firing) leaves the uncompacted journal in place -- larger, never less
correct.  A torn final line (the crash happened mid-append) is ignored on
load; everything before it is intact by the flush-then-fsync ordering.
"""

from __future__ import annotations

import json
import logging
import os
import threading

from repro.serve.protocol import ServeRequest

log = logging.getLogger("repro.serve")


class RequestJournal:
    """Append-only request journal with atomic checkpoint compaction.

    Appends come from the daemon's reader threads while checkpoints (which
    close and reopen the file) run on the executor thread, so every file
    operation but the admission fsync, and the in-memory pending set, holds
    one reentrant lock -- reentrant because the ``record_*`` methods hold it
    around ``_append``.
    """

    def __init__(self, path, fault_plan=None):
        self.path = os.fspath(path)
        self.fault_plan = fault_plan
        #: Events appended since the last checkpoint (compaction cadence).
        self.events_since_checkpoint = 0
        self._lock = threading.RLock()
        directory = os.path.dirname(os.path.abspath(self.path))
        if directory:
            os.makedirs(directory, exist_ok=True)
        #: Accepted-without-done requests by id, in admission order: what
        #: the file says, kept in step by every append (a checkpoint's
        #: content).
        self._pending = {request.id: request for request in self.unfinished()}
        self._file = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------- append --

    def _append(self, event: dict) -> None:
        with self._lock:
            self._file.write(json.dumps(event, sort_keys=True) + "\n")
            self._file.flush()
            self.events_since_checkpoint += 1

    def record_accepted(self, request: ServeRequest) -> None:
        """Journal an admission; durable before the client sees 'accepted'.

        The fsync runs outside the lock, on a duplicate of the file's
        descriptor, so the executor's ``record_done`` never waits for the
        disk.  A checkpoint that replaces the file meanwhile writes this
        request into the new file and fsyncs that itself.
        """
        with self._lock:
            self._append({"event": "accepted", "request": request.as_dict()})
            self._pending[request.id] = request
            descriptor = os.dup(self._file.fileno())
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)

    def record_done(self, request_id: str) -> None:
        """Journal a terminal record; the request will not be resumed.

        Flushed, not fsynced (see the module docstring): losing it to a
        power cut only re-runs a finished request.
        """
        with self._lock:
            self._append({"event": "done", "id": request_id})
            self._pending.pop(request_id, None)

    # --------------------------------------------------------- checkpoint --

    def checkpoint(self) -> bool:
        """Compact to the still-unfinished requests; atomic, best-effort.

        Returns whether the compaction happened.  Any failure (including an
        injected ``serve_checkpoint`` fault) is absorbed: the uncompacted
        journal keeps every event, so resume stays correct either way.
        """
        with self._lock:
            pending = list(self._pending.values())
            temp_path = self.path + ".tmp"
            try:
                if self.fault_plan is not None:
                    from repro.faults import maybe_inject

                    maybe_inject(self.fault_plan, "serve_checkpoint", qualifier=self.path)
                with open(temp_path, "w", encoding="utf-8") as handle:
                    for request in pending:
                        handle.write(
                            json.dumps(
                                {"event": "accepted", "request": request.as_dict()},
                                sort_keys=True,
                            )
                            + "\n"
                        )
                    handle.flush()
                    os.fsync(handle.fileno())
                self._file.close()
                os.replace(temp_path, self.path)
                self._file = open(self.path, "a", encoding="utf-8")
                self.events_since_checkpoint = 0
                return True
            except Exception as exc:  # noqa: BLE001 -- journal must never raise
                log.warning(
                    "request journal %s: checkpoint failed (%s: %s); keeping the "
                    "uncompacted journal",
                    self.path,
                    type(exc).__name__,
                    exc,
                )
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                if self._file.closed:
                    self._file = open(self.path, "a", encoding="utf-8")
                return False

    # --------------------------------------------------------------- load --

    def unfinished(self) -> list[ServeRequest]:
        """Accepted-without-done requests, in admission order.

        Tolerates a torn final line (crash mid-append) and skips anything
        undecodable with a warning -- a damaged journal line costs at most
        one lost resume, never a daemon that refuses to start.
        """
        pending: dict[str, ServeRequest] = {}
        try:
            with self._lock, open(self.path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except FileNotFoundError:
            return []
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
                if event["event"] == "accepted":
                    data = event["request"]
                    request = ServeRequest(
                        id=data["id"],
                        benchmarks=tuple(data["benchmarks"]),
                        seed=data["seed"],
                        deadline=data["deadline"],
                    )
                    pending[request.id] = request
                elif event["event"] == "done":
                    pending.pop(event["id"], None)
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                if number == len(lines):
                    log.info(
                        "request journal %s: ignoring torn final line", self.path
                    )
                else:
                    log.warning(
                        "request journal %s:%d: undecodable event (%s); skipped",
                        self.path,
                        number,
                        exc,
                    )
        return list(pending.values())

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()
