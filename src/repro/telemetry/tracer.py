"""The tracer: hierarchical spans over NDJSON, multiprocessing-safe.

Two classes split the job along the process boundary:

* :class:`Telemetry` is the *configuration* handle threaded through
  :class:`~repro.core.sling.SlingConfig`: picklable (it carries only the
  trace path and the origin pid), fork-friendly, and the factory for the
  per-process :class:`Tracer`.  The origin process writes the trace file
  itself; any other process (a forked engine worker) writes a per-pid
  segment file ``<path>.seg-<pid>`` that :meth:`Telemetry.merge_segments`
  folds back into the main file after the pool joins, re-parenting the
  workers' root spans under the origin's currently open span.
* :class:`Tracer` is process-local: a span stack, a monotonically increasing
  sequence number for span ids (``"<pid>:<seq>"``), and a line-buffered
  NDJSON writer.  Every record is flushed as soon as it is written, so a
  ``fork()`` never duplicates buffered records into child processes and
  segment files are complete the moment a worker's last job returns.

Timestamps come from :data:`monotime` (= ``time.perf_counter``), the one
sanctioned monotonic clock of this codebase: product code imports it from
here instead of calling ``time.perf_counter()`` directly (``make check``
lints for strays), so every duration in reports and traces is measured on
the same clock.
"""

from __future__ import annotations

import glob
import json
import os
import time
from contextlib import contextmanager

from repro.telemetry.records import TRACE_SCHEMA_VERSION

#: The project-wide monotonic clock.  On Linux ``perf_counter`` is
#: ``CLOCK_MONOTONIC``, which is boot-relative and therefore comparable
#: across the processes of one engine run (the property the Chrome export's
#: shared time axis relies on).
monotime = time.perf_counter


class Span:
    """One open span; closed (and written) by the owning tracer."""

    __slots__ = ("id", "parent", "kind", "name", "track", "start", "attrs")

    def __init__(self, span_id, parent, kind, name, track, start, attrs):
        self.id = span_id
        self.parent = parent
        self.kind = kind
        self.name = name
        self.track = track
        self.start = start
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach attributes (e.g. counter deltas) before the span closes."""
        self.attrs.update(attrs)


class Tracer:
    """Process-local span stack writing one NDJSON file (see module doc)."""

    def __init__(self, path, pid: int | None = None, fresh: bool = True):
        self.path = str(path)
        self.pid = os.getpid() if pid is None else pid
        self._seq = 0
        self._stack: list[Span] = []
        self._file = open(self.path, "w" if fresh else "a", encoding="utf-8")
        self.write_record(
            {
                "type": "trace_meta",
                "version": TRACE_SCHEMA_VERSION,
                "pid": self.pid,
                "clock": "perf_counter",
                "unix_time": time.time(),
            }
        )

    # ------------------------------------------------------------- spans --

    @property
    def current_id(self) -> str | None:
        """Id of the innermost open span (``None`` outside any span)."""
        return self._stack[-1].id if self._stack else None

    @contextmanager
    def span(self, kind: str, name: str | None = None, **attrs):
        """Open a child of the current span; closes (and writes) on exit."""
        span = self.begin(kind, name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def begin(self, kind: str, name: str | None = None, **attrs) -> Span:
        span = Span(
            span_id=self._next_id(),
            parent=self.current_id,
            kind=kind,
            name=name,
            track="main",
            start=monotime(),
            attrs=attrs,
        )
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        dur = monotime() - span.start
        # Identity removal instead of a strict pop: a signal (the engine's
        # SIGALRM job timeout) can unwind several spans at once, and the
        # context managers then close them outermost-last.
        try:
            self._stack.remove(span)
        except ValueError:
            pass
        self._write_span(span.id, span.parent, span.kind, span.name, span.track, span.start, dur, span.attrs)

    def emit_span(
        self,
        kind: str,
        name: str | None,
        ts: float,
        dur: float,
        track: str = "aux",
        parent: str | None = None,
        **attrs,
    ) -> None:
        """Write an already-measured span (aggregated side-channel spans).

        Used for time that was accumulated outside the stack discipline --
        the lazily interleaved ``stream_materialize`` pulls -- and therefore
        goes on the ``aux`` track: its duration is already contained in some
        main-track span, so main-track self-times stay additive.
        """
        self._write_span(self._next_id(), parent, kind, name, track, ts, dur, attrs)

    def counters(self, name: str, values: dict) -> None:
        """Write a point-in-time counter snapshot record."""
        self.write_record(
            {
                "type": "counters",
                "name": name,
                "pid": self.pid,
                "ts": monotime(),
                "values": values,
            }
        )

    # ---------------------------------------------------------- plumbing --

    def _next_id(self) -> str:
        span_id = f"{self.pid}:{self._seq}"
        self._seq += 1
        return span_id

    def _write_span(self, span_id, parent, kind, name, track, ts, dur, attrs) -> None:
        record = {
            "type": "span",
            "id": span_id,
            "parent": parent,
            "kind": kind,
            "name": name,
            "ts": round(ts, 9),
            "dur": round(dur, 9),
            "pid": self.pid,
            "track": track,
        }
        if attrs:
            record["attrs"] = attrs
        self.write_record(record)

    def write_record(self, record: dict) -> None:
        """Append one record and flush (fork-safety: no buffered lines)."""
        self._file.write(json.dumps(record, default=str) + "\n")
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


#: This process's segment tracers, keyed by segment path (which names the
#: pid).  Every pool job unpickles a fresh :class:`Telemetry`, so a tracer
#: cached on the handle would be rebuilt -- and the segment reopened and
#: truncated -- per job; sharing one per process keeps a single file handle
#: and span sequence per worker segment, so a worker that runs several jobs
#: keeps its earlier jobs' records and never reuses their span ids.
_SEGMENT_TRACERS: dict[str, Tracer] = {}


class Telemetry:
    """Picklable tracing handle for :class:`~repro.core.sling.SlingConfig`.

    Holds only the trace path and the pid of the process that created it.
    :meth:`tracer` lazily builds (and caches) the process-local
    :class:`Tracer` -- the origin pid writes ``path`` itself, every other
    pid writes the segment file ``<path>.seg-<pid>`` for the engine to
    merge.  Pickling (and ``fork``) drops the cached tracer, so a worker
    that inherited or unpickled this handle always uses its own segment,
    through the process-level tracer for that segment.
    """

    def __init__(self, path):
        self.path = str(path)
        self.origin_pid = os.getpid()
        self._tracer: Tracer | None = None

    def __getstate__(self):
        return {"path": self.path, "origin_pid": self.origin_pid}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._tracer = None

    def tracer(self) -> Tracer:
        """The calling process's tracer (created on first use)."""
        pid = os.getpid()
        tracer = self._tracer
        if tracer is None or tracer.pid != pid:
            if pid == self.origin_pid:
                tracer = Tracer(self.path, pid=pid)
            else:
                segment = self.segment_path(pid)
                tracer = _SEGMENT_TRACERS.get(segment)
                if tracer is None:
                    tracer = _SEGMENT_TRACERS[segment] = Tracer(segment, pid=pid)
            self._tracer = tracer
        return tracer

    def segment_path(self, pid: int) -> str:
        return f"{self.path}.seg-{pid}"

    def segment_paths(self) -> list[str]:
        return sorted(glob.glob(f"{self.path}.seg-*"))

    def merge_segments(self) -> int:
        """Fold worker segment files into the main trace file.

        Called by the engine after a pool joins.  Every segment record is
        appended to the main file except the segment's ``trace_meta``; the
        workers' *root* spans (``parent: null`` -- their job spans) are
        re-parented under the origin tracer's currently open span, which at
        engine merge time is the sweep span.  Segment files are deleted
        afterwards, so a later pool of the same run starts clean.  Returns
        the number of records merged.  No-op outside the origin process.
        """
        if os.getpid() != self.origin_pid:
            return 0
        segments = self.segment_paths()
        if not segments:
            return 0
        tracer = self.tracer()
        parent_id = tracer.current_id
        merged = 0
        for segment in segments:
            with open(segment, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    if record.get("type") == "trace_meta":
                        continue
                    if record.get("type") == "span" and record.get("parent") is None:
                        record["parent"] = parent_id
                    tracer.write_record(record)
                    merged += 1
            os.remove(segment)
        return merged

    def close(self) -> None:
        """Close this process's tracer (if one was ever created)."""
        if self._tracer is not None:
            self._tracer.close()
            self._tracer = None
