"""Structured tracing: NDJSON span streams and their analysis.

The subsystem has three layers (see ``docs/observability.md``):

* :mod:`repro.telemetry.tracer` -- the process-local :class:`Tracer`
  (hierarchical spans, monotonic timing) and the picklable
  :class:`Telemetry` handle threaded through ``SlingConfig``; also exports
  :data:`monotime`, the sanctioned monotonic clock for product timings.
* :mod:`repro.telemetry.records` -- the versioned NDJSON record schema and
  its reader/validator.
* :mod:`repro.telemetry.analyze` -- per-phase summaries, Chrome trace-event
  export and trace diffs, backing the ``repro trace`` CLI.

Next to them, :mod:`repro.telemetry.counters` declares every work counter
once (``CacheStats``); the checker, the driver and the engine all count
into instances of it.

The default everywhere is ``telemetry=None``: no tracer exists, every
instrumented call site short-circuits on an ``is None`` check, and no code
path differs from an untraced build -- the same gating discipline as every
other ``SlingConfig`` knob.
"""

from repro.telemetry.analyze import (
    diff_summaries,
    hottest,
    phase_summary,
    self_times,
    to_chrome,
)
from repro.telemetry.records import (
    SPAN_KINDS,
    TRACE_SCHEMA_VERSION,
    TraceError,
    read_trace,
    span_records,
    validate_record,
)
from repro.telemetry.tracer import Span, Telemetry, Tracer, monotime

__all__ = [
    "SPAN_KINDS",
    "TRACE_SCHEMA_VERSION",
    "Span",
    "Telemetry",
    "TraceError",
    "Tracer",
    "diff_summaries",
    "hottest",
    "monotime",
    "phase_summary",
    "read_trace",
    "self_times",
    "span_records",
    "to_chrome",
    "validate_record",
]
