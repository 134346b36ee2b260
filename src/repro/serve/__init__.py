"""The resilient inference service: ``repro serve`` and its client.

* :mod:`repro.serve.protocol` -- the NDJSON request/response schema shared
  by daemon and client (one record constructor set, hence bit-identical
  streams).
* :mod:`repro.serve.journal` -- the crash-safe journal of accepted-but-
  unfinished requests behind resume.
* :mod:`repro.serve.daemon` -- the daemon: bounded admission, deadlines,
  graceful drain, client-disconnect cancellation.
* :mod:`repro.serve.client` -- ``repro infer --connect`` and the
  in-process fallback that emits the identical record stream.

The daemon's resilience drills (queue overflow, deadline expiry, client
disconnect, SIGTERM drain and restart-resume) are tests under
``tests/serve/``.  See ``docs/serving.md`` for the protocol and lifecycle
contract.
"""

from repro.serve.daemon import AdmissionQueue, ServeDaemon
from repro.serve.journal import RequestJournal
from repro.serve.protocol import (
    DONE_STATUSES,
    SERVE_PROTOCOL_VERSION,
    SERVE_RECORD_TYPES,
    ProtocolError,
    ServeRequest,
    parse_request,
    records_for_report,
)

__all__ = [
    "DONE_STATUSES",
    "SERVE_PROTOCOL_VERSION",
    "SERVE_RECORD_TYPES",
    "AdmissionQueue",
    "ProtocolError",
    "RequestJournal",
    "ServeDaemon",
    "ServeRequest",
    "parse_request",
    "records_for_report",
]
