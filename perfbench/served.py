"""``repro serve`` with the benchmark's per-layer wrappers installed.

Run by ``run.py`` in place of ``python -m repro serve`` for the traced
``serve-warm`` run::

    python3 perfbench/served.py --marks DIR -- --socket S --cache-file C ...

Everything after ``--`` goes to ``repro serve`` unchanged.  The accounting
window is bounded by two ``SIGUSR1`` marks from the load generator.  A mark
is taken on the executor thread, at its next admission-queue poll with no
wrapped call open on any thread, so no call straddles a window edge.  The
first mark clears the ledgers (dropping the cold cache-writing pass); the
second writes ``DIR/window.json`` with the window's books and the daemon's
counter deltas.  The marks are acknowledged as ``DIR/mark-<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro import cli  # noqa: E402
from repro.serve import daemon as serve_daemon  # noqa: E402
from repro.telemetry import monotime  # noqa: E402

import layers  # noqa: E402


def write_atomically(path: str, document: dict) -> None:
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(temporary, path)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--marks", required=True, help="directory for mark acknowledgements")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    arguments = parser.parse_args()
    serve_args = [arg for arg in arguments.serve_args if arg != "--"]

    clock = layers.LayerClock()
    layers.install(clock)
    daemons = []
    init = serve_daemon.ServeDaemon.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        daemons.append(self)

    serve_daemon.ServeDaemon.__init__ = capture

    requested = []  # SIGUSR1 deliveries not yet served
    taken = []  # (monotime, serve counters) per mark

    def counters() -> dict:
        with daemons[0]._stats_lock:
            return dict(daemons[0].stats.as_dict())

    pop = serve_daemon.AdmissionQueue.pop

    def pop_with_marks(queue, timeout):
        if len(taken) < len(requested) and clock.idle():
            now = monotime()
            taken.append((now, counters()))
            if len(taken) == 1:
                clock.reset()
            else:
                (start, before), (end, after) = taken[0], taken[1]
                window = {
                    "start": start,
                    "end": end,
                    "counters": {key: after[key] - before[key] for key in after},
                }
                try:
                    window["books"] = layers.account(clock.timelines(), end - start)
                except layers.AccountingError as exc:
                    window["error"] = str(exc)
                write_atomically(os.path.join(arguments.marks, "window.json"), window)
            write_atomically(
                os.path.join(arguments.marks, f"mark-{len(taken)}.json"), {"at": now}
            )
        return pop(queue, timeout)

    serve_daemon.AdmissionQueue.pop = pop_with_marks
    signal.signal(signal.SIGUSR1, lambda *_: requested.append(1))
    cli.main(["serve", *serve_args])


if __name__ == "__main__":
    main()
