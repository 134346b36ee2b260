"""Per-layer self time, measured by wrapping each layer's public functions.

The benchmark never edits the program.  It replaces, in the namespace where
the caller looks it up, each public entry point of a layer with a timed
wrapper (``repro.core.sling.split_heap``, ``ModelChecker.check_batch``, ...).
A wrapper's *self time* is its call's duration minus the duration of the
wrapped calls nested inside it on the same thread, so self times of one
thread telescope to the time covered by its outermost wrapped calls.

Nothing is written per call: every thread keeps a ledger of per-layer call
counts and self-time sums, plus the time its outermost calls covered.  A
forked engine worker starts a fresh ledger and appends it, as one JSON line
under its own pid, to a segment directory when the worker returns; the
parent merges the segments after the sweep.  Segments are opened for append
and never truncated, so a worker that runs many jobs (more jobs than
workers) keeps every job.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading

from repro.telemetry import monotime

#: ``(layer, owner, attribute names)``.  ``owner`` is a module, or
#: ``module:Class`` for methods.  A module-level name is patched in the
#: module that *calls* it, because that is where the name is looked up.
LAYERS = (
    ("lang.tracer", "repro.core.sling", ("collect_models",)),
    ("core.boundary", "repro.core.sling", ("split_heap",)),
    ("core.infer_atom", "repro.core.sling", ("infer_atoms",)),
    ("sl.screen", "repro.core.infer_atom", ("screen_candidates",)),
    ("sl.checker", "repro.sl.checker:ModelChecker", ("check_batch", "check_all", "check")),
    ("sl.checker.stream", "repro.sl.checker:EnvStream", ("ensure",)),
    # Bound by ModelChecker.__init__, so it must be patched before a
    # checker is built.
    ("sl.kernels", "repro.sl.kernels", ("decide_group",)),
    ("sl.model", "repro.sl.model:StackHeapModel", ("canonical",)),
    ("core.infer_pure", "repro.core.sling", ("infer_pure_equalities",)),
    ("core.validate", "repro.core.sling", ("validate_specification",)),
    ("core.sling", "repro.core.sling:Sling", ("infer_function",)),
    ("cache.tier", "repro.cache.tier:PersistentCache", ("attach", "load_stream", "flush")),
    ("core.engine", "repro.core.engine:InferenceEngine", ("run",)),
    # One call per engine job, inline or in a pool worker: the harness work
    # around inference (inputs, Sling construction, result packaging).
    ("core.engine.job", "repro.core.engine", ("execute_job",)),
    ("serve.protocol", "repro.serve.daemon", ("parse_request", "encode", "records_for_report")),
    (
        "serve.journal",
        "repro.serve.journal:RequestJournal",
        ("record_accepted", "record_done", "checkpoint"),
    ),
    ("serve.queue", "repro.serve.daemon:AdmissionQueue", ("offer", "pop")),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))


class Ledger:
    """One thread's accounting: open-call stack, per-layer sums, coverage."""

    __slots__ = ("stack", "layers", "covered", "counts", "jobs", "waits")

    def __init__(self):
        #: Nested wrapped time of each open call, innermost last.
        self.stack: list[float] = []
        self.clear()

    def clear(self) -> None:
        self.layers: dict[str, list] = {}  # layer -> [calls, self seconds]
        self.covered = 0.0
        self.counts: dict[str, float] = {}
        self.jobs: list[list] = []  # [benchmark, start, duration]
        self.waits: list[float] = []

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def as_dict(self) -> dict:
        return {
            "layers": self.layers,
            "covered": self.covered,
            "counts": self.counts,
            "jobs": self.jobs,
            "waits": self.waits,
        }


class LayerClock:
    """The per-process set of thread ledgers behind every installed wrapper."""

    def __init__(self):
        self._local = threading.local()
        self._ledgers: list[Ledger] = []
        self._lock = threading.Lock()

    def ledger(self) -> Ledger:
        try:
            return self._local.ledger
        except AttributeError:
            ledger = self._local.ledger = Ledger()
            with self._lock:
                self._ledgers.append(ledger)
            return ledger

    def forget_parent(self) -> None:
        """Drop the ledgers a forked child inherited from its parent."""
        self._local = threading.local()
        self._ledgers = []
        self._lock = threading.Lock()

    def idle(self) -> bool:
        """No wrapped call is open on any thread."""
        with self._lock:
            return not any(ledger.stack for ledger in self._ledgers)

    def reset(self) -> None:
        """Start a new accounting window (call only while :meth:`idle`)."""
        with self._lock:
            for ledger in self._ledgers:
                ledger.clear()

    def timelines(self) -> list[dict]:
        """Every thread ledger that recorded a call, as plain data."""
        with self._lock:
            return [ledger.as_dict() for ledger in self._ledgers if ledger.layers]

    def append_segment(self, directory: str) -> None:
        """Append this process's timelines to its own per-pid segment file."""
        record = {"pid": os.getpid(), "timelines": self.timelines()}
        path = os.path.join(directory, f"segment-{os.getpid()}.ndjson")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")


def timed(clock: LayerClock, layer: str, function, after=None):
    """``function`` wrapped to charge its self time to ``layer``.

    ``after(ledger, result, args, start, end)`` runs once the call has been
    charged, for counters read off the call's arguments or result.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        ledger = clock.ledger()
        stack = ledger.stack
        stack.append(0.0)
        start = monotime()
        try:
            result = function(*args, **kwargs)
        finally:
            end = monotime()
            duration = end - start
            nested = stack.pop()
            entry = ledger.layers.get(layer)
            if entry is None:
                entry = ledger.layers[layer] = [0, 0.0]
            entry[0] += 1
            entry[1] += duration - nested
            if stack:
                stack[-1] += duration
            else:
                ledger.covered += duration
        if after is not None:
            after(ledger, result, args, start, end)
        return result

    return wrapper


def _owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _count_models(ledger, result, args, start, end) -> None:
    ledger.count("lang.tracer.models", result.total_models())


def _record_job(ledger, result, args, start, end) -> None:
    ledger.jobs.append([args[0].benchmark, start, end - start])


def install(clock: LayerClock, segment_dir: str | None = None) -> None:
    """Wrap every layer of :data:`LAYERS`; call before any checker is built.

    With ``segment_dir`` set, forked engine workers start with fresh ledgers
    and append them to ``segment_dir`` when they return.
    """
    enqueued: dict[int, float] = {}

    def offered(ledger, accepted, args, start, end) -> None:
        if accepted:
            enqueued[id(args[1])] = end
        else:
            ledger.count("serve.queue.rejections")

    def popped(ledger, item, args, start, end) -> None:
        if item is not None:
            offered_at = enqueued.pop(id(item), None)
            if offered_at is not None:
                ledger.waits.append(end - offered_at)

    hooks = {
        "collect_models": _count_models,
        "execute_job": _record_job,
        "offer": offered,
        "pop": popped,
    }
    for layer, owner_spec, names in LAYERS:
        owner = _owner(owner_spec)
        for name in names:
            setattr(owner, name, timed(clock, layer, getattr(owner, name), hooks.get(name)))

    if segment_dir is not None:
        engine = importlib.import_module("repro.core.engine")
        worker_main = engine._pool_worker_main

        @functools.wraps(worker_main)
        def traced_worker_main(*args, **kwargs):
            clock.forget_parent()
            try:
                worker_main(*args, **kwargs)
            finally:
                clock.append_segment(segment_dir)

        engine._pool_worker_main = traced_worker_main


def read_segments(directory: str) -> list[dict]:
    """Every worker timeline appended under ``directory``."""
    timelines = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("segment-"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                for line in handle:
                    timelines.extend(json.loads(line)["timelines"])
    return timelines


def account(timelines: list[dict], window: float) -> dict:
    """Merge timelines over one accounting window and check the books.

    Every timeline spans the whole window; the part its outermost calls do
    not cover is unattributed.  Raises :class:`AccountingError` when a
    timeline's self times do not add up to its coverage or its coverage
    exceeds the window -- a wrapper that lost a call or leaked time across
    threads.
    """
    layers: dict[str, list] = {name: [0, 0.0] for name in LAYER_NAMES}
    counts: dict[str, float] = {}
    jobs: list[list] = []
    waits: list[float] = []
    unattributed = 0.0
    tolerance = 1e-6 * max(window, 1.0)
    for timeline in timelines:
        self_total = 0.0
        for layer, (calls, self_s) in timeline["layers"].items():
            if self_s < -tolerance:
                raise AccountingError(f"{layer}: negative self time {self_s}")
            layers[layer][0] += calls
            layers[layer][1] += self_s
            self_total += self_s
        covered = timeline["covered"]
        if abs(self_total - covered) > tolerance:
            raise AccountingError(
                f"self times sum to {self_total:.6f}s but outermost calls covered {covered:.6f}s"
            )
        if covered > window + tolerance:
            raise AccountingError(f"a timeline covered {covered:.6f}s of a {window:.6f}s window")
        unattributed += window - covered
        for name, value in timeline["counts"].items():
            counts[name] = counts.get(name, 0) + value
        jobs.extend(timeline["jobs"])
        waits.extend(timeline["waits"])
    attributed = sum(self_s for _, self_s in layers.values())
    books = attributed + unattributed
    expected = window * len(timelines)
    if abs(books - expected) > tolerance * max(len(timelines), 1):
        raise AccountingError(
            f"self times + unattributed = {books:.6f}s, traced wall x timelines = {expected:.6f}s"
        )
    return {
        "layers": layers,
        "counts": counts,
        "jobs": jobs,
        "waits": waits,
        "unattributed_s": unattributed,
        "timelines": len(timelines),
        "window_s": window,
    }


class AccountingError(RuntimeError):
    """The traced run's per-layer books do not balance."""
