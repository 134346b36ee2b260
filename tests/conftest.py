"""Shared fixtures for the test suite."""

from __future__ import annotations

import io
import os
import random
import threading
import time

import pytest

from repro.datagen import make_dll
from repro.lang import Function, If, Label, Program, Return, Store, standard_structs
from repro.lang.ast import Assign
from repro.lang.builder import call, field, is_null, not_null, v
from repro.serve.client import run_local
from repro.serve.daemon import ServeDaemon
from repro.sl.checker import ModelChecker
from repro.sl.model import Heap, HeapCell, StackHeapModel
from repro.sl.stdpreds import standard_predicates


@pytest.fixture(scope="session")
def predicates():
    """The full standard predicate library."""
    return standard_predicates()


@pytest.fixture(scope="session")
def checker(predicates):
    """A model checker over the standard predicates."""
    return ModelChecker(predicates)


@pytest.fixture(scope="session")
def structs():
    """The standard structure registry."""
    return standard_structs()


@pytest.fixture()
def rng():
    """A deterministic RNG for data generation."""
    return random.Random(12345)


def dll_model(size: int, extra_stack: dict[str, int] | None = None) -> StackHeapModel:
    """A doubly-linked list model with addresses 1..size and stack ``{"x": 1}``."""
    cells = {}
    for index in range(1, size + 1):
        cells[index] = HeapCell(
            "DllNode",
            {"next": index + 1 if index < size else 0, "prev": index - 1},
        )
    stack = {"x": 1 if size else 0}
    if extra_stack:
        stack.update(extra_stack)
    types = {name: "DllNode*" for name in stack}
    return StackHeapModel(stack, Heap(cells), types)


def sll_model(size: int, var: str = "x") -> StackHeapModel:
    """A singly-linked list model with addresses 1..size."""
    cells = {
        index: HeapCell("SllNode", {"next": index + 1 if index < size else 0})
        for index in range(1, size + 1)
    }
    return StackHeapModel({var: 1 if size else 0}, Heap(cells), {var: "SllNode*"})


class CreatesFileOnUnpickle:
    """The shape of a crafted pickle: unpickling it runs ``open(path, "w")``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


@pytest.fixture(scope="session")
def concat_program(structs):
    """The paper's Figure 1 ``concat`` function as a heaplang program."""
    concat = Function(
        "concat",
        [("x", "DllNode*"), ("y", "DllNode*")],
        "DllNode*",
        [
            Label("L1"),
            If(
                is_null("x"),
                [Label("L2"), Return(v("y"))],
                [
                    Assign("tmp", call("concat", field("x", "next"), v("y"))),
                    Store(v("x"), "next", v("tmp")),
                    If(not_null("tmp"), [Store(v("tmp"), "prev", v("x"))]),
                    Label("L3"),
                    Return(v("x")),
                ],
            ),
        ],
    )
    return Program(structs, [concat])


@pytest.fixture()
def concat_tests(rng):
    """Test inputs for ``concat``: two dlls, an empty first list, an empty second."""
    return [
        lambda heap: [make_dll(heap, rng, 3), make_dll(heap, rng, 2)],
        lambda heap: [0, make_dll(heap, rng, 2)],
        lambda heap: [make_dll(heap, rng, 1), 0],
    ]


#: Generous bound on any single wait of the serve tests.
SERVE_WAIT = 30.0


class DaemonHost:
    """A ``ServeDaemon`` served from a background thread on a real socket.

    The constructor returns once the socket is bound; :meth:`stop` drains
    the daemon and asserts that it exited 0.
    """

    def __init__(self, socket_path: str, **kwargs):
        self.socket_path = socket_path
        self.daemon = ServeDaemon(socket_path, **kwargs)
        self.exit_code = None
        self.stopped = False

        def host():
            self.exit_code = self.daemon.serve(install_signals=False)

        self.thread = threading.Thread(target=host, daemon=True)
        self.thread.start()
        deadline = time.monotonic() + SERVE_WAIT
        while not os.path.exists(socket_path):
            assert time.monotonic() < deadline, "daemon never bound its socket"
            time.sleep(0.02)

    def counters(self) -> dict:
        """The daemon's counters, read under its stats lock."""
        with self.daemon._stats_lock:
            return self.daemon.stats.as_dict()

    def stop(self) -> None:
        if self.stopped:
            return
        self.stopped = True
        self.daemon.stop()
        self.thread.join(timeout=SERVE_WAIT)
        assert not self.thread.is_alive(), "daemon did not drain"
        assert self.exit_code == 0, f"daemon drain exited {self.exit_code}, not 0"


@pytest.fixture()
def serve_daemon(tmp_path):
    """Start thread-hosted daemons: ``serve_daemon(**ServeDaemon kwargs)``.

    Every daemon the test did not stop itself is stopped at teardown, which
    asserts that it drained with exit 0.
    """
    hosts: list[DaemonHost] = []

    def start(**kwargs) -> DaemonHost:
        host = DaemonHost(str(tmp_path / f"serve{len(hosts)}.sock"), **kwargs)
        hosts.append(host)
        return host

    yield start
    for host in hosts:
        host.stop()


def served_payload(lines) -> list[str]:
    """The ``result`` and ``job`` records of a serve stream: what must be
    bit-identical between a daemon and an in-process run."""
    return [
        line for line in lines if '"type":"result"' in line or '"type":"job"' in line
    ]


def reference_payload(request) -> list[str]:
    """The payload records of ``request`` computed in-process."""
    out = io.StringIO()
    run_local(request, out, jobs=1)
    return served_payload(out.getvalue().splitlines())
