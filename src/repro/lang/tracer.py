"""Trace collection: breakpoints, snapshots and the ``CollectModels`` phase.

The paper drives the program under LLDB, sets breakpoints at the locations of
interest and snapshots the stack and the reachable heap whenever a breakpoint
is hit.  :class:`Tracer` plays that role for heaplang: it observes the
interpreter, converts the current frame and heap into a
:class:`~repro.sl.model.StackHeapModel` and groups the snapshots by location.

A snapshot contains

* the values of all in-scope variables (parameters and assigned locals),
* the ghost variable ``res`` at return locations,
* every heap cell reachable from a pointer-valued stack variable -- including
  cells that have already been ``free``d (the debugger still sees their
  contents; the model records them in ``freed_addresses`` so the evaluation
  can classify downstream invariants as spurious, as Table 1 does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.lang.ast import Function, Program
from repro.lang.errors import HeapLangError
from repro.lang.heap import RuntimeHeap
from repro.lang.interp import Frame, Interpreter
from repro.lang.types import StructDef
from repro.sl.model import Heap, HeapCell, StackHeapModel

#: A test case builds its input data structures inside a fresh runtime heap
#: and returns the argument values for the function under analysis.
TestCase = Callable[[RuntimeHeap], Sequence[int]]


@dataclass(frozen=True)
class Location:
    """A program location: a function name plus a location name within it."""

    function: str
    name: str

    def __str__(self) -> str:
        return f"{self.function}:{self.name}"

    @staticmethod
    def parse(text: str) -> "Location":
        """Parse ``"function:location"`` back into a :class:`Location`."""
        function, _, name = text.partition(":")
        return Location(function, name)


@dataclass(frozen=True)
class TraceEvent:
    """One breakpoint hit: the location and the captured stack-heap model."""

    location: Location
    model: StackHeapModel


@dataclass
class RunOutcome:
    """What happened when one test case was executed."""

    crashed: bool = False
    timed_out: bool = False
    error: str | None = None
    result: int | None = None
    #: The interpreter's step count when the run ended.
    steps: int = 0


class Tracer:
    """Observes the interpreter and captures stack-heap models at breakpoints."""

    def __init__(
        self,
        structs,
        breakpoints: Iterable[Location] | None = None,
        max_events: int = 10_000,
        snapshots: bool = True,
    ):
        self.structs = structs
        self.breakpoints = set(breakpoints) if breakpoints is not None else None
        self.max_events = max_events
        #: ``False`` only counts the hits (see :func:`count_models`).
        self.snapshots = snapshots
        #: Breakpoint hits that passed the filter and the event cap.
        self.hits = 0
        self.events: list[TraceEvent] = []
        #: Struct name -> :func:`_layout`, built once per type.
        self._layouts: dict[str, tuple] = {}
        #: ``(function name, location name)`` -> its :class:`Location`.
        self._places: dict[tuple[str, str], Location] = {}

    # -- observer interface -----------------------------------------------------

    def on_location(
        self,
        function: Function,
        location: str,
        frame: Frame,
        heap: RuntimeHeap,
        result: int | None = None,
    ) -> None:
        """Interpreter callback: count a matching breakpoint hit and, unless
        this tracer only counts, snapshot the state."""
        place = (function.name, location)
        where = self._places.get(place)
        if where is None:
            where = self._places[place] = Location(*place)
        if self.breakpoints is not None and where not in self.breakpoints:
            return
        if self.hits >= self.max_events:
            return
        self.hits += 1
        if self.snapshots:
            self.events.append(TraceEvent(where, self.snapshot(frame, heap, result)))

    # -- snapshotting --------------------------------------------------------------

    def snapshot(
        self, frame: Frame, heap: RuntimeHeap, result: int | None = None
    ) -> StackHeapModel:
        """Convert the current frame and heap into a stack-heap model."""
        stack: dict[str, int] = dict(frame.values)
        var_types: dict[str, str] = dict(frame.types)
        if result is not None:
            stack["res"] = result
            # The result type is unknown here; leave it untyped so the model
            # treats it as a pointer when it holds an address.
        # Untyped variables count as pointers.
        roots = [
            value
            for name, value in stack.items()
            if value != 0 and (name == "res" or var_types.get(name, "*").endswith("*"))
        ]
        # The heap keeps the iteration order of ``reachable``: location keys
        # digest cells in insertion order.  A cell unwritten since an earlier
        # snapshot of this run is that snapshot's (immutable) cell.
        reachable = heap.reachable(roots, include_freed=True)
        kept = heap.snapshot_cells
        layouts = self._layouts
        cells: dict[int, HeapCell] = {}
        for address in reachable:
            cell = kept.get(address)
            if cell is None:
                type_name, values = heap.peek(address)
                layout = layouts.get(type_name)
                if layout is None:
                    layout = layouts[type_name] = _layout(self.structs.get(type_name))
                names, read = layout
                cell = kept[address] = HeapCell.from_layout(type_name, names, read(values))
            cells[address] = cell
        freed = heap.freed_among(reachable)
        return StackHeapModel(stack, Heap(cells), var_types, freed)

    # -- grouping -------------------------------------------------------------------

    def models_at(self, location: Location) -> list[StackHeapModel]:
        """All captured models at the given location, in capture order."""
        return [event.model for event in self.events if event.location == location]


def _layout(struct: StructDef) -> tuple[tuple[str, ...], Callable[[dict], tuple]]:
    """A struct's field names and a reader of a runtime cell's values in
    that order."""
    names = struct.field_names
    if len(names) > 1:
        return names, itemgetter(*names)
    if names:
        (name,) = names
        return names, lambda values: (values[name],)
    return names, lambda values: ()


@dataclass
class TraceCollection:
    """The result of running a test suite under the tracer."""

    events: list[TraceEvent] = field(default_factory=list)
    outcomes: list[RunOutcome] = field(default_factory=list)
    #: Events grouped per test-case run (parallel to ``outcomes``).
    runs: list[list[TraceEvent]] = field(default_factory=list)

    def models_at(self, location: Location) -> list[StackHeapModel]:
        """All models captured at ``location`` across every run."""
        return [event.model for event in self.events if event.location == location]

    def locations(self) -> list[Location]:
        """All locations reached by at least one run, in first-hit order."""
        seen: list[Location] = []
        for event in self.events:
            if event.location not in seen:
                seen.append(event.location)
        return seen

    def total_models(self) -> int:
        """Total number of captured stack-heap models."""
        return len(self.events)

    def crashed_runs(self) -> int:
        """Number of test cases that ended in a runtime error."""
        return sum(1 for outcome in self.outcomes if outcome.crashed)

    def without_crashed_runs(self) -> "TraceCollection":
        """A copy of the collection with the events of crashed runs dropped.

        The paper's LLDB-batch workflow obtained no usable traces from
        crashing programs; this models that by emptying the event list of
        every crashed run (the run slot itself is kept so ``runs`` stays
        parallel to ``outcomes``).  The receiver is left untouched -- the
        result shares the (immutable) events and outcomes but owns its own
        lists.
        """
        kept_runs: list[list[TraceEvent]] = []
        kept_events: list[TraceEvent] = []
        for run, outcome in zip(self.runs, self.outcomes):
            if outcome.crashed:
                kept_runs.append([])
            else:
                kept_runs.append(list(run))
                kept_events.extend(run)
        return TraceCollection(
            events=kept_events, outcomes=list(self.outcomes), runs=kept_runs
        )


def _run_suite(
    program: Program,
    function_name: str,
    test_cases: Sequence[TestCase],
    breakpoints: Iterable[Location] | None,
    snapshots: bool,
) -> Iterator[tuple[Tracer, RunOutcome]]:
    """Run every test case under a fresh tracer; yield ``(tracer, outcome)``.

    Each test case gets a fresh heap; crashes and timeouts are recorded
    (the events captured before the crash are kept, mirroring what a
    debugger session would have seen).
    """
    for test_case in test_cases:
        tracer = Tracer(program.structs, breakpoints, snapshots=snapshots)
        interpreter = Interpreter(program, observer=tracer)
        heap = RuntimeHeap(program.structs)
        outcome = RunOutcome()
        try:
            args = list(test_case(heap))
            outcome.result = interpreter.run(function_name, args, heap)
        except HeapLangError as error:
            outcome.crashed = True
            outcome.timed_out = "steps" in str(error) or "depth" in str(error)
            outcome.error = f"{type(error).__name__}: {error}"
        outcome.steps = interpreter.steps
        yield tracer, outcome


def collect_models(
    program: Program,
    function_name: str,
    test_cases: Sequence[TestCase],
    breakpoints: Iterable[Location] | None = None,
) -> TraceCollection:
    """Run every test case under the tracer and collect stack-heap models.

    This is the ``CollectModels`` step of Algorithm 1 (see
    :func:`_run_suite` for how each test case runs).
    """
    collection = TraceCollection()
    for tracer, outcome in _run_suite(
        program, function_name, test_cases, breakpoints, snapshots=True
    ):
        collection.events.extend(tracer.events)
        collection.runs.append(list(tracer.events))
        collection.outcomes.append(outcome)
    return collection


def count_models(
    program: Program,
    function_name: str,
    test_cases: Sequence[TestCase],
    breakpoints: Iterable[Location] | None = None,
    discard_crashed_runs: bool = False,
) -> int:
    """How many models :func:`collect_models` would capture, without them.

    The same suite runs the same way -- same breakpoint filter, same
    per-run event cap, and every test case still builds its inputs, so a
    random generator the cases share advances exactly as under
    :func:`collect_models` -- but a breakpoint hit is only counted, never
    snapshotted.  ``discard_crashed_runs`` drops the hits of crashed runs,
    as :meth:`TraceCollection.without_crashed_runs` does.
    """
    suite = _run_suite(program, function_name, test_cases, breakpoints, snapshots=False)
    return sum(
        tracer.hits
        for tracer, outcome in suite
        if not (discard_crashed_runs and outcome.crashed)
    )
