"""Skeleton streams: the snapshotted solutions of one skeleton search.

A stream holds every raw leaf of one (spatial skeleton, model) search
(:func:`repro.sl.search.skeleton_leaves`), enumerated once and then shared
by every pure variant that consults it -- within one ``check_batch`` call
and, through a :class:`StreamMemo`, across candidate batches, the jobs of
an engine batch and the requests of a serve daemon (:func:`stream_pool`).

Every stream stores its entries in one coordinate space: the canonical
labeling (:class:`~repro.sl.model.HeapCanon`) of the heap it was generated
from.  Address values appear as tagged pairs ``('a', cid)``, availability
sets as dense canonical ids, and every other value raw.  A consumer reads a
stream through its *own* labeling of the same heap region (the ``view``):
it encodes its concrete query values into canonical space and decodes
environments, availability sets and instantiation values back into its
concrete addresses.  A stream keyed on an exact canonical form is thereby
shared across address-renamed heaps; a stream keyed on a concrete
``(root value, heap)`` is read through the labeling it was written with.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager

from repro.sl.model import HashedKey
from repro.sl.search import CheckBudgetExceeded

#: Entries one skeleton stream holds; a stream cut off here stays
#: incomplete (a safety valve for combinatorial skeletons).
STREAM_MAX_ENTRIES = 4096

#: Upper bound on the streams one memo holds, private or shared by an
#: engine batch (LRU-evicted beyond it).  Above the ~350 streams of the
#: largest benchsuite job, so a memo never evicts inside one job.
_STREAM_MEMO_LIMIT = 512

#: Upper bound on the whole-location results and whole-function
#: specifications one memo holds together (LRU-evicted beyond it).  One
#: seed's 150 benchsuite programs leave 376 locations and 149 functions.
_LOCATION_MEMO_LIMIT = 1024

#: Upper bound on the keys a memo's ``finished`` log holds; beyond it the
#: oldest half is dropped (see :meth:`StreamMemo.log_finished`).  Above
#: the ~4,600 keys one 150-job Table 1 pass logs, so a sweep never trims.
_FINISHED_LOG_LIMIT = 8192


class _StreamEntry:
    """One satisfying leaf of a skeleton search, snapshotted for reuse."""

    __slots__ = ("values", "avail", "nconsumed", "env", "unknowns", "deferred")


class EnvStream:
    """The solutions of one (spatial skeleton, model) search.

    :meth:`ensure` enumerates the whole raw-leaf search once, snapshotting
    every leaf in canonical space through ``canon``, the generating heap's
    labeling.  ``complete`` distinguishes an exhausted enumeration
    (refutations may be trusted) from one cut off by the step budget or the
    entry cap (consumers must fall back to exact checks).  ``source`` is a
    zero-argument factory of the raw-leaf iterator (``None``, and no
    ``canon``, for a stream built already enumerated), so an interrupted
    enumeration can start over.  ``source_root``/``source_heap_hash``
    identify the concrete (root value, heap) the stream was generated from,
    letting the checker cheaply count the hits that only canonical keying
    made possible.
    """

    __slots__ = (
        "slot_names",
        "entries",
        "complete",
        "source_root",
        "source_heap_hash",
        "_source",
        "_heap_size",
        "_canon",
        "_tracer",
        "_indexes",
        "_settle_cache",
        "_has_deferred",
        "_finished",
    )

    def __init__(
        self,
        source,
        slot_names: tuple[str, ...],
        heap_size: int,
        canon=None,
        source_root: int | None = None,
        source_heap_hash: int | None = None,
        tracer=None,
        finished: tuple[StreamMemo, tuple] | None = None,
    ):
        self.slot_names = slot_names
        self.entries: list[_StreamEntry] = []
        self.complete = False
        self.source_root = source_root
        self.source_heap_hash = source_heap_hash
        self._source = source
        self._heap_size = heap_size
        self._canon = canon
        self._tracer = tracer
        #: ``(memo, key)``: the memo whose ``finished`` log this stream
        #: appends its key to when its enumeration completes.
        self._finished = finished
        #: Columnar side-representation: slot position -> ``(postings,
        #: wildcards)`` where ``postings`` maps a stored slot value to the
        #: ascending list of entry indices holding it and ``wildcards`` is
        #: the ascending list of entries whose slot is unbound (``None``,
        #: compatible with any pinned value).  Built lazily per position by
        #: :meth:`position_index`, only after :meth:`ensure` -- entries are
        #: immutable from then on, so the index never goes stale.  Values
        #: live in canonical space; consumers encode their query values
        #: through their view first.
        self._indexes: dict[int, tuple[dict, list[int]]] | None = None
        #: Settle-record memo of the group kernel: ``(positions, encoded
        #: values, consumer key) -> record``.  A record captures the whole
        #: match/best-size/tie computation for one pinned-value combination,
        #: which is variant-independent -- only the final instantiation step
        #: differs per variant.  Streams are reused across groups and
        #: batches, so records carry over with them.  See
        #: :func:`repro.sl.kernels.decide_group` for the key discipline.
        self._settle_cache: dict | None = None
        self._has_deferred: bool | None = None

    def ensure(self) -> bool:
        """Enumerate the whole skeleton search; True when it completed.

        The first call drains the source into ``entries`` inside one
        main-track ``stream_materialize`` span (when traced); every later
        call returns at once, and the entry list is immutable from then on.
        A stream cut off by the step budget or the entry cap stays
        incomplete.  Any other exception (a job timeout, an injected fault)
        leaves the stream empty, and the next call enumerates it afresh.
        """
        if self._source is None:
            return self.complete
        source = self._source()
        tracer = self._tracer
        self._tracer = None
        span = None if tracer is None else tracer.begin("stream_materialize")
        entries = self.entries
        slot_names = self.slot_names
        heap_size = self._heap_size
        max_entries = STREAM_MAX_ENTRIES
        to_tag = self._canon.to_tag
        to_id = self._canon.to_id
        try:
            for env, available, deferred, unknowns in source:
                entry = _StreamEntry()
                entry.values = tuple(
                    to_tag.get(value, value) for value in map(env.get, slot_names)
                )
                entry.avail = frozenset(to_id[addr] for addr in available)
                entry.nconsumed = heap_size - len(available)
                if deferred:
                    # The endgame is re-run per variant: keep the leaf's full
                    # environment and scope alongside the deferred goals.
                    entry.deferred = tuple(deferred)
                    entry.env = {
                        name: to_tag.get(value, value) for name, value in env.items()
                    }
                    entry.unknowns = frozenset(unknowns)
                else:
                    entry.deferred = None
                    entry.env = None
                    entry.unknowns = None
                entries.append(entry)
                if len(entries) >= max_entries:
                    # Safety valve for combinatorial skeletons: close out and
                    # leave the stream marked incomplete.
                    source.close()
                    break
            else:
                self.complete = True
                if self._finished is not None:
                    memo, key = self._finished
                    memo.log_finished(key)
        except CheckBudgetExceeded:
            pass
        except BaseException:
            entries.clear()
            raise
        finally:
            if span is not None:
                span.set(entries=len(entries), complete=self.complete)
                tracer.end(span)
        self._source = None
        return self.complete

    def position_index(self, position: int) -> tuple[dict, list[int]]:
        """The ``(postings, wildcards)`` index of one slot position.

        Built on first request and cached for the stream's lifetime; callers
        must :meth:`ensure` first (the kernel does).  A variant pinning
        ``position`` to value ``v`` matches exactly the entries in
        ``postings.get(v, []) + wildcards`` -- both lists ascending, so
        ordered merges preserve the stream's enumeration order, which the
        selection rule ("first solution of maximal size") depends on.
        """
        indexes = self._indexes
        if indexes is None:
            indexes = self._indexes = {}
        cached = indexes.get(position)
        if cached is None:
            postings: dict = {}
            wildcards: list[int] = []
            for index, entry in enumerate(self.entries):
                value = entry.values[position]
                if value is None:
                    wildcards.append(index)
                else:
                    posting = postings.get(value)
                    if posting is None:
                        postings[value] = [index]
                    else:
                        posting.append(index)
            cached = (postings, wildcards)
            indexes[position] = cached
        return cached

    def has_deferred(self) -> bool:
        """True when any entry carries deferred pure goals.

        Computed once after :meth:`ensure` (entries are immutable then).
        Deferred-free streams settle view-independently -- matching happens
        entirely in canonical space -- which lets the kernel share settle
        records across every consumer view.
        """
        cached = self._has_deferred
        if cached is None:
            cached = self._has_deferred = any(
                entry.deferred is not None for entry in self.entries
            )
        return cached


class StreamMemo(OrderedDict):
    """A stream memo: key -> :class:`EnvStream`, least recently used first.

    ``finished`` lists, in order, the canonical key of every stream that
    completed in this memo or was loaded into it from disk: the streams a
    disk flush may write.  A flush reads the log from where its previous
    call stopped, so its cost follows the streams finished since then, not
    the memo's size (:meth:`ModelChecker.shareable_streams`).  Positions in
    the log are absolute: ``finished_dropped`` counts the keys trimmed off
    its front, so a memo that lives as long as a serve daemon keeps the
    log bounded.

    ``locations`` holds whole-location results of the driver, keyed by
    content (see :meth:`repro.core.sling.Sling.infer_from_models`), and
    its whole-function specifications (``Sling.infer_function``): they
    share the streams' scope, so an engine batch, or a serve daemon,
    infers each distinct location once, and traces each distinct
    function's inputs once.  It keeps formulas and verdicts only, never
    models or heaps.
    """

    def __init__(self):
        super().__init__()
        self.finished: list[tuple] = []
        self.finished_dropped = 0
        self.locations = LocationMemo()

    def add(self, key: tuple, stream: EnvStream) -> None:
        """Insert ``stream`` as the most recently used entry, evicting the
        least recently used one beyond ``_STREAM_MEMO_LIMIT``."""
        self[key] = stream
        if len(self) > _STREAM_MEMO_LIMIT:
            self.popitem(last=False)

    def log_finished(self, key: tuple) -> None:
        """Append ``key`` to the ``finished`` log; past
        ``_FINISHED_LOG_LIMIT`` keys, drop the oldest half of the log."""
        finished = self.finished
        finished.append(key)
        if len(finished) > _FINISHED_LOG_LIMIT:
            dropped = len(finished) - _FINISHED_LOG_LIMIT // 2
            del finished[:dropped]
            self.finished_dropped += dropped

    def log_end(self) -> int:
        """The absolute position just past the last logged key."""
        return self.finished_dropped + len(self.finished)


class LocationMemo(OrderedDict):
    """Whole-location results (content key -> ``(formula, from freed
    traces)`` pairs) and whole-function specifications (tagged content
    key -> a tuple of invariants, unreached locations and verdict), least
    recently used first, at most ``_LOCATION_MEMO_LIMIT`` of them
    together.  Keys are :class:`~repro.sl.model.HashedKey` objects: a
    lookup and its LRU move hash the key's content once."""

    def recall(self, key: HashedKey) -> tuple | None:
        """The result under ``key`` (now the most recently used), or ``None``."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def add(self, key: HashedKey, value: tuple) -> None:
        """Insert ``value`` as the most recently used entry, evicting the
        least recently used one beyond ``_LOCATION_MEMO_LIMIT``."""
        self[key] = value
        if len(self) > _LOCATION_MEMO_LIMIT:
            self.popitem(last=False)


#: Per-thread home of the open memo: checkers bind to it at construction.
#: A forked engine worker inherits its parent thread's memo.
_MEMO_SCOPE = threading.local()


def batch_memo() -> StreamMemo | None:
    """The memo of the :func:`stream_pool` open on this thread, if any."""
    return getattr(_MEMO_SCOPE, "memo", None)


@contextmanager
def stream_pool():
    """Share one stream memo among the checkers built in this block.

    A stream is a function of its memo key (registry space, skeleton, heap
    region) and the module budgets, so every job of an engine batch may
    read the streams an earlier job enumerated, and the location results
    an earlier job inferred (``StreamMemo.locations``).  A block opened
    while a memo is already open on this thread (an engine batch inside a
    serve daemon's lifetime memo) uses that memo instead of shadowing it.
    Scoped to the calling thread and restored on exit, also when the block
    raises: a checker built afterwards, or on another thread, gets a
    private memo.
    """
    memo = batch_memo()
    if memo is not None:
        yield memo
        return
    memo = _MEMO_SCOPE.memo = StreamMemo()
    try:
        yield memo
    finally:
        _MEMO_SCOPE.memo = None
