"""The persistent cache tier: glue between checker caches and the store.

A :class:`PersistentCache` sits *beneath* the canonical-keyed
``EnvStream`` skeleton memo of one :class:`~repro.sl.checker.ModelChecker`.
It serves streams lazily, one per miss (:meth:`PersistentCache.load_stream`,
called from ``_get_stream`` after a miss in the checker's memo, which an
engine batch shares among its jobs and a serve daemon among its requests).  Stream rows are the only kind it
reads or writes.

Older files also hold ``refuter`` rows (the learned-refuter table's) and
``unfold`` rows (predicate unfolding-template keys).  Nothing reads or
refreshes them, so eviction reaches them before the rows in use once the
file is over its cap.

Only checkers whose stream keys are canonical may attach: concrete keys
embed process-local heap addresses and hashes, so persisting them would be
silently wrong across processes.  :meth:`attach` refuses with
:class:`PersistentCacheError` instead of downgrading (the PR 4 gotcha:
``ModelChecker`` built without ``structs=`` keeps concrete keys without
any visible signal).

The tier is write-behind: loads happen during the run, everything new is
persisted in one :meth:`flush` at the end of an inference (failures inside
the store never propagate -- see :mod:`repro.cache.store`).

A :class:`~repro.core.sling.Sling` does not build a tier: it binds to its
thread's tier for (cache file, registry fingerprint) with :func:`bind_tier`.
Tiers and their one shared :class:`CacheStore` per file live as long as the
thread (the serve daemon's executor, an engine worker), so a second job on
the same file reopens nothing and keeps the known-row set that spares its
flush from re-writing rows.  A tier or store that failed is dropped at the
next bind, so that job reopens the file and counts its own failures.
"""

from __future__ import annotations

import logging
import os
import threading
import weakref

from repro.cache.fingerprint import registry_fingerprint
from repro.cache.serialize import decode_stream, encode_stream, stable_key_bytes
from repro.cache.store import CacheStore
from repro.telemetry.counters import CacheStats

log = logging.getLogger("repro.cache")

KIND_STREAM = "stream"


class PersistentCacheError(RuntimeError):
    """The persistent tier cannot be soundly attached to this checker."""


class PersistentCache:
    """Disk tier for one cache file and registry (see the module docstring).

    The tier counts into :attr:`stats`, the :class:`CacheStats` of the
    checker it was last attached to (its own until then), so every counter
    but the ``cache_file_bytes`` gauge is per job.  ``disk_hits``/
    ``disk_misses`` count *stream* lookups served from or missed by the
    disk tier (the per-lookup signal the warm-start hit rate is computed
    from).  ``disk_load_errors`` counts failures absorbed: store failures,
    undecodable rows, and operations that had to disable the tier.

    A ``read_only`` tier loads but never flushes: ``repro cache verify``
    measures a file with it without its warm jobs serving each other.
    """

    def __init__(
        self, path, registry, *, store: CacheStore | None = None, read_only: bool = False
    ):
        self.fingerprint = registry_fingerprint(registry)
        self.store = CacheStore(path) if store is None else store
        self.read_only = read_only
        #: Tier-level kill switch: any exception escaping a mid-run cache
        #: operation (the store absorbs sqlite errors itself, but decode
        #: and filesystem surprises -- or an injected fault -- can escape)
        #: disables the tier for the rest of the run instead of raising
        #: out of a checker call.  Warned once, counted in
        #: ``disk_load_errors``.
        self._disabled = False
        #: Undecodable rows seen by this tier (only the first one warns).
        self._decode_errors = 0
        #: Where the disk counters go (see the class docstring).
        self.stats = CacheStats()
        #: Stream rows known to be on disk (loaded or flushed), held as the
        #: in-memory keys their row keys are rendered from -- avoids
        #: rewriting rows, which would reset their hit metadata, and
        #: rendering the keys of rows that need no write.  Dropped whenever
        #: the store's generation moves.
        self._known_streams: set[tuple] = set()
        self._generation: int | None = None
        #: ``(weak reference to a stream memo, absolute position)``: where
        #: the last flush stopped reading that memo's ``finished`` log.  A
        #: flush from another memo, or after the known rows were dropped,
        #: reads it from the start; one whose position the log has trimmed
        #: away visits the whole memo (see ``shareable_streams``).
        self._stream_log: tuple = (None, 0)
        #: Stream keys served from disk since the last flush (recency bump).
        self._touched: set[bytes] = set()
        #: Rows written since the last eviction (see :meth:`flush`).
        self._unevicted = False
        #: Optional span tracer (set by the owning :class:`Sling`; ``None``
        #: keeps loads and flushes on the untraced fast path).
        self.tracer = None

    # ------------------------------------------------------------- attach --

    def attach(self, checker) -> None:
        """Hook this tier into a checker; reads no row.

        From here on the tier and its store count into ``checker.stats``.
        Refuses (:class:`PersistentCacheError`) when the checker's stream
        keys cannot be canonical -- concrete keys embed per-process
        addresses and salted hashes, so persisting them would corrupt the
        cache.
        """
        if getattr(checker, "structs", None) is None:
            raise PersistentCacheError(
                "persistent cache requires canonical stream keys, but this "
                "checker was built without structs= -- its stream keys "
                "silently stay concrete (per-process addresses), which is "
                "exactly what must never reach disk"
            )
        checker.persistent = self
        self.stats = self.store.job_stats = checker.stats
        generation = self.store.generation()
        if generation != self._generation:
            self._generation = generation
            self._known_streams.clear()
            self._stream_log = (None, 0)
        self.stats.cache_file_bytes = self.store.file_bytes()

    # -------------------------------------------------------------- loads --

    def load_stream(self, key):
        """The persisted stream under a canonical key, or ``None`` (a miss).

        Total: any failure escaping the load (the store absorbs sqlite
        errors itself; this catches everything else, e.g. the cache file
        deleted or made unreadable mid-sweep) disables the tier for the
        rest of the run and reports a miss -- a broken cache degrades to a
        cold run, never to a failed checker call.
        """
        if self._disabled:
            return None
        try:
            if self.tracer is None:
                return self._load_stream(key)
            with self.tracer.span("disk_io", name="load_stream") as span:
                stream = self._load_stream(key)
                span.set(hit=stream is not None)
            return stream
        except Exception as exc:  # noqa: BLE001 -- absorbed, tier disabled
            self._disable("load_stream", exc)
            return None

    def _load_stream(self, key):
        key_bytes = stable_key_bytes(key)
        payload = self.store.get(self.fingerprint, KIND_STREAM, key_bytes)
        if payload is None:
            self.stats.disk_misses += 1
            return None
        try:
            stream = decode_stream(payload)
        except Exception as exc:
            self._note_decode_error(KIND_STREAM, exc)
            self.stats.disk_misses += 1
            return None
        self.stats.disk_hits += 1
        self._known_streams.add(key)
        self._touched.add(key_bytes)
        return stream

    def _note_decode_error(self, kind: str, exc: BaseException) -> None:
        if self._decode_errors == 0:
            log.warning(
                "persistent cache %s: undecodable %s row (%s: %s); treating as a miss",
                self.store.path,
                kind,
                type(exc).__name__,
                exc,
            )
        self._decode_errors += 1
        self.stats.disk_load_errors += 1

    # ------------------------------------------------------------- flush --

    def flush(self, checker, final: bool = True) -> dict[str, int]:
        """Write everything learned since the last flush; returns row counts.

        Persists the checker's shareable streams (in an engine batch,
        also those an earlier job enumerated); bumps hit metadata for
        streams served from disk; refreshes ``cache_file_bytes``.  Repeated
        flushes are incremental: streams are read from the memo's
        ``finished`` log where the previous flush stopped, so a flush
        visits only the streams finished since then, and the known-row set
        keeps every row from being written twice, so a driver may flush
        after every location, as :class:`~repro.core.sling.Sling` does.
        Intermediate flushes pass ``final=False`` to skip eviction
        and the file-size refresh: those are end-of-run accounting, and
        running eviction mid-inference could drop rows a concurrent sharer
        just wrote.  A final flush evicts over the size cap only when this
        tier wrote rows since its last eviction.  A read-only tier writes
        nothing.

        Total, like :meth:`load_stream`: a failed flush (disk full, file
        made read-only mid-run) disables the tier and writes nothing --
        the in-memory results of the run are unaffected.
        """
        empty = {KIND_STREAM: 0}
        if self._disabled or self.read_only:
            return empty
        try:
            if self.tracer is None:
                return self._flush(checker, final)
            with self.tracer.span("disk_io", name="flush") as span:
                written = self._flush(checker, final)
                span.set(written=sum(written.values()), final=final)
            return written
        except Exception as exc:  # noqa: BLE001 -- absorbed, tier disabled
            self._disable("flush", exc)
            return empty

    def _flush(self, checker, final: bool = True) -> dict[str, int]:
        stream_rows = []
        known_streams = self._known_streams
        memo = checker._streams
        last_memo, since = self._stream_log
        if last_memo is None or last_memo() is not memo:
            since = 0
        for key, stream in checker.shareable_streams(since):
            if key in known_streams:
                continue
            stream_rows.append((stable_key_bytes(key), encode_stream(stream)))
            known_streams.add(key)
        self._stream_log = (weakref.ref(memo), memo.log_end())
        written = self.store.put_many(self.fingerprint, KIND_STREAM, stream_rows)

        if self._touched:
            self.store.touch_many(
                self.fingerprint, KIND_STREAM, sorted(self._touched)
            )
            self._touched.clear()

        self._unevicted = self._unevicted or written > 0
        if final:
            if self._unevicted:
                self.stats.disk_evictions += self.store.evict_over_cap()
                self._unevicted = False
            self.stats.cache_file_bytes = self.store.file_bytes()
        return {KIND_STREAM: written}

    # ----------------------------------------------------------- counters --

    def _disable(self, operation: str, exc: BaseException) -> None:
        """Per-operation degradation: warn once, count, go inert."""
        if not self._disabled:
            log.warning(
                "persistent cache %s: %s failed (%s: %s); disabling the disk "
                "tier for the rest of the run",
                self.store.path,
                operation,
                type(exc).__name__,
                exc,
            )
        self._disabled = True
        self.stats.disk_load_errors += 1

    def close(self) -> None:
        """Close the underlying store connection."""
        self.store.close()


# --------------------------------------------------------- the tier table --


class _Tiers(threading.local):
    """One thread's stores, by (pid, file), and tiers, by (pid, file,
    registry fingerprint, read-only).  The pid keeps a forked worker off
    the connections it inherited; the thread keeps a job's counters its
    own and each connection on the thread that opened it."""

    def __init__(self):
        self.stores: dict[tuple, CacheStore] = {}
        self.tiers: dict[tuple, PersistentCache] = {}


_TIERS = _Tiers()


def bind_tier(
    path, checker, *, fault_plan=None, tracer=None, read_only: bool = False
) -> PersistentCache:
    """Attach ``checker`` to this thread's tier for ``path`` and its registry.

    Builds the store and the tier on first use; reuses them while they are
    healthy.  A failed store, or one whose file was replaced under its
    connection, is dropped with its tiers, and a disabled tier is dropped,
    so the job reopens the file as a fresh run would.
    """
    pid = os.getpid()
    path = os.path.abspath(os.fspath(path))
    store = _TIERS.stores.get((pid, path))
    if store is not None and (store.failed or store.replaced()):
        store.abandon()
        _drop(pid, path)
        store = None
    if store is None:
        store = _TIERS.stores[(pid, path)] = CacheStore(path)
    store.fault_plan = fault_plan
    key = (pid, path, checker.registry_space(), read_only)
    tier = _TIERS.tiers.get(key)
    if tier is None or tier._disabled:
        tier = PersistentCache(
            path, checker.registry, store=store, read_only=read_only
        )
        _TIERS.tiers[key] = tier
    tier.tracer = tracer
    tier.attach(checker)
    return tier


def _drop(pid: int, path: str) -> None:
    del _TIERS.stores[(pid, path)]
    for key in [key for key in _TIERS.tiers if key[:2] == (pid, path)]:
        del _TIERS.tiers[key]


def close_tiers(path=None) -> None:
    """Close and forget this thread's tiers (on ``path`` only, if given)."""
    pid = os.getpid()
    wanted = None if path is None else os.path.abspath(os.fspath(path))
    for owner, file in list(_TIERS.stores):
        if owner == pid and wanted in (None, file):
            _TIERS.stores[(owner, file)].close()
            _drop(owner, file)
