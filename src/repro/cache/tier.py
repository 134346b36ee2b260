"""The persistent cache tier: glue between checker caches and the store.

A :class:`PersistentCache` sits *beneath* the three canonical-keyed
in-memory caches of one :class:`~repro.sl.checker.ModelChecker`:

* the ``EnvStream`` skeleton memo -- served lazily, one stream per miss
  (:meth:`PersistentCache.load_stream`, called from ``_get_stream`` after
  an in-memory miss that the engine batch's stream pool did not serve
  either; a pool-served key is noted instead and checked against the file
  at flush time, see :meth:`PersistentCache.note_pooled`);
* the learned-refuter table -- bulk-loaded at :meth:`attach` time (only
  canonical-form refuters persist; integer refuters are batch-relative);
* the predicate unfolding caches -- template *keys* are persisted and the
  closures recompiled at attach time (they cannot be pickled).

Only checkers whose stream keys are canonical may attach: concrete keys
embed process-local heap addresses and hashes, so persisting them would be
silently wrong across processes.  :meth:`attach` refuses with
:class:`PersistentCacheError` instead of downgrading (the PR 4 gotcha:
``ModelChecker`` built without ``structs=`` keeps concrete keys without
any visible signal).

The tier is write-behind: loads happen during the run, everything new is
persisted in one :meth:`flush` at the end of an inference (failures inside
the store never propagate -- see :mod:`repro.cache.store`).
"""

from __future__ import annotations

import logging

from repro.cache.fingerprint import registry_fingerprint
from repro.cache.serialize import (
    decode_refuter,
    decode_stream,
    decode_unfold_key,
    encode_refuter,
    encode_stream,
    encode_unfold_key,
    stable_key_bytes,
)
from repro.cache.store import DEFAULT_MAX_ENTRIES, CacheStore
from repro.sl.model import CanonicalForm

log = logging.getLogger("repro.cache")

KIND_STREAM = "stream"
KIND_REFUTER = "refuter"
KIND_UNFOLD = "unfold"


class PersistentCacheError(RuntimeError):
    """The persistent tier cannot be soundly attached to this checker."""


class PersistentCache:
    """Disk tier for one checker/registry pair (see the module docstring).

    ``disk_hits``/``disk_misses`` count *stream* lookups served from or
    missed by the disk tier (the per-lookup signal the warm-start hit rate
    is computed from); bulk refuter/unfold loads are one-shot and appear in
    the store stats instead.
    """

    def __init__(
        self, path, registry, max_entries: int = DEFAULT_MAX_ENTRIES, fault_plan=None
    ):
        self.registry = registry
        self.fingerprint = registry_fingerprint(registry)
        self.store = CacheStore(path, max_entries=max_entries, fault_plan=fault_plan)
        #: Tier-level kill switch: any exception escaping a mid-run cache
        #: operation (the store absorbs sqlite errors itself, but decode
        #: and filesystem surprises -- or an injected fault -- can escape)
        #: disables the tier for the rest of the run instead of raising
        #: out of a checker call.  Warned once, counted in
        #: :attr:`disk_load_errors`.
        self._disabled = False
        self._tier_errors = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_evictions = 0
        self.cache_file_bytes = 0
        self._decode_errors = 0
        self._stream_max_entries = 4096
        #: Keys already present on disk (loaded or flushed), per kind --
        #: avoids rewriting rows, which would reset their hit metadata.
        self._known: dict[str, set[bytes]] = {
            KIND_STREAM: set(),
            KIND_REFUTER: set(),
            KIND_UNFOLD: set(),
        }
        #: Stream keys served from disk since the last flush (recency bump).
        self._touched: set[bytes] = set()
        #: Stream keys served by the batch's stream pool since the last
        #: flush, not yet checked against the store (see :meth:`note_pooled`).
        self._pooled: set[bytes] = set()
        #: Optional span tracer (set by the owning :class:`Sling`; ``None``
        #: keeps loads and flushes on the untraced fast path).
        self.tracer = None

    # ------------------------------------------------------------- attach --

    def attach(self, checker) -> None:
        """Hook this tier into a checker and warm its bulk-loadable caches.

        Refuses (:class:`PersistentCacheError`) when the checker's stream
        keys cannot be canonical -- concrete keys embed per-process addresses
        and salted hashes, so persisting them would corrupt the cache.
        """
        if getattr(checker, "structs", None) is None:
            raise PersistentCacheError(
                "persistent cache requires canonical stream keys, but this "
                "checker was built without structs= -- its stream keys "
                "silently stay concrete (per-process addresses), which is "
                "exactly what must never reach disk"
            )
        self._stream_max_entries = checker.stream_max_entries
        checker.persistent = self
        self._warm_refuters(checker)
        self._warm_unfold_templates()
        self.cache_file_bytes = self.store.file_bytes()

    def _warm_refuters(self, checker) -> None:
        """Replay persisted refuters into the checker's LRU table.

        Rows arrive least recently used first, so replaying in order leaves
        the most recently useful refuters freshest in the LRU.  Only the
        last ``refuters_limit`` rows are replayed (the table would evict the
        rest immediately anyway).  Refuters only steer which model a batch
        tries first -- a wrong or stale one costs a few extra checks, never
        a wrong verdict -- so this preload cannot affect results.
        """
        rows = self.store.iter_kind(self.fingerprint, KIND_REFUTER)
        limit = getattr(checker, "refuters_limit", None)
        if limit is not None and len(rows) > limit:
            rows = rows[-limit:]
        for key_bytes, payload in rows:
            try:
                shape, form = decode_refuter(payload)
            except Exception as exc:
                self._note_decode_error(KIND_REFUTER, exc)
                continue
            checker._learn_refuter(shape, form)
            self._known[KIND_REFUTER].add(bytes(key_bytes))

    def _warm_unfold_templates(self) -> None:
        """Recompile persisted unfolding-template keys into the registry.

        Payloads carry only ``(predicate, case index, argument shape)`` --
        the compiled closures are rebuilt locally, with the predicate's
        hit/miss counters snapshotted around the compile so warming is
        invisible to ``unfold_stats()``.
        """
        for key_bytes, payload in self.store.iter_kind(self.fingerprint, KIND_UNFOLD):
            try:
                pred_name, case_index, key = decode_unfold_key(payload)
            except Exception as exc:
                self._note_decode_error(KIND_UNFOLD, exc)
                continue
            if pred_name not in self.registry:
                continue
            predicate = self.registry.get(pred_name)
            if predicate.warm_unfold_template(case_index, key):
                self._known[KIND_UNFOLD].add(bytes(key_bytes))

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
            self.disk_misses += 1
            return None
        try:
            stream = decode_stream(payload, self._stream_max_entries)
        except Exception as exc:
            self._note_decode_error(KIND_STREAM, exc)
            self.disk_misses += 1
            return None
        self.disk_hits += 1
        self._known[KIND_STREAM].add(key_bytes)
        self._touched.add(key_bytes)
        return stream

    def note_pooled(self, key) -> None:
        """Record a stream the engine batch's pool served instead of disk.

        The job that published it usually wrote its row already, so the
        next :meth:`flush` asks the store which pooled keys it holds: those
        count as known and get the recency bump a disk hit gets, without
        being re-encoded; the rest (the publisher wrote another file, its
        flush failed, or eviction dropped the row) are written as usual.
        """
        self._pooled.add(stable_key_bytes(key))

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

    # ------------------------------------------------------------- flush --

    def flush(self, checker, final: bool = True) -> dict[str, int]:
        """Write everything learned since the last flush; returns row counts.

        Persists complete canonical-keyed streams, canonical-form refuters
        and unfolding-template keys; bumps hit metadata for streams served
        from disk (or from the batch pool, when their row is on disk);
        evicts over the size cap; refreshes ``cache_file_bytes``.  The
        ``_known`` bookkeeping makes repeated flushes naturally
        incremental -- only rows learned since the previous call are
        written -- so callers (the serve daemon, per-location incremental
        mode) may flush as often as they like.  Intermediate flushes pass
        ``final=False`` to skip eviction and the file-size refresh: those
        are end-of-run accounting, and running eviction mid-inference could
        drop rows a concurrent sharer just wrote.

        Total, like :meth:`load_stream`: a failed flush (disk full, file
        made read-only mid-run) disables the tier and writes nothing --
        the in-memory results of the run are unaffected.
        """
        empty = {KIND_STREAM: 0, KIND_REFUTER: 0, KIND_UNFOLD: 0}
        if self._disabled:
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
        written = {KIND_STREAM: 0, KIND_REFUTER: 0, KIND_UNFOLD: 0}

        known_streams = self._known[KIND_STREAM]
        if self._pooled:
            on_disk = self._pooled & known_streams
            on_disk |= self.store.present_keys(
                self.fingerprint, KIND_STREAM, sorted(self._pooled - known_streams)
            )
            known_streams |= on_disk
            self._touched |= on_disk
            self._pooled.clear()

        stream_rows = []
        for key, stream in checker.shareable_streams():
            key_bytes = stable_key_bytes(key)
            if key_bytes in known_streams:
                continue
            stream_rows.append((key_bytes, encode_stream(stream)))
            known_streams.add(key_bytes)
        written[KIND_STREAM] = self.store.put_many(
            self.fingerprint, KIND_STREAM, stream_rows
        )

        refuter_rows = []
        known_refuters = self._known[KIND_REFUTER]
        for shape, value in checker._refuters.items():
            if not isinstance(value, CanonicalForm):
                continue
            key_bytes, payload = encode_refuter(shape, value)
            if key_bytes in known_refuters:
                continue
            refuter_rows.append((key_bytes, payload))
            known_refuters.add(key_bytes)
        written[KIND_REFUTER] = self.store.put_many(
            self.fingerprint, KIND_REFUTER, refuter_rows
        )

        unfold_rows = []
        known_unfolds = self._known[KIND_UNFOLD]
        for predicate in self.registry:
            for case_index, key in predicate.unfold_cache_keys():
                key_bytes, payload = encode_unfold_key(predicate.name, case_index, key)
                if key_bytes in known_unfolds:
                    continue
                unfold_rows.append((key_bytes, payload))
                known_unfolds.add(key_bytes)
        written[KIND_UNFOLD] = self.store.put_many(
            self.fingerprint, KIND_UNFOLD, unfold_rows
        )

        if self._touched:
            self.store.touch_many(
                self.fingerprint, KIND_STREAM, sorted(self._touched)
            )
            self._touched.clear()

        if final:
            self.disk_evictions += self.store.evict_over_cap()
            self.cache_file_bytes = self.store.file_bytes()
        return written

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
        self._tier_errors += 1

    @property
    def disk_load_errors(self) -> int:
        """Failures absorbed so far (store failures, undecodable rows, and
        tier-level operations that had to disable the tier mid-run)."""
        return self.store.load_errors + self._decode_errors + self._tier_errors

    def counters(self) -> dict[str, int]:
        """The tier's contribution to ``cache_stats()``."""
        return {
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "disk_evictions": self.disk_evictions,
            "cache_file_bytes": self.cache_file_bytes,
            "disk_load_errors": self.disk_load_errors,
        }

    def close(self) -> None:
        """Close the underlying store connection."""
        self.store.close()
