"""SQLite-backed storage for the persistent checker cache.

One cache file holds the serialized state of the three canonical-keyed
in-memory caches (see :mod:`repro.cache.tier`): skeleton ``EnvStream``
snapshots, learned refuters and predicate-unfolding template keys.  The
store itself is deliberately dumb -- rows of ``(fingerprint, kind, key,
payload)`` blobs with hit-count/recency metadata -- and deliberately
*defensive*: any sqlite or filesystem failure (corrupted file, truncated
write, permission error) disables the store for the rest of the process,
logs one warning, bumps :attr:`CacheStore.load_errors` and makes every
operation a no-op.  A broken cache file must never be able to crash or
slow down an inference run beyond running it cold.

Invalidation is two-layered:

* ``CACHE_SCHEMA_VERSION`` (stored in the ``meta`` table) covers the
  *serialization format*: opening a file written under a different version
  wipes its entries and starts cold.
* the per-row ``fingerprint`` column covers the *predicate definitions*
  (see :mod:`repro.cache.fingerprint`): rows written under a different
  registry are simply never matched, so a predicate change invalidates
  without destroying other registries' entries.

``sqlite3`` is part of the CPython standard library; no new dependency is
introduced.  WAL journaling plus a generous busy timeout make concurrent
flushes from several writers safe, and :meth:`CacheStore.put_many` merges
on conflict (payload replaced only by a newer write, hit counts kept,
recency maxed) so one cache file shared between a serve daemon and
one-shot CLI runs never loses warmth to whichever flush happened last.
"""

from __future__ import annotations

import base64
import binascii
import logging
import os
import sqlite3
import time

log = logging.getLogger("repro.cache")

#: Version of the serialized entry formats.  Bump on ANY change to the
#: stream/refuter/unfold encodings in :mod:`repro.cache.serialize` or to
#: the table layout below: a mismatch wipes the file's entries (cold
#: start), never a crash and never a misread.
CACHE_SCHEMA_VERSION = 1

#: Cap on stored entries per cache file; beyond it the rows with the oldest
#: ``last_used`` (ties: lowest ``hit_count``, then insertion order) are
#: evicted at flush time.
DEFAULT_MAX_ENTRIES = 100_000

#: Connections dropped because their file was replaced under them (see
#: :meth:`CacheStore.abandon`).  Held, never closed: closing one would
#: checkpoint its write-ahead log into whatever file now sits at the path.
_ABANDONED: list[sqlite3.Connection] = []

class CacheStore:
    """One persistent cache file (see the module docstring).

    Every public method is total: after any underlying failure the store
    flips into a disabled state where reads miss and writes vanish, with
    ``load_errors`` counting how often something had to be ignored.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        #: Failures swallowed so far (corruption, version skew, IO errors).
        self.load_errors = 0
        #: Optional fault-injection plan (see :mod:`repro.faults`; set by
        #: :func:`repro.cache.tier.bind_tier`): the ``cache_open``/
        #: ``cache_read``/``cache_write`` sites sit *inside* the defensive
        #: try blocks below, so an injected sqlite failure exercises exactly
        #: the absorb-and-disable path a real one would.
        self.fault_plan = None
        self._conn: sqlite3.Connection | None = None
        self._failed = False
        #: ``(device, inode)`` of the database and of its write-ahead log
        #: when the connection was opened (see :meth:`replaced`).
        self._identity: tuple = ()
        #: ``PRAGMA data_version`` last seen, and :meth:`generation`.
        self._data_version = None
        self._generation = 0

    # ------------------------------------------------------------ plumbing --

    def _inject(self, op: str) -> None:
        if self.fault_plan is not None:
            from repro.faults import maybe_inject

            maybe_inject(self.fault_plan, op, qualifier=self.path)

    def _fail(self, exc: BaseException) -> None:
        """Disable the store after a failure (logged once, counted)."""
        if not self._failed:
            log.warning(
                "persistent cache %s unusable (%s: %s); continuing with a cold run",
                self.path,
                type(exc).__name__,
                exc,
            )
        self._failed = True
        self.load_errors += 1
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def _connect(self) -> sqlite3.Connection | None:
        """The lazily opened connection; ``None`` once the store is disabled."""
        if self._failed:
            return None
        if self._conn is not None:
            return self._conn
        try:
            self._inject("cache_open")
            directory = os.path.dirname(os.path.abspath(self.path))
            if directory:
                os.makedirs(directory, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=30.0)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            # Belt and braces with the connect() timeout: the busy handler
            # also covers statements issued after lock acquisition, which is
            # what a daemon flush racing a CLI flush actually hits.
            conn.execute("PRAGMA busy_timeout=30000")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " fingerprint TEXT NOT NULL,"
                " kind TEXT NOT NULL,"
                " key BLOB NOT NULL,"
                " payload BLOB NOT NULL,"
                " hit_count INTEGER NOT NULL DEFAULT 0,"
                " last_used REAL NOT NULL,"
                " created REAL NOT NULL,"
                " PRIMARY KEY (fingerprint, kind, key))"
            )
            version = str(_schema_version())
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
                    (version,),
                )
                conn.commit()
            elif row[0] != version:
                # Version skew: the file was written by an incompatible
                # serialization format.  Wipe and start cold -- reading the
                # old payloads would be unsound, keeping them useless.
                log.warning(
                    "persistent cache %s has schema version %s (expected %s); "
                    "discarding its entries and starting cold",
                    self.path,
                    row[0],
                    version,
                )
                conn.execute("DELETE FROM entries")
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
                    (version,),
                )
                conn.commit()
            (self._data_version,) = conn.execute("PRAGMA data_version").fetchone()
            self._conn = conn
            self._identity = self._file_identity()
            return conn
        except (sqlite3.Error, OSError, ValueError) as exc:
            self._fail(exc)
            return None

    def _file_identity(self) -> tuple:
        identity = []
        for suffix in ("", "-wal"):
            try:
                info = os.stat(self.path + suffix)
            except OSError:
                identity.append(None)
            else:
                identity.append((info.st_dev, info.st_ino))
        return tuple(identity)

    @property
    def failed(self) -> bool:
        """Whether a failure has disabled the store."""
        return self._failed

    def replaced(self) -> bool:
        """Whether the open connection's file was swapped out from under it.

        Other writers' commits are fine -- sqlite sees them -- but a file
        deleted, replaced, or stripped of its write-ahead log is invisible
        to a connection that keeps the old inodes open.
        """
        return self._conn is not None and self._file_identity() != self._identity

    def abandon(self) -> None:
        """Forget the connection of a :meth:`replaced` file without closing it."""
        if self._conn is not None:
            _ABANDONED.append(self._conn)
            self._conn = None

    def generation(self) -> int:
        """A number that moves whenever rows may have left the file since
        the last call: this store evicted some, or another connection
        committed (its ``DELETE`` or eviction is invisible otherwise).
        Tiers drop their known-row sets when it moves."""
        conn = self._conn
        if conn is not None:
            try:
                (version,) = conn.execute("PRAGMA data_version").fetchone()
            except sqlite3.Error as exc:
                self._fail(exc)
            else:
                if version != self._data_version:
                    self._data_version = version
                    self._generation += 1
        return self._generation

    def close(self) -> None:
        """Close the underlying connection (the store may be reopened)."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    # ------------------------------------------------------------- reads --

    def get(self, fingerprint: str, kind: str, key: bytes) -> bytes | None:
        """The payload stored under ``(fingerprint, kind, key)``, if any."""
        conn = self._connect()
        if conn is None:
            return None
        try:
            self._inject("cache_read")
            row = conn.execute(
                "SELECT payload FROM entries WHERE fingerprint = ? AND kind = ? AND key = ?",
                (fingerprint, kind, key),
            ).fetchone()
        except sqlite3.Error as exc:
            self._fail(exc)
            return None
        return row[0] if row is not None else None

    def iter_kind(self, fingerprint: str, kind: str) -> list[tuple[bytes, bytes]]:
        """All ``(key, payload)`` rows of one kind, least recently used first.

        The LRU-friendly order lets callers replay rows into an in-memory
        LRU structure so the most recently used entries end up freshest.
        """
        conn = self._connect()
        if conn is None:
            return []
        try:
            self._inject("cache_read")
            return conn.execute(
                "SELECT key, payload FROM entries"
                " WHERE fingerprint = ? AND kind = ?"
                " ORDER BY last_used ASC, rowid ASC",
                (fingerprint, kind),
            ).fetchall()
        except sqlite3.Error as exc:
            self._fail(exc)
            return []

    # ------------------------------------------------------------- writes --

    def put_many(
        self,
        fingerprint: str,
        kind: str,
        items: list[tuple[bytes, bytes]],
        now: float | None = None,
    ) -> int:
        """Upsert ``(key, payload)`` rows; returns rows written.

        Concurrent writers sharing one cache file (a serve daemon flushing
        next to a one-shot CLI run) merge instead of clobbering: an existing
        row keeps its hit count, its payload is only replaced when the
        incoming write is *newer* than the row's recency, and recency/
        creation stamps take the ``max``.  Entries are content-addressed by
        canonical keys, so either payload is correct -- upsert-if-newer just
        stops an older flush from un-warming a row a fresher run wrote.
        """
        if not items:
            return 0
        conn = self._connect()
        if conn is None:
            return 0
        stamp = time.time() if now is None else now
        try:
            self._inject("cache_write")
            conn.executemany(
                "INSERT INTO entries"
                " (fingerprint, kind, key, payload, hit_count, last_used, created)"
                " VALUES (?, ?, ?, ?, 0, ?, ?)"
                " ON CONFLICT (fingerprint, kind, key) DO UPDATE SET"
                "  payload = CASE WHEN excluded.last_used > last_used"
                "   THEN excluded.payload ELSE payload END,"
                "  last_used = max(last_used, excluded.last_used),"
                "  created = min(created, excluded.created)",
                [(fingerprint, kind, key, payload, stamp, stamp) for key, payload in items],
            )
            conn.commit()
        except sqlite3.Error as exc:
            self._fail(exc)
            return 0
        return len(items)

    def touch_many(
        self,
        fingerprint: str,
        kind: str,
        keys: list[bytes],
        now: float | None = None,
    ) -> None:
        """Record reuse: bump hit counts and recency of the given keys."""
        if not keys:
            return
        conn = self._connect()
        if conn is None:
            return
        stamp = time.time() if now is None else now
        try:
            self._inject("cache_write")
            conn.executemany(
                "UPDATE entries SET hit_count = hit_count + 1, last_used = ?"
                " WHERE fingerprint = ? AND kind = ? AND key = ?",
                [(stamp, fingerprint, kind, key) for key in keys],
            )
            conn.commit()
        except sqlite3.Error as exc:
            self._fail(exc)

    def evict_over_cap(self) -> int:
        """Drop the stalest rows beyond :data:`DEFAULT_MAX_ENTRIES`; returns rows evicted.

        Eviction order is least recently used first, ties broken by lowest
        hit count and then insertion order -- so a warmed, frequently hit
        entry outlives a one-shot one of the same age.
        """
        conn = self._connect()
        if conn is None:
            return 0
        try:
            (count,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
            excess = count - DEFAULT_MAX_ENTRIES
            if excess <= 0:
                return 0
            conn.execute(
                "DELETE FROM entries WHERE rowid IN ("
                " SELECT rowid FROM entries"
                " ORDER BY last_used ASC, hit_count ASC, rowid ASC LIMIT ?)",
                (excess,),
            )
            conn.commit()
        except sqlite3.Error as exc:
            self._fail(exc)
            return 0
        self._generation += 1
        return excess

    def clear(self) -> int:
        """Delete every entry (the schema/meta rows stay); returns rows dropped."""
        conn = self._connect()
        if conn is None:
            return 0
        try:
            (count,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
            conn.execute("DELETE FROM entries")
            conn.commit()
        except sqlite3.Error as exc:
            self._fail(exc)
            return 0
        return count

    # ------------------------------------------------------------ metadata --

    def file_bytes(self) -> int:
        """On-disk size of the cache (main database plus WAL, if present)."""
        total = 0
        for suffix in ("", "-wal"):
            try:
                total += os.path.getsize(self.path + suffix)
            except OSError:
                pass
        return total

    def stats(self) -> dict:
        """A JSON-serializable summary of the store's contents."""
        info: dict = {
            "path": os.path.abspath(self.path),
            "schema_version": _schema_version(),
            "file_bytes": self.file_bytes(),
            "max_entries": DEFAULT_MAX_ENTRIES,
            "entries": 0,
            "kinds": {},
            "fingerprints": {},
            "load_errors": self.load_errors,
        }
        conn = self._connect()
        if conn is None:
            info["load_errors"] = self.load_errors
            return info
        try:
            for kind, count, hits in conn.execute(
                "SELECT kind, COUNT(*), COALESCE(SUM(hit_count), 0)"
                " FROM entries GROUP BY kind ORDER BY kind"
            ):
                info["kinds"][kind] = {"entries": count, "hits": hits}
                info["entries"] += count
            for fingerprint, count in conn.execute(
                "SELECT fingerprint, COUNT(*) FROM entries"
                " GROUP BY fingerprint ORDER BY fingerprint"
            ):
                info["fingerprints"][fingerprint] = count
        except sqlite3.Error as exc:
            self._fail(exc)
        info["load_errors"] = self.load_errors
        return info

    # -------------------------------------------------------- export/import --

    def export_rows(self) -> dict:
        """A portable, JSON-serializable dump of the store.

        ``{"schema_version": int, "rows": [row, ...]}`` where each row is an
        object with the :data:`DUMP_ROW_FIELDS` keys; ``key`` and
        ``payload`` are base64 text (see ``repro cache export``).
        """
        conn = self._connect()
        rows: list = []
        if conn is not None:
            try:
                rows = conn.execute(
                    "SELECT fingerprint, kind, key, payload, hit_count, last_used, created"
                    " FROM entries ORDER BY last_used ASC, rowid ASC"
                ).fetchall()
            except sqlite3.Error as exc:
                self._fail(exc)
        records = [dict(zip(DUMP_ROW_FIELDS, row)) for row in rows]
        for record in records:
            for blob in ("key", "payload"):
                record[blob] = base64.b64encode(record[blob]).decode("ascii")
        return {"schema_version": _schema_version(), "rows": records}

    def import_rows(self, dump) -> int:
        """Merge a dump produced by :meth:`export_rows` into this store.

        Rows whose key already exists keep the *larger* hit count and the
        *newer* recency (``max`` merge), so importing a fleet member's cache
        never makes existing entries look colder.  A dump with a different
        schema version is refused (0 rows, counted as a load error).  A dump
        of any other shape raises :class:`MalformedDumpError` before a
        single row is written.
        """
        if not isinstance(dump, dict):
            raise MalformedDumpError("a dump is a JSON object")
        if dump.get("schema_version") != _schema_version():
            log.warning(
                "cache import into %s refused: dump schema version %r != %r",
                self.path,
                dump.get("schema_version"),
                _schema_version(),
            )
            self.load_errors += 1
            return 0
        rows = dump.get("rows")
        if not isinstance(rows, list):
            raise MalformedDumpError('"rows" must be a list')
        rows = [_decode_dump_row(index, row) for index, row in enumerate(rows)]
        if not rows:
            return 0
        conn = self._connect()
        if conn is None:
            return 0
        try:
            conn.executemany(
                "INSERT INTO entries"
                " (fingerprint, kind, key, payload, hit_count, last_used, created)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT (fingerprint, kind, key) DO UPDATE SET"
                "  hit_count = max(hit_count, excluded.hit_count),"
                "  last_used = max(last_used, excluded.last_used)",
                rows,
            )
            conn.commit()
        except sqlite3.Error as exc:
            self._fail(exc)
            return 0
        return len(rows)


class MalformedDumpError(ValueError):
    """A cache dump that is not what :meth:`CacheStore.export_rows` writes."""


#: The keys of one dump row, in table-column order.
DUMP_ROW_FIELDS = (
    "fingerprint", "kind", "key", "payload", "hit_count", "last_used", "created"
)


def _decode_dump_row(index: int, row) -> tuple:
    """One dump row as a table tuple; :class:`MalformedDumpError` otherwise."""
    if not isinstance(row, dict) or set(row) != set(DUMP_ROW_FIELDS):
        raise MalformedDumpError(f"row {index}: expected the keys {DUMP_ROW_FIELDS}")
    values = [row[name] for name in DUMP_ROW_FIELDS]
    if not (
        all(type(text) is str for text in values[:4])
        and type(values[4]) is int
        and values[4] >= 0
        and all(type(stamp) in (int, float) for stamp in values[5:])
    ):
        raise MalformedDumpError(
            f"row {index}: fingerprint, kind, key and payload must be strings, "
            "hit_count a non-negative integer, last_used and created numbers"
        )
    try:
        values[2:4] = [base64.b64decode(blob, validate=True) for blob in values[2:4]]
    except binascii.Error as exc:
        raise MalformedDumpError(f"row {index}: key and payload must be base64 ({exc})") from None
    return tuple(values)


def _schema_version() -> int:
    """The current schema version (indirect so tests can monkeypatch it)."""
    import repro.cache.store as _self

    return _self.CACHE_SCHEMA_VERSION
