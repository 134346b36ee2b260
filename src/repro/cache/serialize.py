"""Serialization between the checker's stream memo and cache rows.

Three invariants shape everything here:

* **Keys must be byte-stable across processes.**  The in-memory cache keys
  contain :class:`~repro.sl.model.CanonicalForm` objects whose hashes are
  salted per process (``PYTHONHASHSEED``), and pickle output depends on
  memoization order -- neither may ever be used as a database key.  Keys
  are therefore rendered through :func:`stable_key_bytes`: canonical forms
  are unwrapped to their raw key tuples (plain ``str``/``int`` nests whose
  ``repr`` is deterministic) and the whole key is ``repr``-encoded.  A
  form's rendering is cached on the interned form, so a key costs one
  ``repr`` of its small outer tuple however often it is rendered.
* **Payloads must not smuggle process-local state.**  Stream entries are
  stored in canonical space already (tags ``('a', cid)``, dense ids) and
  are name-self-contained, so they pickle as plain data; sets of names are
  written sorted, so a payload's bytes do not depend on the hash seed.
* **Loading a payload runs no code.**  Rows can come from outside the
  program (``repro cache import`` merges a dump into a cache file), so
  payloads are unpickled by :func:`_loads`, which rebuilds plain data and
  pure-formula nodes only and refuses a payload naming any other global.
"""

from __future__ import annotations

import io
import pickle

from repro.sl import exprs
from repro.sl.stream import EnvStream, _StreamEntry
from repro.sl.model import CanonicalForm

#: The only globals a payload may name: the pure-formula node classes that
#: deferred goals are made of.
_PAYLOAD_CLASSES = frozenset(
    name
    for name, value in vars(exprs).items()
    if isinstance(value, type) and value.__module__ == exprs.__name__
)


class _PayloadUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if module == exprs.__name__ and name in _PAYLOAD_CLASSES:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(f"a cache payload may not name {module}.{name}")


def _loads(payload: bytes):
    """Unpickle a row payload without resolving any global but an
    expression class (see the module docstring)."""
    return _PayloadUnpickler(io.BytesIO(payload)).load()


def _render(value) -> str:
    """``repr`` of a key nest in which every CanonicalForm reads as the
    marker tuple ``("__cf__", form.key)``; each form is rendered once."""
    if isinstance(value, CanonicalForm):
        text = value.stable_repr
        if text is None:
            text = value.stable_repr = repr(("__cf__", value.key))
        return text
    if not isinstance(value, tuple):
        return repr(value)
    parts = [repr(item) if type(item) in _LEAVES else _render(item) for item in value]
    if len(parts) == 1:
        return f"({parts[0]},)"
    return f"({', '.join(parts)})"


#: Key items that are rendered by ``repr`` alone (a fast path of _render).
_LEAVES = frozenset((str, int))


def stable_key_bytes(key) -> bytes:
    """Byte-stable rendering of a cache key (see the module docstring)."""
    return _render(key).encode("utf-8")


# ------------------------------------------------------------------ streams --


def encode_stream(stream: EnvStream) -> bytes:
    """Pickle a *complete* canonical-space stream as plain data."""
    if not stream.complete:
        raise ValueError("only complete streams may be persisted")
    entries = [
        (
            entry.values,
            entry.avail,
            entry.nconsumed,
            entry.env,
            None if entry.unknowns is None else tuple(sorted(entry.unknowns)),
            entry.deferred,
        )
        for entry in stream.entries
    ]
    payload = {
        "slot_names": stream.slot_names,
        "entries": entries,
    }
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def decode_stream(payload: bytes) -> EnvStream:
    """Rebuild an :class:`EnvStream` from :func:`encode_stream` output.

    The result has no generator source and ``complete=True`` -- exactly the
    state an exhausted in-memory stream would be in.  ``source_root`` and
    ``source_heap_hash`` stay ``None``: the generating heap lived in another
    process, so every in-memory hit on a disk-loaded stream is, correctly, a
    canonical-keying win.
    """
    data = _loads(payload)
    stream = EnvStream(None, tuple(data["slot_names"]), 0)
    for values, avail, nconsumed, env, unknowns, deferred in data["entries"]:
        entry = _StreamEntry()
        entry.values = tuple(values)
        entry.avail = frozenset(avail)
        entry.nconsumed = nconsumed
        entry.env = dict(env) if env is not None else None
        entry.unknowns = frozenset(unknowns) if unknowns is not None else None
        entry.deferred = tuple(deferred) if deferred is not None else None
        stream.entries.append(entry)
    stream.complete = True
    return stream

