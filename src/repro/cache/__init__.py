"""Persistent cross-run cache for the checker's canonical-keyed memos.

PR 4 made every hot memo key address-independent (canonical heap forms),
which makes the checker's expensive state valid across processes and runs.
This package persists it: a sqlite-backed :class:`CacheStore` under a
:class:`PersistentCache` tier that warm-starts ``EnvStream`` memos, learned
refuters and predicate unfolding templates.  Entirely inert unless
``SlingConfig.persistent_cache`` is set.  See ``docs/performance.md``.

The sqlite-backed names load on first use (PEP 562): a sweep without a
cache file only needs :func:`registry_fingerprint`, which keys the
checker's stream memo, and so never imports ``sqlite3``.
"""

import importlib

from repro.cache.fingerprint import registry_fingerprint

_LAZY = {
    "CACHE_SCHEMA_VERSION": "repro.cache.store",
    "DEFAULT_MAX_ENTRIES": "repro.cache.store",
    "CacheStore": "repro.cache.store",
    "PersistentCache": "repro.cache.tier",
    "PersistentCacheError": "repro.cache.tier",
    "bind_tier": "repro.cache.tier",
    "close_tiers": "repro.cache.tier",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [*_LAZY, "registry_fingerprint"]
