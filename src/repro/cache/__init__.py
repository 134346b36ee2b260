"""Persistent cross-run cache for the checker's canonical-keyed memos.

PR 4 made every hot memo key address-independent (canonical heap forms),
which makes the checker's expensive state valid across processes and runs.
This package persists it: a sqlite-backed :class:`CacheStore` under a
:class:`PersistentCache` tier that warm-starts ``EnvStream`` memos, learned
refuters and predicate unfolding templates.  Entirely inert unless
``SlingConfig.persistent_cache`` is set.  See ``docs/performance.md``.
"""

from repro.cache.fingerprint import registry_fingerprint
from repro.cache.store import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_MAX_ENTRIES,
    CacheStore,
    preload_cache_file,
)
from repro.cache.tier import (
    PersistentCache,
    PersistentCacheError,
    bind_tier,
    close_tiers,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_MAX_ENTRIES",
    "CacheStore",
    "PersistentCache",
    "PersistentCacheError",
    "bind_tier",
    "close_tiers",
    "preload_cache_file",
    "registry_fingerprint",
]
