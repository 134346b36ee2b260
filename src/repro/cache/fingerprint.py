"""Stable fingerprint of a predicate registry's definitions.

Persistent cache rows are only valid for the exact predicate definitions
they were computed under: a changed case body changes which environments a
skeleton search may produce, and a changed definition *order* changes the
candidate-enumeration tie-breaking.  The fingerprint therefore digests, in
definition order, each predicate's name, formal parameters, parameter types
and the *structural key* of every case body (``SymHeap.structural_key()``
renames existentials positionally, so the fingerprint is independent of
parse-time fresh-name counters while still pinning the AST shape).

Rows written under one fingerprint are invisible under another -- predicate
edits invalidate without wiping unrelated registries' entries.
"""

from __future__ import annotations

import hashlib

from repro.sl.predicates import PredicateRegistry


def registry_fingerprint(registry: PredicateRegistry) -> str:
    """A 16-hex-digit digest of the registry's definitions (see module doc).

    Cached on the registry (``PredicateRegistry.fingerprint``) until its
    next ``add``: every checker built over the registry asks for it.
    """
    if registry.fingerprint is None:
        registry.fingerprint = _digest(registry)
    return registry.fingerprint


def _digest(registry: PredicateRegistry) -> str:
    parts = []
    for predicate in registry:
        parts.append(
            (
                predicate.name,
                predicate.params,
                predicate.param_types,
                tuple(repr(case.body.structural_key()) for case in predicate.cases),
            )
        )
    blob = repr(tuple(parts)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
