"""Process-wide cache of code-generated variant matchers.

The columnar group kernel (:mod:`repro.sl.kernels`) decides candidate
variants with *generated* matchers: for each ``(predicate, arity, root
position)`` skeleton and pinned-position signature it emits a small Python
source fragment that unrolls the slot comparisons and the deferred-endgame
dispatch into straight-line code, ``exec``-compiles it once and reuses the
functions for the life of the process -- the same discipline as the AST
intern tables, but for executable code.

Like every persistent artifact derived from predicate definitions (see
:mod:`repro.cache.tier`), entries are namespaced by the registry
fingerprint (:func:`repro.cache.fingerprint.registry_fingerprint`): a
checker built over a different predicate registry can never be served a
matcher generated for another one, and a definition change simply starts a
fresh namespace.  The generated source only mentions slot positions and
names, so this is defence in depth rather than a correctness requirement
today -- the key shape is what guarantees it stays true as matchers grow.

Matchers come in pairs:

``match(entry, values, concrete, view, discharge)``
    The full scan matcher: pinned slots must agree with the entry's stored
    values (an unbound ``None`` slot is compatible with anything), then
    entries carrying deferred pure goals re-run the endgame.  Returns
    ``(matched, final_env)``.

``endgame(entry, concrete, view, discharge)``
    The deferred-goal endgame alone: decode the entry's environment, bind
    the pinned slot names that the leaf left unbound to the variant's
    concrete values, and re-run ``_discharge_deferred``.  Returns the
    witness environment or ``None``.  The kernel calls this directly for
    entries found through the posting-list indexes -- their slot
    compatibility is already guaranteed by construction.
"""

from __future__ import annotations

#: (fingerprint, predicate, arity, root position, positions, names) ->
#: (match, endgame).  Process-wide and unbounded: signatures are a function
#: of the predicate library, not of the workload, so the population is small
#: (tens of entries across the full Table 1 suite).
_MATCHERS: dict[tuple, tuple] = {}


def matcher_for(
    space: str,
    predicate: str,
    arity: int,
    root_position: int,
    positions: tuple[int, ...],
    names: tuple[str, ...],
) -> tuple:
    """The ``(match, endgame)`` pair for one pinned-position signature.

    ``space`` is the owning registry's fingerprint; ``positions`` the slot
    positions the variants of the bucket pin, ``names`` the corresponding
    slot variable names (``?wN`` by construction -- the root slot is never
    pinned).  Generated and compiled on first request, then served from the
    process-wide cache.
    """
    key = (space, predicate, arity, root_position, positions, names)
    cached = _MATCHERS.get(key)
    if cached is None:
        source = matcher_source(positions, names)
        namespace: dict = {}
        filename = f"<repro-matcher {predicate}/{arity}@{root_position} pins={positions}>"
        exec(compile(source, filename, "exec"), namespace)
        cached = (namespace["match"], namespace["endgame"])
        _MATCHERS[key] = cached
    return cached


def matcher_source(positions: tuple[int, ...], names: tuple[str, ...]) -> str:
    """The generated source for one signature (also used by tests/docs).

    ``endgame`` is defined first so ``match`` can call it through the shared
    exec namespace; both unroll their loops -- one comparison / one binding
    statement per pinned slot, no iteration, no tuple zipping.
    """
    lines = ["def endgame(entry, concrete, view, discharge):"]
    lines.append("    env = view.decode_env(entry.env)")
    for index, name in enumerate(names):
        lines.append(f"    if env.get({name!r}) is None:")
        lines.append(f"        env[{name!r}] = concrete[{index}]")
    lines.append("    return discharge(list(entry.deferred), env, entry.unknowns)")
    lines.append("")
    lines.append("")
    lines.append("def match(entry, values, concrete, view, discharge):")
    if positions:
        lines.append("    entry_values = entry.values")
        for index, position in enumerate(positions):
            lines.append(f"    slot = entry_values[{position}]")
            lines.append(f"    if slot is not None and slot != values[{index}]:")
            lines.append("        return False, None")
    lines.append("    if entry.deferred is None:")
    lines.append("        return True, None")
    lines.append("    final_env = endgame(entry, concrete, view, discharge)")
    lines.append("    return final_env is not None, final_env")
    lines.append("")
    return "\n".join(lines)


def codegen_cache_info() -> dict[str, int]:
    """Size of the process-wide matcher cache (observability/tests)."""
    return {"entries": len(_MATCHERS)}


def clear_codegen_cache() -> None:
    """Drop every generated matcher (tests only; the cache self-heals)."""
    _MATCHERS.clear()
