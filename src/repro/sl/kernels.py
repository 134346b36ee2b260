"""Columnar group-at-once decision kernels for skeleton-batched checking.

``ModelChecker._check_batch`` settles every
:class:`~repro.sl.checker.PureVariant` of a candidate group against one model
in a single pass over the shared :class:`~repro.sl.stream.EnvStream`'s
columnar side-representation, instead of one scan of the stream per variant.

The kernel works in two steps:

1. the stream enumerates its whole skeleton search once
   (:meth:`EnvStream.ensure`) and its per-position posting-list indexes
   (:meth:`EnvStream.position_index`) are built lazily for the positions
   the group actually pins;
2. a variant with pins resolves to the ordered intersection of its pins'
   posting lists, a variant with no pins to every entry; only those
   candidate entries are examined (entries carrying deferred pure goals
   still re-run :func:`_endgame` per variant).

Every stream stores its entries in canonical space, and the consumer's
:class:`~repro.sl.model.HeapCanon` is the ``view`` that translates: query
values are encoded into canonical space, environments, availability sets and
instantiation values are decoded back into the consumer's addresses.

On top of the indexes sits a *settle-record memo* (``EnvStream._settle_cache``):
the match/best-size/tie computation depends only on ``(pinned positions,
encoded values)`` -- every variant pinning the same values shares one record,
and only the final per-variant instantiation step (:func:`_finish`) runs
separately.  Because streams are memoized across groups and batches, the
record for the ubiquitous pin-free (all-fresh-argument) variant is computed
once per stream instead of once per consulting group.  Records from a stream
without deferred goals are view-independent (matching happens in canonical
space) and shared across all consumers; a stream with deferred goals re-runs
the endgame under each consumer's decoded environment, so its records are
additionally keyed by the consumer's labeling (``from_addr``).

Exactness: verdicts replicate the exact search's selection rule.  The posting
intersection enumerates candidates in ascending entry order -- the stream's
enumeration order -- so "first solution of maximal consumed size" holds, and
whenever the selection could depend on the per-candidate enumeration order
(incomplete stream, more than ``MAX_SOLUTIONS`` matches, ambiguous ties) the
verdict is :data:`UNDECIDED` and the caller runs the exact search.  The
equivalence suite (``tests/sl/test_kernels.py``) asserts every settled
verdict against the reference :func:`repro.sl.search.reduce`, for streams
under canonical and under concrete keys.

Counters (the checker's :class:`~repro.telemetry.counters.CacheStats`):
``kernel_groups`` counts kernel invocations (one per group x model),
``stream_index_hits`` variants resolved through posting-list intersection,
``kernel_scan_fallbacks`` full entry scans actually run for pin-free
variants (settle-record misses, so at most one per invocation);
``pure_variant_evals`` counts entries actually examined per variant.
"""

from __future__ import annotations

from repro.sl import search
from repro.sl.search import CheckResult, discharge_deferred

#: Verdict of the group kernel: the stream cannot settle this (variant,
#: model) pair exactly; the caller must run the exact search.
UNDECIDED = object()

#: Settle record for a pinned-value combination that matched more than
#: ``MAX_SOLUTIONS`` entries -- every variant sharing it is ``UNDECIDED``.
_OVERFLOW = object()

#: Cache-miss sentinel (``None`` is a valid record: a sound refutation).
_ABSENT = object()


def decide_group(
    checker,
    stream,
    view,
    slot_names: tuple[str, ...],
    stack: dict[str, int],
    model,
    domain: frozenset[int],
    work: list,
) -> list:
    """Settle every variant of one candidate group against one model.

    ``work`` holds ``(variant index, variant, positions, values)`` items --
    the resolved slot requirements of each still-live variant (``positions``
    and ``values`` aligned, values in the consumer's concrete space).
    Returns one verdict per item, aligned: ``None`` for a sound refutation,
    a :class:`CheckResult` when the stream settles the pair exactly, or
    :data:`UNDECIDED` when only the exact search can.  The verdicts
    depend only on the stream, the view and the work items.
    """
    stats = checker.stats
    stats.kernel_groups += 1
    if not stream.ensure():
        # Every verdict off an incomplete stream depends on the unobserved
        # tail, so all of them are ``UNDECIDED`` and the kernel skips the
        # per-entry work entirely.
        return [UNDECIDED] * len(work)

    entries = stream.entries
    max_solutions = search.MAX_SOLUTIONS
    cache = stream._settle_cache
    if cache is None:
        cache = stream._settle_cache = {}
    # Records from a deferred-free stream are view-independent: matching
    # compares encoded values in the stream's own coordinate space and no
    # endgame runs, so every consumer shares one record per key.  With
    # deferred goals the endgame re-runs under the consumer's *decoded*
    # environment, and the decoding is exactly the view's ``from_addr``
    # table -- so records are additionally keyed by that tuple.  It is
    # structural on purpose: consumer heaps are ephemeral (phase-3 models
    # chain through freshly built residuals), but address-identical
    # consumers of one canonical form keep producing the same ``from_addr``
    # and so keep hitting the same records.
    consumer = view.from_addr if stream.has_deferred() else None

    verdicts: list = []
    for _, variant, positions, values in work:
        encoded = view.encode(values)
        if positions:
            stats.stream_index_hits += 1
        key = (positions, encoded, consumer)
        record = cache.get(key, _ABSENT)
        if record is _ABSENT:
            if positions:
                candidates = _candidate_entries(
                    [stream.position_index(position) for position in positions],
                    encoded,
                )
            else:
                # Nothing pinned: every entry is trivially slot-compatible,
                # so the record is a full scan -- computed once per (stream,
                # consumer) and shared by every group's all-fresh variant
                # from then on.
                stats.kernel_scan_fallbacks += 1
                candidates = range(len(entries))
            names = tuple(slot_names[position] for position in positions)
            record = cache[key] = _settle_indexed(
                stats, entries, candidates, names, max_solutions, values, view
            )
        verdicts.append(
            _verdict(record, variant, slot_names, stack, model, domain, view)
        )
    return verdicts


def _candidate_entries(indexes: list, encoded: tuple) -> list[int]:
    """Ascending entry indices compatible with every pinned (position, value).

    Per pin the compatible set is ``postings[value] + wildcards`` (disjoint
    ascending lists, merged in order); the intersection walks the smallest
    pin's list in order and membership-tests the rest, so candidates come
    out in stream enumeration order -- which the "first solution of maximal
    size" selection rule depends on.
    """
    lists: list[list[int]] = []
    for (postings, wildcards), value in zip(indexes, encoded):
        posting = postings.get(value)
        if posting is None:
            merged = wildcards
        elif not wildcards:
            merged = posting
        else:
            merged = _merge(posting, wildcards)
        if not merged:
            return []
        lists.append(merged)
    if len(lists) == 1:
        return lists[0]
    lists.sort(key=len)
    others = [set(entry_ids) for entry_ids in lists[1:]]
    return [
        index
        for index in lists[0]
        if all(index in other for other in others)
    ]


def _merge(left: list[int], right: list[int]) -> list[int]:
    """Merge two disjoint ascending index lists, preserving order."""
    merged: list[int] = []
    i = j = 0
    left_len = len(left)
    right_len = len(right)
    while i < left_len and j < right_len:
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    if i < left_len:
        merged.extend(left[i:])
    if j < right_len:
        merged.extend(right[j:])
    return merged


def _settle_indexed(stats, entries, candidates, names, max_solutions, values, view):
    """Settle one pinned-value combination from its candidate entry indices.

    ``candidates`` are ascending entry indices: a pinned combination's index
    intersection, or every entry when nothing is pinned.  Slot compatibility
    is guaranteed by construction; only entries carrying deferred pure goals
    still run :func:`_endgame`.  Returns a shareable record: ``_OVERFLOW``
    (more matches than ``MAX_SOLUTIONS``), ``None`` (no match -- a sound
    refutation off a complete stream) or the tie list of maximal-size
    ``(entry, final_env)`` solutions, which :func:`_verdict` finishes per
    variant.
    """
    matches = 0
    best_size = -1
    evals = 0
    tied: list = []
    for index in candidates:
        entry = entries[index]
        evals += 1
        if entry.deferred is None:
            final_env = None
        else:
            final_env = _endgame(entry, names, values, view)
            if final_env is None:
                continue
        matches += 1
        if matches > max_solutions:
            stats.pure_variant_evals += evals
            return _OVERFLOW
        size = entry.nconsumed
        if size > best_size:
            best_size = size
            tied = [(entry, final_env)]
        elif size == best_size:
            tied.append((entry, final_env))
    stats.pure_variant_evals += evals
    if matches == 0:
        return None
    return tied


def _endgame(entry, names, concrete, view):
    """Re-run one entry's deferred pure goals under a variant's pins.

    Decodes the entry's environment into the consumer's addresses, binds
    each pinned slot name the leaf left unbound to the variant's concrete
    value, and runs :func:`repro.sl.search.discharge_deferred`.  Returns
    the witness environment or ``None``.
    """
    env = view.decode_env(entry.env)
    for name, value in zip(names, concrete):
        if env.get(name) is None:
            env[name] = value
    return discharge_deferred(list(entry.deferred), env, entry.unknowns)


def _verdict(record, variant, slot_names, stack, model, domain, view):
    """Turn one (possibly cached) settle record into a per-variant verdict."""
    if record is None:
        return None
    if record is _OVERFLOW:
        return UNDECIDED
    return _finish(record, variant, slot_names, stack, model, domain, view)


def _finish(tied, variant, slot_names, stack, model, domain, view):
    """Turn a tie set into a verdict.

    The first enumerated solution of maximal consumed size wins, unless a
    tied solution disagrees on residual or instantiation -- then only the
    exact search may choose.
    """
    chosen_entry, chosen_env = tied[0]
    instantiation = _variant_instantiation(
        variant, chosen_entry, chosen_env, stack, slot_names, view
    )
    for entry, final_env in tied[1:]:
        if entry.avail != chosen_entry.avail:
            return UNDECIDED
        if (
            _variant_instantiation(variant, entry, final_env, stack, slot_names, view)
            != instantiation
        ):
            return UNDECIDED
    avail = view.decode_avail(chosen_entry.avail)
    return CheckResult(
        residual=model.heap.restrict(avail),
        instantiation=instantiation,
        consumed=domain - avail,
    )


def _variant_instantiation(variant, entry, final_env, stack, slot_names, view):
    """The candidate's existential instantiation at one stream entry.

    Mirrors :func:`repro.sl.search.reduce`: a fresh argument is bound to
    whatever the search (or the deferred endgame) pinned its slot to; a
    fresh name that collides with a stack variable resolves to the stack
    value (the search seeds its environment from the stack); unconstrained
    names are omitted.  Values read from the entry are decoded into the
    consumer's addresses (``final_env`` is already concrete).
    """
    instantiation: dict[str, int] = {}
    for position, name in variant.free_slots:
        stack_value = stack.get(name)
        if stack_value is not None:
            instantiation[name] = stack_value
            continue
        if final_env is not None:
            value = final_env.get(slot_names[position])
        else:
            value = view.decode(entry.values[position])
        if value is not None:
            instantiation[name] = value
    return instantiation
