"""Columnar group-at-once decision kernels for skeleton-batched checking.

``ModelChecker._check_batch`` settles every
:class:`~repro.sl.checker.PureVariant` of a candidate group against one model
in a single pass over the shared :class:`~repro.sl.checker.EnvStream`'s
columnar side-representation, instead of one scan of the stream per variant.

The kernel works in three steps:

1. the stream is materialized to exhaustion once and its per-position
   posting-list indexes (:meth:`EnvStream.position_index`) are built lazily
   for the positions the group actually pins;
2. variants are bucketed by pinned-position signature; each bucket shares
   one pair of code-generated matchers (:mod:`repro.cache.codegen`), keyed
   process-wide by the registry fingerprint;
3. a variant with pins resolves to the ordered intersection of its pins'
   posting lists -- only those candidate entries are examined (entries
   carrying deferred pure goals still re-run the endgame per variant); a
   variant with no pins scans every entry.

On top of the indexes sits a *settle-record memo* (``EnvStream._settle_cache``):
the match/best-size/tie computation depends only on ``(pinned positions,
encoded values)`` -- every variant pinning the same values shares one record,
and only the final per-variant instantiation step (:func:`_finish`) runs
separately.  Because streams are memoized across groups and batches, the
record for the ubiquitous pin-free (all-fresh-argument) variant is computed
once per stream instead of once per consulting group.  Records from a stream
without deferred goals are view-independent (matching happens in the stream's
own coordinate space) and shared across all consumers; a stream with deferred
goals re-runs the endgame under each consumer's decoded environment, so its
records are additionally keyed by the consumer's canonical labeling (a stable,
per-(heap, root) memoized object).

Exactness: verdicts replicate the exact search's selection rule.  The posting
intersection enumerates candidates in ascending entry order -- the stream's
enumeration order -- so "first solution of maximal consumed size" holds, and
whenever the selection could depend on the per-candidate enumeration order
(incomplete stream, more than ``max_solutions`` matches, ambiguous ties) the
verdict is ``_UNDECIDED`` and the caller runs the exact search.  The
equivalence suite (``tests/sl/test_kernels.py``) asserts every settled
verdict against the reference ``ModelChecker.check`` under both stream-view
kinds.

Counters (:class:`repro.sl.screen.ScreeningStats`): ``kernel_groups``
counts kernel invocations (one per group x model), ``stream_index_hits``
variants resolved through posting-list intersection,
``kernel_scan_fallbacks`` pin-free variants that scanned every entry;
``pure_variant_evals`` counts entries actually examined per variant.
"""

from __future__ import annotations

from repro.cache.codegen import matcher_for
from repro.sl.checker import CheckResult, _UNDECIDED, _variant_instantiation

#: Settle record for a pinned-value combination that matched more than
#: ``max_solutions`` entries -- every variant sharing it is ``_UNDECIDED``.
_OVERFLOW = object()

#: Cache-miss sentinel (``None`` is a valid record: a sound refutation).
_ABSENT = object()


def decide_group(
    checker,
    predicate: str,
    root_position: int,
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
    a :class:`CheckResult` when the stream settles the pair exactly, or the
    ``_UNDECIDED`` sentinel when only the exact search can.
    """
    stats = checker.screen_stats
    stats.kernel_groups += 1
    count = len(work)
    if not stream.materialize():
        # Every verdict off an incomplete stream depends on the unobserved
        # tail, so all of them are ``_UNDECIDED`` and the kernel skips the
        # per-entry work entirely.
        return [_UNDECIDED] * count

    verdicts: list = [None] * count
    entries = stream.entries
    arity = len(slot_names)
    max_solutions = checker.max_solutions
    discharge = checker._discharge_deferred
    space = checker.codegen_space()
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
    # and so keep hitting the same records.  The identity view decodes
    # nothing, so its records need no consumer component either.
    consumer = None
    if stream.has_deferred() and view.canon is not None:
        consumer = view.canon.from_addr

    # Bucket by pinned-position signature (insertion-ordered, deterministic):
    # one generated matcher pair serves a whole bucket, and the bucket's
    # positions decide index vs scan resolution once.
    buckets: dict[tuple[int, ...], list[int]] = {}
    for slot, item in enumerate(work):
        bucket = buckets.get(item[2])
        if bucket is None:
            buckets[item[2]] = [slot]
        else:
            bucket.append(slot)

    for positions, members in buckets.items():
        names = tuple(slot_names[position] for position in positions)
        match, endgame = matcher_for(
            space, predicate, arity, root_position, positions, names
        )
        if positions:
            indexes = None
            for slot in members:
                item = work[slot]
                values = item[3]
                encoded = view.encode_values(values)
                stats.stream_index_hits += 1
                key = (positions, encoded, consumer)
                record = cache.get(key, _ABSENT)
                if record is _ABSENT:
                    if indexes is None:
                        indexes = [
                            stream.position_index(position) for position in positions
                        ]
                    candidates = _candidate_entries(indexes, encoded)
                    record = _settle_indexed(
                        stats, entries, candidates, endgame, discharge,
                        max_solutions, values, view,
                    )
                    cache[key] = record
                verdicts[slot] = _verdict(
                    record, item[1], slot_names, stack, model, domain, view
                )
        else:
            # Nothing pinned: every entry is trivially slot-compatible, so
            # the record degenerates to a full scan -- computed once per
            # (stream, consumer) and shared by every group's all-fresh
            # variant from then on.
            stats.kernel_scan_fallbacks += len(members)
            key = (positions, (), consumer)
            record = cache.get(key, _ABSENT)
            if record is _ABSENT:
                record = _settle_scan(
                    stats, entries, match, discharge, max_solutions, view
                )
                cache[key] = record
            for slot in members:
                verdicts[slot] = _verdict(
                    record, work[slot][1], slot_names, stack, model, domain, view
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


def _settle_indexed(
    stats, entries, candidates, endgame, discharge, max_solutions, values, view,
):
    """Settle one pinned-value combination from its pre-intersected candidates.

    Slot compatibility is guaranteed by the index intersection; only entries
    carrying deferred pure goals still run the generated endgame (the scan
    "fallback for deferred entries" reduced to exactly those entries).
    Returns a shareable record: ``_OVERFLOW`` (more matches than
    ``max_solutions``), ``None`` (no match -- a sound refutation off a
    complete stream) or the tie list of maximal-size ``(entry, final_env)``
    solutions, which :func:`_verdict` finishes per variant.
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
            final_env = endgame(entry, values, view, discharge)
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


def _settle_scan(stats, entries, match, discharge, max_solutions, view):
    """Settle the pin-free combination by scanning every entry.

    Same record contract as :func:`_settle_indexed`; the generated matcher
    receives empty value tuples (nothing is pinned) and only the deferred
    endgame can reject an entry.
    """
    matches = 0
    best_size = -1
    evals = 0
    tied: list = []
    for entry in entries:
        evals += 1
        matched, final_env = match(entry, (), (), view, discharge)
        if not matched:
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


def _verdict(record, variant, slot_names, stack, model, domain, view):
    """Turn one (possibly cached) settle record into a per-variant verdict."""
    if record is None:
        return None
    if record is _OVERFLOW:
        return _UNDECIDED
    return _finish(record, variant, slot_names, stack, model, domain, view)


def _finish(tied, variant, slot_names, stack, model, domain, view):
    """Turn a tie set into a verdict (shared tail of both settle loops).

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
            return _UNDECIDED
        if (
            _variant_instantiation(variant, entry, final_env, stack, slot_names, view)
            != instantiation
        ):
            return _UNDECIDED
    avail = view.decode_avail(chosen_entry.avail)
    return CheckResult(
        residual=model.heap.restrict(avail),
        instantiation=instantiation,
        consumed=domain - avail,
    )
