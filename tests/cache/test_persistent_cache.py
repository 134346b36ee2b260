"""Unit tests of the persistent cache tier (:mod:`repro.cache`).

Covers, per the cache's contract (``docs/performance.md``):

* round-trip serialization of the one persisted cache kind, EnvStream
  snapshots, with payload bytes that do not depend on the hash seed;
* unfolding counters: templates are never loaded from the file, so cold
  and warm runs count every template compile as a miss, attaching compiles
  none, and a run writes stream rows only;
* hit-count/recency eviction order of the size-capped store;
* fingerprint invalidation (rows written under other predicate definitions
  are invisible, never misread);
* schema-version bump (an old-format file is wiped, not misread);
* graceful degradation on corrupted / truncated / zero-byte cache files:
  cold-run results, a counted warning, never an exception;
* the attach refusal for checkers whose stream keys are not canonical (the
  PR 4 silent-downgrade gotcha).
"""

from __future__ import annotations

import itertools
import os
import pickle
import sqlite3
import subprocess
import sys

import pytest

import repro.cache.store as store_module
from repro.cache import (
    CacheStore,
    PersistentCache,
    PersistentCacheError,
    registry_fingerprint,
)
from repro.cache.serialize import decode_stream, encode_stream, stable_key_bytes
from repro.core.infer_atom import Candidate, _candidate_variant
from repro.core.sling import Sling, SlingConfig
from repro.lang import standard_structs
from repro.sl.checker import ModelChecker, build_skeleton
from repro.sl.exprs import Nil, Var
from repro.sl.model import CanonicalForm, Heap, HeapCell, StackHeapModel
from repro.sl.spatial import PredApp, SymHeap
from repro.sl import stream as stream_module
from repro.sl.stdpreds import predicates_for, standard_predicates

from tests.conftest import CreatesFileOnUnpickle


# ---------------------------------------------------------------------------
# workload helpers (the test_check_batch idiom, trimmed)
# ---------------------------------------------------------------------------


def _sll_model(size: int) -> StackHeapModel:
    cells = {
        index: HeapCell("SllNode", {"next": index + 1 if index < size else 0})
        for index in range(1, size + 1)
    }
    return StackHeapModel(
        {"x": 1 if size else 0, "y": 2 if size > 1 else 0},
        Heap(cells),
        {"x": "SllNode*", "y": "SllNode*"},
    )


def _lseg_batch(registry):
    """A (models, skeleton, variants) workload over the lseg lattice."""
    predicate = registry.get("lseg")
    fresh = {"u91"}
    candidates = []
    seen = set()
    for permutation in itertools.permutations(["x", "y", "nil", "u91"], 2):
        if permutation[0] != "x":
            continue
        signature = tuple("?" if name in fresh else name for name in permutation)
        if signature in seen:
            continue
        seen.add(signature)
        candidates.append(Candidate(permutation, fresh))
    skeleton = build_skeleton("lseg", predicate.arity, "x", 0)
    variants = []
    for candidate in candidates:
        used_fresh = tuple(n for n in candidate.permutation if n in candidate.fresh)
        formula = SymHeap(
            exists=used_fresh,
            spatial=PredApp(
                "lseg",
                [Nil() if n == "nil" else Var(n) for n in candidate.permutation],
            ),
        )
        variants.append(_candidate_variant(candidate, formula, 0))
    models = [_sll_model(3), _sll_model(0)]
    return models, skeleton, variants


def _canonical_checker(registry) -> ModelChecker:
    return ModelChecker(registry, structs=standard_structs())


def _outcome_key(outcomes):
    from repro.sl.checker import BATCH_VACUOUS

    rendered = []
    for outcome in outcomes:
        if outcome is None:
            rendered.append(None)
        elif outcome is BATCH_VACUOUS:
            rendered.append("BATCH_VACUOUS")
        else:
            rendered.append(
                [
                    (r.residual, tuple(sorted(r.instantiation.items())), r.consumed)
                    for r in outcome
                ]
            )
    return rendered


# ---------------------------------------------------------------------------
# round-trip serialization
# ---------------------------------------------------------------------------


class TestStreamRoundTrip:
    def test_envstream_entries_survive_encode_decode(self):
        registry = standard_predicates()
        checker = _canonical_checker(registry)
        models, skeleton, variants = _lseg_batch(registry)
        checker.check_batch(models, skeleton, variants)

        complete = [
            (key, stream)
            for key, stream in checker._streams.items()
            if stream.complete and isinstance(key[-1], CanonicalForm)
        ]
        assert complete, "the workload produced no complete canonical streams"
        for _, stream in complete:
            clone = decode_stream(encode_stream(stream))
            assert clone.complete
            assert clone.slot_names == stream.slot_names
            assert len(clone.entries) == len(stream.entries)
            for ours, theirs in zip(stream.entries, clone.entries):
                assert theirs.values == ours.values
                assert theirs.avail == ours.avail
                assert theirs.nconsumed == ours.nconsumed
                assert theirs.env == ours.env
                assert theirs.unknowns == ours.unknowns
                assert theirs.deferred == ours.deferred
            # A decoded stream is already enumerated: ensure() reports it
            # complete without resuming anything.
            assert clone.ensure() is True
            assert len(clone.entries) == len(stream.entries)

    def test_incomplete_streams_are_refused(self):
        registry = standard_predicates()
        checker = _canonical_checker(registry)
        models, skeleton, variants = _lseg_batch(registry)
        checker.check_batch(models, skeleton, variants)
        stream = next(iter(checker._streams.values()))
        stream.complete = False
        with pytest.raises(ValueError):
            encode_stream(stream)

    def test_warm_checker_replays_batch_without_solving(self, tmp_path):
        registry = standard_predicates()
        models, skeleton, variants = _lseg_batch(registry)

        cold = _canonical_checker(registry)
        tier = PersistentCache(tmp_path / "cache.sqlite", registry)
        tier.attach(cold)
        cold_outcomes = cold.check_batch(models, skeleton, variants)
        tier.flush(cold)
        assert cold.stats.skeletons_solved > 0

        warm = _canonical_checker(registry)
        tier2 = PersistentCache(tmp_path / "cache.sqlite", registry)
        tier2.attach(warm)
        warm_outcomes = warm.check_batch(models, skeleton, variants)
        assert _outcome_key(warm_outcomes) == _outcome_key(cold_outcomes)
        assert warm.stats.disk_hits > 0
        # Every complete stream came from disk; only incomplete ones (never
        # persisted) may have been re-solved.
        assert warm.stats.skeletons_solved <= cold.stats.skeletons_solved
        assert warm.stats.skeletons_solved == warm.stats.disk_misses

    def test_payload_bytes_do_not_depend_on_the_hash_seed(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
        digests = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            output = subprocess.run(
                [sys.executable, "-c", _ENCODE_DLL_APPEND],
                env=env, check=True, capture_output=True, text=True,
            ).stdout
            digests.add(output.strip().splitlines()[-1])
        assert len(digests) == 1, digests

    def test_frozenset_unknowns_payload_decodes_to_an_equal_stream(self):
        # Payloads once pickled ``unknowns`` as a frozenset (in hash order);
        # such rows must still decode to the stream a new payload gives.
        from repro.benchsuite.registry import get_benchmark

        benchmark = get_benchmark("dll/append")
        sling = Sling(benchmark.program, benchmark.predicates, SlingConfig())
        sling.infer_function(benchmark.function, benchmark.test_cases(0))
        streams = [stream for _, stream in sling.checker.shareable_streams()]
        assert any(
            len(entry.unknowns or ()) > 1 for stream in streams for entry in stream.entries
        ), "the workload produced no entry with several unknowns"
        for stream in streams:
            old_payload = pickle.dumps(
                {"slot_names": stream.slot_names, "entries": _entry_fields(stream)},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            old = decode_stream(old_payload)
            new = decode_stream(encode_stream(stream))
            assert old.slot_names == new.slot_names
            assert _entry_fields(old) == _entry_fields(new) == _entry_fields(stream)


def _entry_fields(stream) -> list[tuple]:
    return [
        (e.values, e.avail, e.nconsumed, e.env, e.unknowns, e.deferred)
        for e in stream.entries
    ]


#: Infers dll/append in a fresh interpreter and prints one sha256 over its
#: encoded complete streams, in stable key order.
_ENCODE_DLL_APPEND = """
import hashlib
from repro.benchsuite.registry import get_benchmark
from repro.cache.serialize import encode_stream, stable_key_bytes
from repro.core.sling import Sling, SlingConfig

benchmark = get_benchmark("dll/append")
sling = Sling(benchmark.program, benchmark.predicates, SlingConfig(discard_crashed_runs=True))
sling.infer_function(benchmark.function, benchmark.test_cases(0))
digest = hashlib.sha256()
for key, payload in sorted(
    (stable_key_bytes(key), encode_stream(stream))
    for key, stream in sling.checker.shareable_streams()
):
    digest.update(key)
    digest.update(payload)
print(digest.hexdigest())
"""


# ---------------------------------------------------------------------------
# unfolding counters
# ---------------------------------------------------------------------------


def _compiled_templates(registry) -> int:
    return sum(len(predicate._unfold_cache) for predicate in registry)


def _infer_insert_front(path):
    """Infer ``sll/insertFront`` on a fresh registry with cache file ``path``.

    Returns the run's :class:`CacheStats` copy, the number of unfolding
    templates its registry compiled, and the registry.
    """
    from repro.benchsuite.registry import get_benchmark

    benchmark = get_benchmark("sll/insertFront")
    registry = predicates_for(*(predicate.name for predicate in benchmark.predicates))
    config = SlingConfig(discard_crashed_runs=True, persistent_cache=str(path))
    sling = Sling(benchmark.program, registry, config)
    sling.infer_function(benchmark.function, benchmark.test_cases(0))
    return sling.cache_counters(), _compiled_templates(registry), registry


class TestUnfoldCounters:
    def test_cold_and_warm_runs_count_every_template_compile(self, tmp_path):
        # Unfolding templates are compiled on demand, never loaded from the
        # cache file, so every run on a fresh registry counts one miss per
        # template it compiles -- warm or cold.  Warm runs count fewer hits:
        # the streams served from disk run no search.
        from repro.cache import close_tiers

        path = tmp_path / "c.sqlite"
        try:
            cold, cold_compiled, _ = _infer_insert_front(path)
            warm, warm_compiled, _ = _infer_insert_front(path)  # the same tier
            close_tiers()
            reopened, reopened_compiled, _ = _infer_insert_front(path)  # afresh
        finally:
            close_tiers()
        assert cold.disk_hits == 0 and warm.disk_hits > 0 and reopened.disk_hits > 0
        assert cold.unfold_misses == cold_compiled > 0
        assert warm.unfold_misses == warm_compiled == cold.unfold_misses
        assert reopened.unfold_misses == reopened_compiled == cold.unfold_misses
        assert 0 < warm.unfold_hits == reopened.unfold_hits < cold.unfold_hits

    def test_attach_to_a_written_file_compiles_no_template(self, tmp_path, monkeypatch):
        # Attaching reads no row and instantiates nothing: the first
        # unfolding the search asks for compiles its template.
        from repro.cache import close_tiers

        path = tmp_path / "c.sqlite"
        try:
            _, cold_compiled, registry = _infer_insert_front(path)
        finally:
            close_tiers()
        assert cold_compiled > 0
        assert CacheStore(path).stats()["entries"] > 0

        fresh = predicates_for(*(predicate.name for predicate in registry))
        tier = PersistentCache(path, fresh)
        reads = []
        original_get = tier.store.get

        def counted_get(*args):
            reads.append(args)
            return original_get(*args)

        monkeypatch.setattr(tier.store, "get", counted_get)
        checker = _canonical_checker(fresh)
        tier.attach(checker)
        assert reads == []
        assert _compiled_templates(fresh) == 0
        assert checker.stats.unfold_hits == checker.stats.unfold_misses == 0
        tier.close()

    def test_a_run_writes_stream_rows_only(self, tmp_path):
        from repro.cache import close_tiers

        path = tmp_path / "c.sqlite"
        try:
            counters, compiled, _ = _infer_insert_front(path)
        finally:
            close_tiers()
        assert counters.unfold_misses == compiled > 0
        kinds = CacheStore(path).stats()["kinds"]
        assert set(kinds) == {"stream"}
        assert kinds["stream"]["entries"] > 0


# ---------------------------------------------------------------------------
# incremental flushes
# ---------------------------------------------------------------------------


class TestIncrementalFlush:
    def test_second_flush_without_new_streams_visits_no_memo_entry(
        self, tmp_path, monkeypatch
    ):
        registry = standard_predicates()
        models, skeleton, variants = _lseg_batch(registry)
        checker = _canonical_checker(registry)
        tier = PersistentCache(tmp_path / "cache.sqlite", registry)
        tier.attach(checker)
        checker.check_batch(models, skeleton, variants)
        assert tier.flush(checker, final=False)["stream"] > 0
        rows = tier.store.stats()["entries"]

        memo = checker._streams
        visits = []
        for name in ("get", "items", "keys", "values"):
            method = getattr(memo, name)

            def counted(*args, _name=name, _method=method):
                visits.append(_name)
                return _method(*args)

            monkeypatch.setattr(memo, name, counted)
        written = tier.flush(checker, final=False)
        assert written == {"stream": 0}
        assert visits == []
        assert tier.store.stats()["entries"] == rows

    def test_stream_finished_after_a_flush_is_written_by_the_next(self, tmp_path):
        registry = standard_predicates()
        models, skeleton, _ = _lseg_batch(registry)
        checker = _canonical_checker(registry)
        tier = PersistentCache(tmp_path / "cache.sqlite", registry)
        tier.attach(checker)
        model = models[0]
        stream, _ = checker._get_stream(skeleton, model, 0, model.stack_map["x"])
        # In the memo but not enumerated yet: nothing to write.
        assert tier.flush(checker, final=False)["stream"] == 0
        assert stream.ensure()
        assert tier.flush(checker, final=False)["stream"] == 1
        assert tier.flush(checker, final=False)["stream"] == 0

    def test_a_flush_behind_the_trimmed_log_visits_the_whole_memo(
        self, tmp_path, monkeypatch
    ):
        """A stream whose log entry was trimmed away before any flush read
        it is still written, and the rows the tier knows are skipped."""
        registry = standard_predicates()
        models, skeleton, _ = _lseg_batch(registry)
        checker = _canonical_checker(registry)
        tier = PersistentCache(tmp_path / "cache.sqlite", registry)
        tier.attach(checker)
        written = []
        put_many = tier.store.put_many

        def recorded(fingerprint, kind, rows):
            written.append([key for key, _ in rows])
            return put_many(fingerprint, kind, rows)

        monkeypatch.setattr(tier.store, "put_many", recorded)
        first, second = models
        stream, _ = checker._get_stream(skeleton, first, 0, first.stack_map["x"])
        assert stream.ensure()
        assert tier.flush(checker, final=False)["stream"] == 1
        memo = checker._streams
        monkeypatch.setattr(stream_module, "_FINISHED_LOG_LIMIT", 1)
        late, _ = checker._get_stream(skeleton, second, 0, second.stack_map["x"])
        assert late.ensure()
        assert memo.finished == [] and memo.finished_dropped == 2
        assert tier.flush(checker, final=False)["stream"] == 1
        late_key = next(key for key, value in memo.items() if value is late)
        assert written[-1] == [stable_key_bytes(late_key[1:])]
        assert tier.flush(checker, final=False)["stream"] == 0
        assert written[-1] == []


# ---------------------------------------------------------------------------
# eviction
# ---------------------------------------------------------------------------


class TestEviction:
    def test_eviction_drops_least_recent_lowest_hits_first(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "DEFAULT_MAX_ENTRIES", 2)
        store = CacheStore(tmp_path / "c.sqlite")
        store.put_many("fp", "stream", [(b"a", b"1")], now=100.0)
        store.put_many("fp", "stream", [(b"b", b"2")], now=200.0)
        store.put_many("fp", "stream", [(b"c", b"3")], now=300.0)
        # Bump "a": despite being oldest-inserted it is now most recent.
        store.touch_many("fp", "stream", [b"a"], now=400.0)
        evicted = store.evict_over_cap()
        assert evicted == 1
        assert store.get("fp", "stream", b"b") is None  # stalest row lost
        assert store.get("fp", "stream", b"a") == b"1"
        assert store.get("fp", "stream", b"c") == b"3"

    def test_hit_count_breaks_recency_ties(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "DEFAULT_MAX_ENTRIES", 1)
        store = CacheStore(tmp_path / "c.sqlite")
        store.put_many("fp", "stream", [(b"a", b"1"), (b"b", b"2")], now=100.0)
        store.touch_many("fp", "stream", [b"b"], now=100.0)  # same recency, +1 hit
        assert store.evict_over_cap() == 1
        assert store.get("fp", "stream", b"a") is None
        assert store.get("fp", "stream", b"b") == b"2"

    def test_tier_counts_evictions(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "DEFAULT_MAX_ENTRIES", 1)
        registry = standard_predicates()
        models, skeleton, variants = _lseg_batch(registry)
        checker = _canonical_checker(registry)
        tier = PersistentCache(tmp_path / "c.sqlite", registry)
        tier.attach(checker)
        checker.check_batch(models, skeleton, variants)
        tier.flush(checker)
        assert checker.stats.disk_evictions > 0
        assert checker.stats.cache_file_bytes > 0


# ---------------------------------------------------------------------------
# invalidation: fingerprint and schema version
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_fingerprint_is_stable_across_fresh_registries(self):
        assert registry_fingerprint(standard_predicates()) == registry_fingerprint(
            standard_predicates()
        )
        assert registry_fingerprint(predicates_for("sll")) == registry_fingerprint(
            predicates_for("sll")
        )

    def test_fingerprint_distinguishes_definitions(self):
        full = registry_fingerprint(standard_predicates())
        subset = registry_fingerprint(predicates_for("sll"))
        assert full != subset

    def test_rows_from_other_fingerprints_are_invisible(self, tmp_path):
        registry = standard_predicates()
        models, skeleton, variants = _lseg_batch(registry)
        checker = _canonical_checker(registry)
        tier = PersistentCache(tmp_path / "c.sqlite", registry)
        tier.attach(checker)
        checker.check_batch(models, skeleton, variants)
        tier.flush(checker)
        assert tier.store.stats()["entries"] > 0

        # Same file, different predicate definitions: nothing matches, and
        # nothing is destroyed either.
        other = predicates_for("sll")
        other_checker = _canonical_checker(other)
        other_tier = PersistentCache(tmp_path / "c.sqlite", other)
        other_tier.attach(other_checker)
        assert other_checker.stats.disk_hits == 0
        stats = other_tier.store.stats()
        assert stats["fingerprints"].get(tier.fingerprint)


class TestSchemaVersion:
    def test_version_bump_wipes_entries_without_crashing(self, tmp_path, monkeypatch):
        path = tmp_path / "c.sqlite"
        store = CacheStore(path)
        store.put_many("fp", "stream", [(b"a", b"1")])
        store.close()

        monkeypatch.setattr(store_module, "CACHE_SCHEMA_VERSION", 999)
        bumped = CacheStore(path)
        assert bumped.get("fp", "stream", b"a") is None
        assert bumped.stats()["entries"] == 0
        assert bumped.stats()["schema_version"] == 999
        bumped.close()

        # And the wipe was persisted: reopening under the old version wipes
        # again rather than resurrecting the old rows.
        monkeypatch.setattr(store_module, "CACHE_SCHEMA_VERSION", 1)
        reopened = CacheStore(path)
        assert reopened.stats()["entries"] == 0
        reopened.close()

    def test_import_refuses_other_schema_version(self, tmp_path):
        store = CacheStore(tmp_path / "c.sqlite")
        merged = store.import_rows({"schema_version": -1, "rows": [("f", "k", b"a", b"1", 0, 0.0, 0.0)]})
        assert merged == 0
        assert store.load_errors == 1
        store.close()


# ---------------------------------------------------------------------------
# graceful degradation on broken cache files
# ---------------------------------------------------------------------------


def _run_with_cache(path) -> tuple[list[str], dict]:
    from repro.benchsuite.registry import get_benchmark

    benchmark = get_benchmark("sll/insertFront")
    sling = Sling(
        benchmark.program,
        benchmark.predicates,
        SlingConfig(discard_crashed_runs=True, persistent_cache=path),
    )
    spec = sling.infer_function(benchmark.function, benchmark.test_cases(0))
    return [inv.pretty() for inv in spec.all_invariants()], sling.cache_stats()


def _run_cold() -> list[str]:
    from repro.benchsuite.registry import get_benchmark

    benchmark = get_benchmark("sll/insertFront")
    sling = Sling(
        benchmark.program, benchmark.predicates, SlingConfig(discard_crashed_runs=True)
    )
    spec = sling.infer_function(benchmark.function, benchmark.test_cases(0))
    return [inv.pretty() for inv in spec.all_invariants()]


class TestCorruptionFallback:
    def test_garbage_cache_file_degrades_to_cold_run(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"this is not a sqlite database, not even close\x00\xff" * 64)
        invariants, stats = _run_with_cache(str(path))
        assert invariants == _run_cold()
        assert stats["disk_load_errors"] > 0
        assert stats["disk_hits"] == 0

    def test_truncated_cache_file_degrades_to_cold_run(self, tmp_path):
        path = tmp_path / "truncated.sqlite"
        # Write a real cache file, then cut it in half.
        _run_with_cache(str(path))
        raw = path.read_bytes()
        assert len(raw) > 512
        path.write_bytes(raw[: len(raw) // 2])
        for sidecar in (str(path) + "-wal", str(path) + "-shm"):
            if os.path.exists(sidecar):
                os.unlink(sidecar)
        invariants, stats = _run_with_cache(str(path))
        assert invariants == _run_cold()
        assert stats["disk_load_errors"] > 0

    def test_zero_byte_cache_file_works_as_empty_store(self, tmp_path):
        # sqlite treats an empty file as a fresh database: a zero-byte cache
        # is simply cold, not an error.
        path = tmp_path / "empty.sqlite"
        path.write_bytes(b"")
        invariants, stats = _run_with_cache(str(path))
        assert invariants == _run_cold()
        assert stats["disk_load_errors"] == 0
        assert stats["disk_misses"] > 0

    def test_undecodable_row_counts_and_misses(self, tmp_path):
        registry = standard_predicates()
        models, skeleton, variants = _lseg_batch(registry)
        checker = _canonical_checker(registry)
        tier = PersistentCache(tmp_path / "c.sqlite", registry)
        tier.attach(checker)
        checker.check_batch(models, skeleton, variants)
        tier.flush(checker)
        # Vandalize every stream payload in place.
        conn = sqlite3.connect(tier.store.path)
        conn.execute("UPDATE entries SET payload = X'DEADBEEF' WHERE kind = 'stream'")
        conn.commit()
        conn.close()
        tier.store.close()

        warm = _canonical_checker(registry)
        tier2 = PersistentCache(tmp_path / "c.sqlite", registry)
        tier2.attach(warm)
        outcomes = warm.check_batch(models, skeleton, variants)
        assert _outcome_key(outcomes) == _outcome_key(
            checker.check_batch(models, skeleton, variants)
        )
        assert warm.stats.disk_hits == 0
        assert warm.stats.disk_load_errors > 0

    def test_payload_naming_a_foreign_global_runs_no_code(self, tmp_path):
        # The shape of a crafted row (``repro cache import`` writes rows from
        # outside the program): unpickling it with plain ``pickle.loads``
        # would call ``open(marker, "w")``.
        marker = tmp_path / "unpickled"
        crafted = pickle.dumps(CreatesFileOnUnpickle(str(marker)))
        with pytest.raises(pickle.UnpicklingError):
            decode_stream(crafted)
        registry = standard_predicates()
        models, skeleton, variants = _lseg_batch(registry)
        checker = _canonical_checker(registry)
        tier = PersistentCache(tmp_path / "c.sqlite", registry)
        tier.attach(checker)
        checker.check_batch(models, skeleton, variants)
        tier.flush(checker)
        conn = sqlite3.connect(tier.store.path)
        conn.execute("UPDATE entries SET payload = ? WHERE kind = 'stream'", (crafted,))
        conn.commit()
        conn.close()
        tier.store.close()

        warm = _canonical_checker(registry)
        tier2 = PersistentCache(tmp_path / "c.sqlite", registry)
        tier2.attach(warm)
        warm.check_batch(models, skeleton, variants)
        assert warm.stats.disk_hits == 0
        assert warm.stats.disk_load_errors > 0
        assert not marker.exists()

    def test_unwritable_path_degrades_quietly(self, tmp_path):
        path = tmp_path / "not-a-dir"
        path.write_bytes(b"file where a directory is needed")
        target = path / "cache.sqlite"
        invariants, stats = _run_with_cache(str(target))
        assert invariants == _run_cold()
        assert stats["disk_load_errors"] > 0


# ---------------------------------------------------------------------------
# attach refusal (the PR 4 silent-downgrade gotcha)
# ---------------------------------------------------------------------------


class TestAttachRefusal:
    def test_checker_without_structs_is_refused(self, tmp_path):
        # ModelChecker built without structs= silently keeps concrete stream
        # keys (per-process heap addresses); the tier must refuse loudly
        # instead of persisting them.
        registry = standard_predicates()
        checker = ModelChecker(registry)  # no structs: the latent gotcha
        assert checker.structs is None
        tier = PersistentCache(tmp_path / "c.sqlite", registry)
        with pytest.raises(PersistentCacheError, match="structs"):
            tier.attach(checker)
        assert checker.persistent is None

    def test_sling_config_combination_is_refused(self, tmp_path):
        # A program without a struct registry cannot key streams
        # canonically, so a config asking for the disk tier is refused.
        from repro.benchsuite.registry import get_benchmark
        from repro.lang.ast import Program

        benchmark = get_benchmark("sll/insertFront")
        program = Program(None, benchmark.program.functions.values())
        with pytest.raises(PersistentCacheError, match="structs"):
            Sling(
                program,
                benchmark.predicates,
                SlingConfig(
                    discard_crashed_runs=True,
                    persistent_cache=str(tmp_path / "c.sqlite"),
                ),
            )
