"""Unit tests of the persistent cache tier (:mod:`repro.cache`).

Covers, per the cache's contract (``docs/performance.md``):

* round-trip serialization of the three persisted cache kinds -- EnvStream
  snapshots, learned refuters, unfolding-template keys;
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

import pytest

import repro.cache.store as store_module
from repro.cache import (
    CacheStore,
    PersistentCache,
    PersistentCacheError,
    registry_fingerprint,
)
from repro.cache.serialize import (
    decode_refuter,
    decode_stream,
    decode_unfold_key,
    encode_refuter,
    encode_stream,
    encode_unfold_key,
    stable_key_bytes,
)
from repro.core.infer_atom import Candidate, _candidate_variant
from repro.core.sling import Sling, SlingConfig
from repro.lang import standard_structs
from repro.sl.checker import ModelChecker, build_skeleton
from repro.sl.exprs import Nil, Var
from repro.sl.model import CanonicalForm, Heap, HeapCell, StackHeapModel, intern_form
from repro.sl.spatial import PredApp, SymHeap
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
        assert tier2.disk_hits > 0
        # Every complete stream came from disk; only incomplete ones (never
        # persisted) may have been re-solved.
        assert warm.stats.skeletons_solved <= cold.stats.skeletons_solved
        assert warm.stats.skeletons_solved == tier2.disk_misses


class TestRefuterRoundTrip:
    def test_refuter_form_reinterned_on_decode(self):
        structs = standard_structs()
        model = _sll_model(2)
        form = model.canonical(structs).form
        shape = ("lseg", 2, "shape-token")
        key_bytes, payload = encode_refuter(shape, form)
        decoded_shape, decoded_form = decode_refuter(payload)
        assert decoded_shape == shape
        assert decoded_form == form
        # Re-interning restores the process-wide identity fast path.
        assert decoded_form is intern_form(form.key)
        assert isinstance(key_bytes, bytes)

    def test_attach_preloads_refuters(self, tmp_path):
        registry = standard_predicates()
        models, skeleton, variants = _lseg_batch(registry)
        cold = _canonical_checker(registry)
        tier = PersistentCache(tmp_path / "cache.sqlite", registry)
        tier.attach(cold)
        cold.check_batch(models, skeleton, variants)
        persistable = sum(
            1 for value in cold._refuters.values() if isinstance(value, CanonicalForm)
        )
        tier.flush(cold)

        warm = _canonical_checker(registry)
        tier2 = PersistentCache(tmp_path / "cache.sqlite", registry)
        tier2.attach(warm)
        assert len(warm._refuters) == persistable
        for shape, value in warm._refuters.items():
            assert cold._refuters[shape] == value


class TestUnfoldRoundTrip:
    def test_template_keys_recompile_without_counter_drift(self):
        # predicates_for() builds fresh registries: independent unfold caches.
        source = predicates_for("sll")
        target = predicates_for("sll")
        predicate = source.get("sll")
        predicate.instantiate_case(1, [Var("a")])
        keys = predicate.unfold_cache_keys()
        assert keys

        rows = [encode_unfold_key("sll", index, key) for index, key in keys]
        fresh = target.get("sll")
        before = dict(fresh.unfold_cache_info())
        for _, payload in rows:
            name, index, key = decode_unfold_key(payload)
            assert name == "sll"
            assert fresh.warm_unfold_template(index, key)
        info = fresh.unfold_cache_info()
        assert sorted(fresh.unfold_cache_keys()) == sorted(keys)
        # Warming is invisible to the hit/miss counters (pinned baselines).
        assert info["hits"] == before["hits"]
        assert info["misses"] == before["misses"]

    def test_stale_case_index_is_skipped(self):
        predicate = predicates_for("sll").get("sll")
        assert predicate.warm_unfold_template(99, ("?a0",)) is False


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
        assert written == {"stream": 0, "refuter": 0, "unfold": 0}
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
        assert tier.disk_evictions > 0
        assert tier.cache_file_bytes > 0


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
        assert other_tier.disk_hits == 0
        assert not other_checker._refuters
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
        assert tier2.disk_hits == 0
        assert tier2.disk_load_errors > 0

    def test_payload_naming_a_foreign_global_runs_no_code(self, tmp_path):
        # The shape of a crafted row (``repro cache import`` writes rows from
        # outside the program): unpickling it with plain ``pickle.loads``
        # would call ``open(marker, "w")``.
        marker = tmp_path / "unpickled"
        crafted = pickle.dumps(CreatesFileOnUnpickle(str(marker)))
        for decode in (decode_stream, decode_refuter, decode_unfold_key):
            with pytest.raises(pickle.UnpicklingError):
                decode(crafted)
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
        assert tier2.disk_hits == 0
        assert tier2.disk_load_errors > 0
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
