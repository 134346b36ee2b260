"""The one declaration of every work and cache counter.

:class:`CacheStats` is a leaf: the checker (:mod:`repro.sl.checker`) counts
into one directly, the driver (:mod:`repro.core.sling`) adds its own
counters to the same struct, and the engine carries one per job.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class CacheStats:
    """Memoization and candidate-screening counters, for one job.

    A :class:`~repro.sl.checker.ModelChecker` counts into its own instance
    (``checker.stats``), the driver adds its memo counters and the disk tier
    its lookups to that same instance, and ``Sling.cache_counters``
    snapshots it.

    The one declaration of every counter: ``merge`` and ``as_dict`` are
    derived from these fields.  A field sums when batches merge unless its
    metadata says ``{"merge": "max"}`` (a depth or a size, not a volume:
    the batch value is the largest any job observed); ``{"rate": name}``
    renders that rate property right after the field in ``as_dict``.

    The screening counters (``candidates_*``, ``refuted_by_first_model``)
    measure the fail-fast pipeline of Algorithm 2: candidates enumerated,
    candidates rejected by the semantic pre-filter without any checker call,
    candidates actually checked, and ``check_all`` calls settled by the
    first model tried.  They extend -- never replace -- the original cache
    schema, so existing consumers keep working.
    """

    #: Exact per-candidate reductions run (``ModelChecker.check`` calls).
    checker_misses: int = 0
    # Predicate unfoldings the search instantiated from a compiled template
    # (hits) or had to compile, or instantiate uncached (misses); see
    # ``InductivePredicate.instantiate_case_goals``.
    unfold_hits: int = 0
    unfold_misses: int = field(default=0, metadata={"rate": "unfold_hit_rate"})
    # Per-inference (variable, models) memo of the driver: Algorithm 2 runs
    # shared among result branches (see ``Sling.infer_from_models``).
    atom_cache_hits: int = 0
    atom_cache_misses: int = 0
    candidates_generated: int = 0
    candidates_prefiltered: int = 0
    candidates_checked: int = field(default=0, metadata={"rate": "prefilter_rate"})
    refuted_by_first_model: int = 0
    pruned_cases: int = 0
    max_trail_depth: int = field(default=0, metadata={"merge": "max"})
    # Skeleton-batching counters (``ModelChecker.check_batch``): groups
    # formed, skeleton searches run, env-stream memo reuses (including
    # streams an earlier job of the same engine batch solved), compiled
    # pure-variant evaluations, exact-search fallbacks.
    candidate_groups: int = 0
    skeletons_solved: int = 0
    env_stream_reuses: int = field(default=0, metadata={"rate": "stream_reuse_rate"})
    pure_variant_evals: int = 0
    batch_exact_fallbacks: int = 0
    #: Stream-memo hits that only canonical keying made possible: the
    #: consumer's heap is an address-renamed copy of the one the stream was
    #: solved on (see ``docs/performance.md``).
    canonical_stream_hits: int = 0
    # Columnar-kernel counters (``repro.sl.kernels``): group-kernel
    # invocations, variants resolved via posting-list intersection over the
    # stream slot indexes, and full entry scans actually run for pin-free
    # variants (settle-record cache misses; at most one per invocation).
    # All zero under ``SlingConfig.reference_search``.
    kernel_groups: int = 0
    stream_index_hits: int = 0
    kernel_scan_fallbacks: int = 0
    # Persistent-cache counters (:mod:`repro.cache`): skeleton streams
    # served from / missed by the disk tier, rows evicted by the size cap,
    # on-disk cache size, and failures absorbed (corruption, version skew,
    # undecodable rows), counted in place by the disk tier and its store.
    # All zero unless ``SlingConfig.persistent_cache`` is set -- the
    # search-guard baselines pin exactly that.
    disk_hits: int = 0
    disk_misses: int = field(default=0, metadata={"rate": "disk_hit_rate"})
    disk_evictions: int = 0
    cache_file_bytes: int = field(default=0, metadata={"merge": "max"})
    disk_load_errors: int = 0
    # Resilience counters (see ``docs/resilience.md``): transient-failure
    # retries consumed, pool workers respawned after a death, jobs
    # quarantined as poison, pool-healing rounds, jobs that ran in the
    # degraded sequential fallback, and faults fired by the injector
    # (:mod:`repro.faults`).  All exactly zero for fault-free runs with
    # ``SlingConfig.fault_plan`` unset -- the search-guard baselines pin
    # that, like every prior knob.
    jobs_retried: int = 0
    workers_respawned: int = 0
    jobs_poisoned: int = 0
    pool_rebuilds: int = 0
    degraded_sequential: int = 0
    faults_injected: int = 0
    # Serving-layer counters (:mod:`repro.serve`, see ``docs/serving.md``):
    # requests admitted by the daemon, the deepest the bounded job queue
    # ever got, requests rejected by admission control, requests whose
    # deadline expired with partial results, requests cancelled because
    # their client vanished, and journaled requests re-run after a daemon
    # restart.  All exactly zero outside serve mode -- the search-guard
    # baselines pin that, like every prior subsystem.
    serve_requests: int = 0
    serve_queue_high_water: int = field(default=0, metadata={"merge": "max"})
    serve_rejections: int = 0
    serve_deadline_expiries: int = 0
    serve_client_disconnects: int = 0
    serve_requests_resumed: int = 0
    #: Locations served whole from the stream memo's location results: an
    #: earlier job of the engine batch inferred the same models (see
    #: ``Sling.infer_from_models``).  A hit runs no search, so no work
    #: counter above counts it.  Declared last so that the JSON key order
    #: of every earlier counter stays as it was.
    location_memo_hits: int = 0
    #: Functions served whole from the same shared memo: an earlier job
    #: ran the same program on the same built inputs (see
    #: ``Sling.infer_function``), so no test case ran under the tracer, no
    #: location result was looked up and no frame-rule check ran for it.
    function_memo_hits: int = 0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another job's counters into this one."""
        for name, keep_max, _ in _COUNTERS:
            mine, theirs = getattr(self, name), getattr(other, name)
            setattr(self, name, max(mine, theirs) if keep_max else mine + theirs)

    @property
    def unfold_hit_rate(self) -> float:
        total = self.unfold_hits + self.unfold_misses
        return self.unfold_hits / total if total else 0.0

    @property
    def prefilter_rate(self) -> float:
        """Fraction of generated candidates rejected before any check."""
        total = self.candidates_generated
        return self.candidates_prefiltered / total if total else 0.0

    @property
    def stream_reuse_rate(self) -> float:
        """Fraction of skeleton-stream requests served from the memo."""
        total = self.skeletons_solved + self.env_stream_reuses
        return self.env_stream_reuses / total if total else 0.0

    @property
    def disk_hit_rate(self) -> float:
        """Fraction of disk-tier stream lookups served from the cache file."""
        total = self.disk_hits + self.disk_misses
        return self.disk_hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Every counter in declaration order, each rate after its counters."""
        data: dict[str, float] = {}
        for name, _, rate in _COUNTERS:
            data[name] = getattr(self, name)
            if rate is not None:
                data[rate] = round(getattr(self, rate), 4)
        return data


#: ``(field, merges by max, rate rendered after it)`` for every
#: :class:`CacheStats` field in declaration order: the one table that
#: ``merge`` and ``as_dict`` walk, derived from the field declarations.
_COUNTERS = tuple(
    (spec.name, spec.metadata.get("merge") == "max", spec.metadata.get("rate"))
    for spec in fields(CacheStats)
)
