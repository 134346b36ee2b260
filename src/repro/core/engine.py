"""Parallel batch-inference engine.

The engine is the one entry point through which every harness (the Table 1 /
Table 2 evaluations, the CLI, the performance benchmarks) runs SLING over
benchmark programs.  It accepts a batch of :class:`EngineJob` descriptions --
(benchmark, kind, seed, configuration) tuples -- and executes them either
inline (``jobs=1``) or fanned out over a ``multiprocessing`` worker pool,
returning one structured :class:`EngineReport` per job **in job order**.

Design notes
------------

* Jobs are *named*, not closured: a job carries the registry name of its
  benchmark (e.g. ``"sll/insertFront"``) and the worker resolves it through
  :mod:`repro.benchsuite.registry` on its side of the fork.  Benchmark
  objects hold test-case closures and are deliberately never pickled.
* Workers never raise: failures (including timeouts enforced by the parent)
  are reported as ``ok=False`` reports with the error message preserved, so
  a single crashing benchmark cannot take down a full-suite sweep.
* Determinism: inference is deterministic per (benchmark, seed, config) --
  the candidate search, the model checker and the existential-renaming
  normalization are all order-stable -- so ``jobs=N`` produces exactly the
  same invariants as ``jobs=1``, merely faster.  :func:`benchmark_engine`
  asserts this property on every run (a divergence raises
  :class:`EngineError`).
* Cache accounting: each report carries the checker and
  predicate-unfolding cache counters (:class:`CacheStats`) measured inside
  the worker for exactly that job.  A Table 1 payload carries that same
  struct (``ProgramResult.cache is report.cache``; one pickle per report
  keeps the identity across the fork), so the healing counters the parent
  stamps onto the report are the payload's too.
* Self-healing: the worker pool is supervised through a claim/done
  protocol (a crash-proof shared-memory claim slot per worker plus a
  result queue), so a worker death (segfault, OOM kill, an injected
  ``os._exit``) fails only the job that was actually running on the dead
  worker.  That job is retried on a respawned worker with seeded
  exponential backoff (``max_retries``); a job that kills a worker *twice*
  is quarantined as poison (``error="poisoned"``, never a third respawn);
  and after ``max_pool_rebuilds`` healing rounds the engine degrades to
  in-process sequential execution -- warned, counted, and bit-identical,
  because sequential execution is the reference the pool must reproduce
  anyway.  See ``docs/resilience.md``.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

from repro.core.sling import SlingConfig
from repro.faults import (
    backoff_delays,
    enable_lethal_faults,
    injection_count,
    maybe_inject,
    set_current_attempt,
)
from repro.telemetry import monotime

log = logging.getLogger("repro.engine")

#: Job kinds understood by :func:`execute_job`.
JOB_KINDS = ("spec", "table1", "table2")


class EngineError(RuntimeError):
    """A batch run failed in a way the caller did not ask to tolerate."""


class TransientFault(EngineError):
    """A failure worth retrying: worker loss, injected I/O faults, timeouts
    (the latter only when the engine was built with ``retry_timeouts``)."""


class PermanentFault(EngineError):
    """A deterministic failure: retrying would reproduce it exactly."""


class PoisonedJob(EngineError):
    """A job that killed two workers; quarantined, never respawned again."""


def classify_failure(report: "EngineReport", retry_timeouts: bool = False):
    """The taxonomy class of a failed report (``None`` for ``ok`` ones).

    Worker-side failures cross the fork boundary as strings, so the
    classification reads :attr:`EngineReport.error`: worker loss and
    injected faults tagged ``[transient]`` are :class:`TransientFault`,
    timeouts are transient only if the caller opted in (a timeout usually
    reproduces -- the job is simply too slow), quarantined jobs are
    :class:`PoisonedJob`, everything else -- ordinary exceptions inside the
    job -- is a :class:`PermanentFault` that a retry would only repeat.
    """
    if report.ok or report.error is None:
        return None
    error = report.error
    if error.startswith("poisoned"):
        return PoisonedJob
    if error.startswith("worker lost"):
        return TransientFault
    if report.timed_out:
        return TransientFault if retry_timeouts else PermanentFault
    if "InjectedFault" in error and "[transient]" in error:
        return TransientFault
    return PermanentFault


@dataclass(frozen=True)
class EngineJob:
    """One unit of work for the engine.

    ``kind`` selects the payload computed by the worker:

    ``"spec"``
        Run full specification inference; payload is a :class:`SpecPayload`.
    ``"table1"``
        Payload is a :class:`repro.evaluation.table1.ProgramResult`.
    ``"table2"``
        Payload is a :class:`repro.evaluation.table2.BenchmarkComparison`.

    ``timeout`` (seconds) overrides the engine-wide ``job_timeout``.  It is a
    true per-job wall-clock budget, enforced *inside* the executing process
    with an interval timer (the inference search is pure Python, so the
    resulting alarm always interrupts it); a timed-out job yields an
    ``ok=False`` report whose :attr:`EngineReport.timed_out` is true.
    """

    kind: str
    benchmark: str
    seed: int = 0
    config: SlingConfig | None = None
    timeout: float | None = None
    #: Retry attempt (0 = first try).  Set by the engine when it resubmits
    #: a transiently failed job; fault rules can filter on it, which is how
    #: a chaos plan expresses "kill the first attempt, spare the retry".
    attempt: int = 0


@dataclass
class CacheStats:
    """Memoization and candidate-screening counters, for one job.

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
    # formed, skeleton searches run, env-stream memo reuses, compiled
    # pure-variant evaluations, exact-search fallbacks.
    candidate_groups: int = 0
    skeletons_solved: int = 0
    env_stream_reuses: int = field(default=0, metadata={"rate": "stream_reuse_rate"})
    pure_variant_evals: int = 0
    batch_exact_fallbacks: int = 0
    # Canonical-interning counters (isomorphism dedup in the driver and
    # canonical stream keys in the checker; see ``docs/performance.md``):
    # isomorphism classes formed, member models replayed from a class
    # representative, stream-memo hits that only canonical keying made
    # possible, and models that took the exact per-model path anyway
    # (exactness guard, or a location rolled back after an order-dependent
    # checker selection).
    iso_classes: int = 0
    models_deduped: int = 0
    canonical_stream_hits: int = 0
    iso_exact_fallbacks: int = 0
    #: Exact-search selections that were enumeration-order dependent (see
    #: :class:`repro.sl.screen.ScreeningStats`).
    exact_selection_ambiguities: int = 0
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
    # undecodable rows).  All zero unless ``SlingConfig.persistent_cache``
    # is set -- the search-guard baselines pin exactly that.
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


@dataclass
class EngineReport:
    """The structured outcome of one job (success or failure)."""

    job: EngineJob
    ok: bool
    error: str | None
    seconds: float
    cache: CacheStats = field(default_factory=CacheStats)
    payload: object | None = None

    @property
    def timed_out(self) -> bool:
        return not self.ok and self.error is not None and self.error.startswith("timeout")


@dataclass
class SpecPayload:
    """Payload of a ``"spec"`` job: the inferred specification."""

    benchmark: str
    function: str
    specification: object  # repro.core.results.Specification


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _JobTimeout(Exception):
    """Raised inside a job when its wall-clock budget expires."""


def _raise_job_timeout(signum, frame):  # noqa: ARG001 -- signal handler shape
    raise _JobTimeout


def execute_job(job: EngineJob) -> EngineReport:
    """Run one job to completion, converting any failure into a report.

    This is the function submitted to pool workers; it is also what
    ``jobs=1`` runs inline, so sequential and parallel execution share one
    code path -- including timeout enforcement, which uses ``SIGALRM`` and
    therefore measures each job individually (not batch wall-clock).
    Timeouts are skipped off the main thread, where signals cannot be
    delivered.

    With ``job.config.telemetry`` set, the whole execution is wrapped in a
    ``job`` span carrying the job's cache counters as attributes, plus one
    ``counters`` snapshot record.  Inline runs nest the span under the
    caller's open sweep span; pool workers write root spans into their
    segment file, re-parented at merge time (see ``InferenceEngine``).
    """
    telemetry = job.config.telemetry if job.config is not None else None
    if telemetry is None:
        return _execute_job(job)
    tracer = telemetry.tracer()
    with tracer.span("job", name=job.benchmark, job_kind=job.kind, seed=job.seed) as span:
        report = _execute_job(job)
        span.set(
            ok=report.ok,
            seconds=round(report.seconds, 6),
            counters={
                key: value
                for key, value in report.cache.as_dict().items()
                if isinstance(value, int) and value
            },
        )
    tracer.counters(job.benchmark, report.cache.as_dict())
    return report


def _execute_job(job: EngineJob) -> EngineReport:
    start = monotime()
    plan = job.config.fault_plan if job.config is not None else None
    if plan is not None:
        set_current_attempt(job.attempt)
        faults_before = injection_count(plan)
    try:
        report = _execute_with_timer(job, start)
    except _JobTimeout:
        # The alarm can also fire in the narrow window after _dispatch
        # returns (or while a failure report is being built) but before the
        # timer is cleared; catch it here so workers never raise.
        report = EngineReport(
            job=job,
            ok=False,
            error=f"timeout after {job.timeout:.3g}s",
            seconds=monotime() - start,
        )
    if plan is not None:
        # Faults fired while this job executed (injections that killed the
        # worker outright are necessarily lost with it; they surface in the
        # parent's workers_respawned instead).
        report.cache.faults_injected += injection_count(plan) - faults_before
        set_current_attempt(None)
    return report


def _execute_with_timer(job: EngineJob, start: float) -> EngineReport:
    use_timer = (
        job.timeout is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    previous_handler = None
    try:
        if use_timer:
            previous_handler = signal.signal(signal.SIGALRM, _raise_job_timeout)
            signal.setitimer(signal.ITIMER_REAL, job.timeout)
        if job.config is not None and job.config.fault_plan is not None:
            # Under the timer, so an injected hang is resolved by the job's
            # own timeout exactly like a real stuck job would be.
            maybe_inject(
                job.config.fault_plan,
                "job_exec",
                qualifier=job.benchmark,
                attempt=job.attempt,
            )
        payload, cache = _dispatch(job)
    except _JobTimeout:
        return EngineReport(
            job=job,
            ok=False,
            error=f"timeout after {job.timeout:.3g}s",
            seconds=monotime() - start,
        )
    except Exception as exc:  # noqa: BLE001 -- reported, not swallowed
        return EngineReport(
            job=job,
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            seconds=monotime() - start,
        )
    finally:
        if use_timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous_handler)
    return EngineReport(
        job=job,
        ok=True,
        error=None,
        seconds=monotime() - start,
        cache=cache,
        payload=payload,
    )


def _dispatch(job: EngineJob) -> tuple[object, CacheStats]:
    """Resolve the benchmark by name and compute the job's payload."""
    # Imports are deliberately local: the registry and evaluation modules
    # import repro.core, and workers only need them at execution time.
    from repro.benchsuite.registry import get_benchmark

    if job.kind not in JOB_KINDS:
        raise EngineError(f"unknown job kind {job.kind!r} (expected one of {JOB_KINDS})")
    benchmark = get_benchmark(job.benchmark)

    if job.kind == "table1":
        from repro.evaluation.table1 import evaluate_program

        result = evaluate_program(benchmark, config=job.config, seed=job.seed)
        return result, result.cache

    if job.kind == "table2":
        from repro.evaluation.table2 import compare_benchmark

        comparison, cache = compare_benchmark(benchmark, config=job.config, seed=job.seed)
        return comparison, cache

    # job.kind == "spec"
    from repro.core.sling import Sling

    config = job.config or SlingConfig(discard_crashed_runs=True)
    unfold_before = benchmark.predicates.unfold_stats()
    sling = Sling(benchmark.program, benchmark.predicates, config)
    specification = sling.infer_function(benchmark.function, benchmark.test_cases(job.seed))
    cache = collect_cache_stats(sling, unfold_before)
    return (
        SpecPayload(
            benchmark=benchmark.name,
            function=benchmark.function,
            specification=specification,
        ),
        cache,
    )


def collect_cache_stats(sling, unfold_before: dict[str, int] | None = None) -> CacheStats:
    """Snapshot a :class:`~repro.core.sling.Sling`'s cache counters.

    The unfolding caches live on the (shared, long-lived) predicate registry,
    so callers that want per-run numbers pass the registry's counters from
    before the run and get the difference.
    """
    stats = sling.cache_counters()
    if unfold_before:
        stats.unfold_hits -= unfold_before["hits"]
        stats.unfold_misses -= unfold_before["misses"]
    return stats


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class InferenceEngine:
    """Runs batches of :class:`EngineJob` with bounded parallelism.

    Parameters
    ----------
    jobs:
        Worker-pool size.  ``1`` (the default) executes inline in the
        calling process -- no fork, no pickling -- which is also the
        reference behaviour parallel runs must reproduce bit-for-bit.
    job_timeout:
        Default per-job timeout in seconds (see :class:`EngineJob.timeout`).
        ``None`` waits indefinitely.  Enforced per job by an interval timer
        inside the executing process, so it works for inline runs too.
    warm_pool:
        Populate the shared, copy-on-write worker state *before* forking the
        pool: the benchmark registry is imported, every predicate's case
        screens are compiled, and -- crucially for the canonical-interning
        layer -- whatever canonical forms the parent process has already
        interned (e.g. by a preceding sequential sweep) are inherited by
        every worker instead of being re-derived per job.  Only observable
        as fork-time state; results are identical either way.
    max_retries:
        Retry budget per job for *transient* failures (worker loss,
        injected I/O faults, and -- with ``retry_timeouts`` -- timeouts),
        with seeded exponential backoff + jitter between attempts (see
        :func:`repro.faults.backoff_delays`).  Permanent failures
        (ordinary exceptions inside the job) are never retried: they would
        reproduce deterministically.
    retry_timeouts:
        Treat job timeouts as transient (off by default: a timeout usually
        means the job is simply too slow, and retrying doubles the cost of
        finding that out).
    max_pool_rebuilds:
        Healing rounds tolerated before the engine gives up on pools
        entirely and runs the remaining jobs inline, sequentially, in the
        parent process -- warned, counted per job (``degraded_sequential``)
        and bit-identical, since sequential execution is the reference the
        pool must reproduce anyway.
    """

    def __init__(
        self,
        jobs: int = 1,
        job_timeout: float | None = None,
        warm_pool: bool = True,
        max_retries: int = 2,
        retry_timeouts: bool = False,
        max_pool_rebuilds: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ):
        if jobs < 1:
            raise EngineError(f"engine needs at least one worker, got jobs={jobs}")
        if max_retries < 0:
            raise EngineError(f"max_retries must be >= 0, got {max_retries}")
        self.jobs = jobs
        self.job_timeout = job_timeout
        self.warm_pool = warm_pool
        self.max_retries = max_retries
        self.retry_timeouts = retry_timeouts
        self.max_pool_rebuilds = max_pool_rebuilds
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap

    def run(
        self,
        batch: Sequence[EngineJob],
        on_report: Callable[[int, EngineReport], None] | None = None,
        cancel: Callable[[], str | None] | None = None,
        timeout_for: Callable[[EngineJob], float | None] | None = None,
    ) -> list[EngineReport]:
        """Execute a batch and return one report per job, in job order.

        ``on_report`` is the incremental-results hook of the serving layer:
        it is called exactly once per job, with ``(batch index, report)``,
        the moment that job's report becomes final -- in completion order,
        which for pool runs is not batch order.  Exceptions it raises are
        the caller's problem; keep it cheap (hand off to a queue).

        ``cancel`` is polled between inline jobs and on every supervisor
        poll (~50ms).  The first non-``None`` reason it returns cancels the
        batch: jobs still waiting settle immediately as ``ok=False`` with
        ``error="cancelled: <reason>"``, and in-flight pool jobs are killed
        through the claim-slot machinery (the worker that claimed the job
        is terminated and the job is *not* retried -- cancellation is
        deliberate, not a worker fault).  Inline in-flight jobs cannot be
        interrupted this way; give them a ``timeout`` when the caller needs
        a hard bound (the serve daemon does exactly that for deadlines).

        ``timeout_for`` overrides a job's ``timeout`` at the moment the job
        is (re)submitted for execution, not at batch start.  This is how a
        shrinking wall-clock budget (the serve daemon's per-request
        deadline) stays accurate for the later jobs of a batch: each one is
        stamped with only the budget remaining when it actually starts.
        """
        # Bake the engine-wide default timeout into each job so the executing
        # process (inline or pool worker) enforces it locally.
        batch = [
            replace(job, timeout=self.job_timeout)
            if job.timeout is None and self.job_timeout is not None
            else job
            for job in batch
        ]
        if not batch:
            return []
        if self.jobs == 1 or len(batch) == 1:
            reports = []
            for index, job in enumerate(batch):
                reason = cancel() if cancel is not None else None
                if reason is not None:
                    report = EngineReport(
                        job=job, ok=False, error=f"cancelled: {reason}", seconds=0.0
                    )
                else:
                    if timeout_for is not None:
                        job = replace(job, timeout=timeout_for(job))
                    report = self._execute_inline(job)
                if on_report is not None:
                    on_report(index, report)
                reports.append(report)
            return reports
        return self._run_pool(
            batch, on_report=on_report, cancel=cancel, timeout_for=timeout_for
        )

    def _execute_inline(self, job: EngineJob) -> EngineReport:
        """Run one job in this process, with the same retry policy as the pool.

        ``exit`` fault actions are downgraded to raises outside pool
        workers (see :mod:`repro.faults`), so inline execution retries them
        like any other transient fault instead of dying.
        """
        report, used = _execute_with_retries(
            job,
            max_retries=self.max_retries,
            retry_timeouts=self.retry_timeouts,
            backoff_seed=_backoff_seed(job),
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
        )
        if used:
            report.cache.jobs_retried += used
        return report

    def run_named(
        self,
        names: Sequence[str],
        kind: str = "spec",
        seed: int = 0,
        config: SlingConfig | None = None,
    ) -> list[EngineReport]:
        """Convenience wrapper: one ``kind`` job per benchmark name."""
        return self.run(
            [
                EngineJob(kind=kind, benchmark=name, seed=seed, config=config)
                for name in names
            ]
        )

    # ------------------------------------------------------------ internals --

    def _run_pool(
        self,
        batch: list[EngineJob],
        on_report: Callable[[int, EngineReport], None] | None = None,
        cancel: Callable[[], str | None] | None = None,
        timeout_for: Callable[[EngineJob], float | None] | None = None,
    ) -> list[EngineReport]:
        # Load the registry in the parent so forked workers inherit it and
        # do not re-import the benchmark modules once per process.
        from repro.benchsuite.registry import load_all

        load_all()
        if self.warm_pool:
            warm_worker_state()
        # Fork-after-load for the persistent cache: read each job's cache
        # file into the process-global preload table before the pool forks,
        # so every worker inherits the rows copy-on-write (the same trick
        # warm_worker_state relies on for the intern table) and stream
        # lookups need no per-worker sqlite reads.  Preload failures are
        # absorbed inside the store -- workers then simply read the file
        # themselves.
        preloaded: set[str] = set()
        for job in batch:
            cache_path = job.config.persistent_cache if job.config else None
            if cache_path is not None and str(cache_path) not in preloaded:
                from repro.cache import preload_cache_file

                preload_cache_file(cache_path)
                preloaded.add(str(cache_path))
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        supervisor = _PoolSupervisor(
            self, context, batch, on_report=on_report, cancel=cancel, timeout_for=timeout_for
        )
        try:
            reports = supervisor.run()
        finally:
            supervisor.shutdown()
        # Fold the workers' per-pid trace segments back into the main trace
        # file, re-parenting their job spans under the caller's open span.
        merged_telemetries: list[int] = []
        for job in batch:
            telemetry = job.config.telemetry if job.config else None
            if telemetry is not None and id(telemetry) not in merged_telemetries:
                merged_telemetries.append(id(telemetry))
                telemetry.merge_segments()
        return reports


# ---------------------------------------------------------------------------
# Self-healing pool
# ---------------------------------------------------------------------------

#: Parent-side healing counters stamped onto the guilty job's report.
_HEAL_FIELDS = (
    "jobs_retried",
    "workers_respawned",
    "jobs_poisoned",
    "pool_rebuilds",
    "degraded_sequential",
)


def _backoff_seed(job: EngineJob) -> int:
    plan = job.config.fault_plan if job.config is not None else None
    return plan.seed if plan is not None else 0


def _execute_with_retries(
    job: EngineJob,
    max_retries: int,
    retry_timeouts: bool,
    backoff_seed: int,
    backoff_base: float,
    backoff_cap: float,
    already_retried: int = 0,
    on_retry: Callable[[int], None] | None = None,
) -> tuple[EngineReport, int]:
    """Run a job in this process, retrying transient failures with backoff.

    Returns ``(report, retries_used_here)``.  ``already_retried`` carries
    retry budget a pool already consumed on this job before degrading.
    """
    import time

    retries = already_retried
    while True:
        report = execute_job(replace(job, attempt=retries) if retries else job)
        if report.ok:
            break
        if classify_failure(report, retry_timeouts) is not TransientFault:
            break
        if retries >= max_retries:
            break
        delays = backoff_delays(
            backoff_seed, job.benchmark, max_retries, backoff_base, backoff_cap
        )
        time.sleep(delays[retries])
        retries += 1
        if on_retry is not None:
            on_retry(retries)
    return report, retries - already_retried


def _pool_worker_main(task_queue, result_queue, plan, claim) -> None:
    """Entry point of one pool worker: claim, execute, report, repeat.

    ``claim`` is a shared-memory int slot, the worker's half of the
    start/done protocol the supervisor heals from: the worker writes the
    job index into it *before* executing and clears it (back to -1) after
    the report is on the result queue.  The write is a plain synchronous
    store -- unlike a queue message, whose feeder thread an ``os._exit``
    (or a segfault) can outrun -- so a worker that dies mid-job always
    leaves its claim behind and is blamed for exactly that job.
    """
    # Only pool workers may actually die from an ``exit`` fault -- the same
    # plan running inline (or in the degraded sequential fallback) must
    # never kill the parent process.
    enable_lethal_faults(True)
    pid = os.getpid()
    if plan is not None:
        # Fresh matching state regardless of what the forked parent did:
        # per-worker rule counters are what make respawn-and-retry
        # scenarios ("kill the first attempt only") deterministic.
        from repro.faults.plan import reset_injector

        reset_injector(plan)
        maybe_inject(plan, "worker_start", qualifier=str(pid))
    while True:
        item = task_queue.get()
        if item is None:
            return
        index, job = item
        claim.value = index
        report = execute_job(job)
        result_queue.put(("done", index, report, pid))
        # Cleared only after the put returned: dying while the done message
        # is still in the queue's feeder buffer then still reads as a death
        # *on this job*, which retries it -- a lost result never strands it.
        claim.value = -1


@dataclass
class _JobState:
    """Supervisor-side bookkeeping for one submitted job."""

    job: EngineJob
    retries: int = 0
    worker_deaths: int = 0
    heal: dict = field(default_factory=lambda: dict.fromkeys(_HEAL_FIELDS, 0))


class _PoolSupervisor:
    """Owns the worker pool of one batch and heals it (see the engine docs).

    The protocol: jobs go into a shared task queue; each worker claims the
    job it is about to run by writing its index into a shared-memory slot
    (crash-proof: a queue message can die with the sender's feeder thread,
    a memory store cannot) and returns it with ``("done", index, report,
    pid)``.  The supervisor polls the result queue, reaps dead workers
    between messages, and on a death blames exactly the job the dead
    worker's claim slot still names -- retrying it (with backoff, on a
    respawned worker) or quarantining it after its second kill.  Repeated
    breakage degrades to inline sequential execution of whatever is left.
    """

    #: Result-queue poll interval; also the worker-death detection latency.
    POLL_SECONDS = 0.05
    #: Consecutive empty polls with waiting jobs but nothing running before
    #: the supervisor assumes tasks were lost in a dead worker's hands
    #: (died between dequeue and ``start`` ack) and resubmits them.  A
    #: duplicate execution is deterministic and settles only once.
    STALL_POLLS = 200

    def __init__(
        self,
        engine: InferenceEngine,
        context,
        batch: list[EngineJob],
        on_report: Callable[[int, EngineReport], None] | None = None,
        cancel: Callable[[], str | None] | None = None,
        timeout_for: Callable[[EngineJob], float | None] | None = None,
    ):
        self.engine = engine
        self.context = context
        self.batch = batch
        self.on_report = on_report
        self.cancel = cancel
        self.timeout_for = timeout_for
        self.cancelled = False
        self.worker_count = min(engine.jobs, len(batch))
        self.plan = next(
            (
                job.config.fault_plan
                for job in batch
                if job.config is not None and job.config.fault_plan is not None
            ),
            None,
        )
        telemetry = next(
            (
                job.config.telemetry
                for job in batch
                if job.config is not None and job.config.telemetry is not None
            ),
            None,
        )
        self.tracer = telemetry.tracer() if telemetry is not None else None
        self.states = {index: _JobState(job) for index, job in enumerate(batch)}
        self.final: dict[int, EngineReport] = {}
        self.outstanding = set(self.states)
        self.workers: dict[int, object] = {}  # worker pid -> Process
        self.claims: dict[int, object] = {}  # worker pid -> shared claim slot
        self.deferred: list[tuple[float, int]] = []  # (due time, job index)
        self.pool_rebuilds = 0
        self.degraded = False
        self.idle_polls = 0
        self.task_queue = context.Queue()
        self.result_queue = context.Queue()

    # -------------------------------------------------------------- driver --

    def _submit(self, index: int, job: EngineJob) -> None:
        """Enqueue a job for a worker, restamping its timeout at this moment."""
        if self.timeout_for is not None:
            job = replace(job, timeout=self.timeout_for(job))
        self.task_queue.put((index, job))

    def run(self) -> list[EngineReport]:
        for index, job in enumerate(self.batch):
            self._submit(index, job)
        for _ in range(self.worker_count):
            self._spawn_worker()
        self._supervise()
        self._stop_workers()
        if self.outstanding:
            self._run_degraded()
        self._stamp_heal_counters()
        return [self.final[index] for index in range(len(self.batch))]

    def _supervise(self) -> None:
        import queue as queue_module

        while self.outstanding and not self.degraded:
            if self.cancel is not None and not self.cancelled:
                reason = self.cancel()
                if reason is not None:
                    self._cancel_remaining(reason)
                    break
            self._submit_due_retries()
            try:
                message = self.result_queue.get(timeout=self.POLL_SECONDS)
            except queue_module.Empty:
                self._reap_dead_workers()
                self._check_stall()
                continue
            except (EOFError, OSError) as exc:
                log.warning(
                    "engine result queue broke (%s: %s); degrading to "
                    "in-process sequential execution",
                    type(exc).__name__,
                    exc,
                )
                self.degraded = True
                break
            self.idle_polls = 0
            self._handle_message(message)

    def shutdown(self) -> None:
        """Terminate whatever is left; idempotent, safe after errors."""
        for worker in list(self.workers.values()):
            if worker.is_alive():
                worker.terminate()
            worker.join(timeout=1.0)
        self.workers.clear()
        self.claims.clear()
        for q in (self.task_queue, self.result_queue):
            try:
                q.close()
                q.cancel_join_thread()
            except (OSError, ValueError):
                pass

    # ------------------------------------------------------------ messages --

    def _handle_message(self, message) -> None:
        kind = message[0]
        if kind == "done":
            _, index, report, pid = message
            self._settle(index, report)

    def _running_indices(self) -> set[int]:
        """Jobs currently claimed by a live worker (from the claim slots)."""
        return {
            claim.value for claim in self.claims.values() if claim.value >= 0
        }

    def _settle(self, index: int, report: EngineReport) -> None:
        """Accept a completed report, or schedule a retry if it earns one."""
        if index not in self.outstanding:
            return  # duplicate (stall resubmission) -- first result won
        state = self.states[index]
        if (
            classify_failure(report, self.engine.retry_timeouts) is TransientFault
            and state.retries < self.engine.max_retries
        ):
            self._schedule_retry(index, report.error or "transient failure")
            return
        self._finalize(index, report)

    def _finalize(self, index: int, report: EngineReport) -> None:
        """The one place a job's report becomes final (and is streamed out)."""
        self.outstanding.discard(index)
        self.final[index] = report
        if self.on_report is not None:
            self.on_report(index, report)

    # -------------------------------------------------------- cancellation --

    def _cancel_remaining(self, reason: str) -> None:
        """Cancel every unfinished job: kill in-flight workers, settle the rest.

        In-flight jobs are found through the claim slots -- the same
        crash-proof protocol the healer blames deaths with -- and their
        workers terminated outright; a cancelled job is settled as
        ``cancelled: <reason>`` and deliberately never retried (the
        classifier treats cancellation as permanent).
        """
        self.cancelled = True
        self.deferred.clear()
        running = self._running_indices()
        if running:
            for pid, claim in list(self.claims.items()):
                if claim.value >= 0:
                    worker = self.workers.pop(pid, None)
                    self.claims.pop(pid, None)
                    if worker is not None:
                        worker.terminate()
                        worker.join(timeout=1.0)
        for index in sorted(self.outstanding):
            self._finalize(
                index,
                EngineReport(
                    job=self.states[index].job,
                    ok=False,
                    error=f"cancelled: {reason}",
                    seconds=0.0,
                ),
            )

    # ------------------------------------------------------------- retries --

    def _schedule_retry(self, index: int, reason: str) -> None:
        state = self.states[index]
        delays = backoff_delays(
            _backoff_seed(state.job),
            state.job.benchmark,
            self.engine.max_retries,
            self.engine.backoff_base,
            self.engine.backoff_cap,
        )
        delay = delays[state.retries]
        state.retries += 1
        state.heal["jobs_retried"] += 1
        self._emit_span(
            "retry",
            state.job.benchmark,
            attempt=state.retries,
            delay=round(delay, 4),
            reason=reason[:200],
        )
        # Not a sleep: the due time is checked each poll, so the supervisor
        # keeps draining results and reaping deaths while backing off.
        self.deferred.append((monotime() + delay, index))

    def _submit_due_retries(self) -> None:
        if not self.deferred:
            return
        now = monotime()
        due = sorted(index for when, index in self.deferred if when <= now)
        if not due:
            return
        self.deferred = [(when, index) for when, index in self.deferred if when > now]
        for index in due:
            state = self.states[index]
            self._submit(index, replace(state.job, attempt=state.retries))

    # ------------------------------------------------------------- healing --

    def _reap_dead_workers(self) -> None:
        dead = [worker for worker in self.workers.values() if not worker.is_alive()]
        if not dead:
            return
        # A worker can die *after* sending its done message; consume every
        # buffered message before assigning blame.
        self._drain_nonblocking()
        guilty: list[tuple[int, object]] = []
        for worker in dead:
            del self.workers[worker.pid]
            claim = self.claims.pop(worker.pid)
            worker.join(timeout=1.0)
            index = claim.value
            if index >= 0 and index in self.outstanding:
                guilty.append((index, worker))
        self._heal(dead, guilty)

    def _drain_nonblocking(self) -> None:
        import queue as queue_module

        while True:
            try:
                message = self.result_queue.get_nowait()
            except (queue_module.Empty, EOFError, OSError):
                return
            self._handle_message(message)

    def _heal(self, dead: list, guilty: list[tuple[int, object]]) -> None:
        """One healing round: settle the guilty jobs, respawn or degrade."""
        self.pool_rebuilds += 1
        blame = guilty[0][0] if guilty else (min(self.outstanding) if self.outstanding else None)
        if blame is not None:
            self.states[blame].heal["pool_rebuilds"] += 1
        for index, worker in guilty:
            state = self.states[index]
            state.worker_deaths += 1
            if state.worker_deaths >= 2:
                # Quarantine: this job has now killed two workers; a third
                # respawn would only feed it another one.
                state.heal["jobs_poisoned"] += 1
                self._finalize(
                    index,
                    EngineReport(
                        job=state.job,
                        ok=False,
                        error=(
                            f"poisoned: killed {state.worker_deaths} workers "
                            f"(last exitcode {worker.exitcode}); quarantined"
                        ),
                        seconds=0.0,
                    ),
                )
                self._emit_span(
                    "pool_heal",
                    state.job.benchmark,
                    event="quarantine",
                    deaths=state.worker_deaths,
                )
            elif state.retries < self.engine.max_retries:
                self._schedule_retry(
                    index,
                    f"worker lost (pid {worker.pid}, exitcode {worker.exitcode})",
                )
            else:
                self._finalize(
                    index,
                    EngineReport(
                        job=state.job,
                        ok=False,
                        error=(
                            f"worker lost: process exited with code "
                            f"{worker.exitcode} (retry budget exhausted)"
                        ),
                        seconds=0.0,
                    ),
                )
        if not self.outstanding:
            return
        if self.pool_rebuilds > self.engine.max_pool_rebuilds:
            log.warning(
                "engine pool broke %d times (max %d); degrading to in-process "
                "sequential execution for %d remaining job(s)",
                self.pool_rebuilds,
                self.engine.max_pool_rebuilds,
                len(self.outstanding),
            )
            self.degraded = True
            return
        respawned = 0
        target_size = min(self.worker_count, max(1, len(self.outstanding)))
        while len(self.workers) < target_size:
            self._spawn_worker()
            respawned += 1
        for count in range(respawned):
            index = guilty[count % len(guilty)][0] if guilty else blame
            if index is not None:
                self.states[index].heal["workers_respawned"] += 1
        self._emit_span(
            "pool_heal",
            f"rebuild-{self.pool_rebuilds}",
            event="rebuild",
            dead=len(dead),
            respawned=respawned,
        )

    def _check_stall(self) -> None:
        """Resubmit jobs whose task vanished inside a dying worker.

        The unreachable-by-injection window: a worker that dies after
        dequeuing a task but before writing its claim slot takes the task
        with it.  Nothing is running and nothing arrives, so after
        STALL_POLLS empty polls the waiting jobs are resubmitted
        (duplicates settle only once, see :meth:`_settle`).
        """
        self.idle_polls += 1
        running = self._running_indices()
        if self.idle_polls < self.STALL_POLLS or running or self.deferred:
            return
        waiting = self.outstanding - running
        if not waiting:
            return
        log.warning(
            "engine pool stalled (%d job(s) waiting, none running); "
            "resubmitting them",
            len(waiting),
        )
        for index in sorted(waiting):
            state = self.states[index]
            self._submit(index, replace(state.job, attempt=state.retries))
        self.idle_polls = 0

    # ------------------------------------------------------------- workers --

    def _spawn_worker(self) -> None:
        claim = self.context.Value("i", -1, lock=False)
        process = self.context.Process(
            target=_pool_worker_main,
            args=(self.task_queue, self.result_queue, self.plan, claim),
            daemon=True,
        )
        process.start()
        self.workers[process.pid] = process
        self.claims[process.pid] = claim

    def _stop_workers(self) -> None:
        # Late results beat a redundant inline re-run, so drain once more.
        self._drain_nonblocking()
        for _ in range(len(self.workers)):
            try:
                self.task_queue.put(None)
            except (OSError, ValueError):
                break
        for worker in self.workers.values():
            worker.join(timeout=2.0)
        for worker in self.workers.values():
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
        self.workers.clear()
        self.claims.clear()
        self._drain_nonblocking()

    # ------------------------------------------------------- degraded mode --

    def _run_degraded(self) -> None:
        """Finish the remaining jobs inline, sequentially, in this process.

        Lethal fault actions are downgraded outside pool workers, so even
        the plan that broke the pool cannot kill the parent here; results
        are bit-identical to a healthy pool run by the engine's determinism
        guarantee.
        """
        for index in sorted(self.outstanding):
            if self.cancel is not None and not self.cancelled:
                reason = self.cancel()
                if reason is not None:
                    self._cancel_remaining(reason)
                    return
            state = self.states[index]
            state.heal["degraded_sequential"] += 1
            if self.timeout_for is not None:
                state.job = replace(state.job, timeout=self.timeout_for(state.job))

            def count_retry(attempt: int, state=state) -> None:
                state.heal["jobs_retried"] += 1
                self._emit_span(
                    "retry",
                    state.job.benchmark,
                    attempt=attempt,
                    degraded=True,
                    reason="transient failure in degraded sequential mode",
                )

            report, _ = _execute_with_retries(
                state.job,
                max_retries=self.engine.max_retries,
                retry_timeouts=self.engine.retry_timeouts,
                backoff_seed=_backoff_seed(state.job),
                backoff_base=self.engine.backoff_base,
                backoff_cap=self.engine.backoff_cap,
                already_retried=state.retries,
                on_retry=count_retry,
            )
            self._finalize(index, report)

    # ------------------------------------------------------------ stamping --

    def _stamp_heal_counters(self) -> None:
        for index, state in self.states.items():
            if not any(state.heal.values()):
                continue
            report = self.final[index]
            for field_name, value in state.heal.items():
                setattr(report.cache, field_name, getattr(report.cache, field_name) + value)

    def _emit_span(self, kind: str, name: str, **attrs) -> None:
        if self.tracer is None:
            return
        self.tracer.emit_span(
            kind,
            name,
            ts=monotime(),
            dur=0.0,
            track="aux",
            parent=self.tracer.current_id,
            **attrs,
        )


def run_category_batch(
    kind: str,
    categories: Sequence[str] | None = None,
    max_programs_per_category: int | None = None,
    keep: Callable[[object], bool] | None = None,
    seed: int = 0,
    config: SlingConfig | None = None,
    jobs: int = 1,
    job_timeout: float | None = None,
) -> list[tuple[str, str, object]]:
    """Select registry benchmarks by category and run one ``kind`` job each.

    The shared orchestration of the Table 1 / Table 2 harnesses: filter the
    registry (``categories`` restricts, ``max_programs_per_category`` caps,
    ``keep`` drops individual benchmarks), dispatch through the engine, and
    return ``(category, benchmark name, payload)`` triples in registry
    order.  A failed or timed-out job raises :class:`EngineError` naming
    the benchmark.
    """
    from repro.benchsuite.registry import benchmarks_by_category

    selected = []
    for category, benchmarks in benchmarks_by_category().items():
        if categories is not None and category not in categories:
            continue
        if max_programs_per_category is not None:
            benchmarks = benchmarks[:max_programs_per_category]
        selected.extend(
            (category, benchmark)
            for benchmark in benchmarks
            if keep is None or keep(benchmark)
        )

    engine = InferenceEngine(jobs=jobs, job_timeout=job_timeout)
    telemetry = config.telemetry if config is not None else None
    sweep_span = (
        telemetry.tracer().span("sweep", name=kind, benchmarks=len(selected), jobs=jobs)
        if telemetry is not None
        else nullcontext()
    )
    with sweep_span:
        reports = engine.run(
            [
                EngineJob(kind=kind, benchmark=benchmark.name, seed=seed, config=config)
                for _, benchmark in selected
            ]
        )
    results = []
    for (category, benchmark), report in zip(selected, reports):
        if not report.ok:
            raise EngineError(f"benchmark {benchmark.name!r} failed: {report.error}")
        results.append((category, benchmark.name, report.payload))
    return results


def warm_worker_state() -> dict[str, int]:
    """Populate the copy-on-write state forked engine workers inherit.

    Imports the benchmark registry and compiles the per-predicate case
    screens (both cached on long-lived registry objects).  The process-wide
    canonical-form intern table (:mod:`repro.sl.model`) needs no explicit
    warm-up: forms interned by any work the parent already did are inherited
    as-is -- this function just makes the fork point explicit and reports
    the inherited state's size for the bench report.
    """
    from repro.benchsuite.registry import all_benchmarks, load_all
    from repro.sl.model import intern_table_size

    load_all()
    screens = 0
    seen_registries: set[int] = set()
    for benchmark in all_benchmarks():
        registry = benchmark.predicates
        if id(registry) in seen_registries:
            continue
        seen_registries.add(id(registry))
        for predicate in registry:
            screens += len(predicate.case_screens())
    return {
        "predicate_case_screens": screens,
        "interned_canonical_forms": intern_table_size(),
    }


# ---------------------------------------------------------------------------
# Engine benchmark harness
# ---------------------------------------------------------------------------


def benchmark_engine(
    categories: Sequence[str] | None = None,
    limit: int | None = None,
    jobs: int = 2,
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
    trace_out: str | None = None,
) -> dict:
    """Measure sequential vs. parallel wall time and cache effectiveness.

    Up to three sweeps over the (optionally restricted) Table 1 suite:

    1. sequential with every checker acceleration enabled (this cold sweep
       also pays the one-time registry import and unfold-template warm-up,
       so the speedups below are conservative, not inflated),
    2. sequential with the reference search (``reference_search``): the
       exact per-candidate check with no screening, skeleton batching or
       isomorphism dedup (the unfolding caches on the shared predicate
       registries stay warm across sweeps and cannot be disabled),
    3. parallel with ``jobs`` workers and all accelerations enabled.

    The parallel *timing* is only reported when it can mean anything: with
    ``jobs <= 1`` the sweep is skipped outright (``parallel_skipped``
    explains why), and on a single available CPU the sweep still runs --
    the full-suite parallel-determinism assertion must not silently
    disappear on 1-CPU CI boxes -- but ``wall_seconds.parallel`` and the
    parallel speedups are reported as ``None`` with ``parallel_note``
    explaining that a "speedup" there would only measure fork overhead
    (``--compare`` only reads the sequential wall time, so its semantics
    are unchanged either way).

    Returns a JSON-serializable report with wall times, speedups and cache
    hit rates.  The per-program invariants of every sweep are compared with
    the first; a mismatch raises :class:`EngineError` (the checker
    accelerations' result-identity and the engine's determinism guarantee
    are asserted, not merely reported).

    With ``trace_out`` set, the accelerated sweeps (sequential and parallel)
    run with tracing on and the report gains ``phases`` (the per-kind span
    summary) and ``trace_file`` keys -- additions only, the existing schema
    is untouched.  The nocache baseline sweep stays *untraced*, so the
    fingerprint assertion below doubles as proof that tracing does not
    change results.
    """
    from repro.evaluation.table1 import run_table1

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    telemetry = None
    traced_config: SlingConfig | None = None
    if trace_out is not None:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(trace_out)
        traced_config = default_job_config(telemetry=telemetry)

    def sweep(config: SlingConfig | None, sweep_jobs: int):
        start = monotime()
        result = run_table1(
            categories=categories,
            config=config,
            seed=seed,
            max_programs_per_category=limit,
            jobs=sweep_jobs,
        )
        return monotime() - start, result

    uncached_config = nocache_sweep_config()
    available_cpus = multiprocessing.cpu_count()
    parallel_skipped: str | None = None
    parallel_note: str | None = None
    if jobs <= 1:
        parallel_skipped = "parallel sweep skipped: jobs <= 1"
    elif available_cpus <= 1:
        parallel_note = (
            "single available CPU: parallel wall time not reported (a speedup "
            "here would only measure fork overhead); the sweep still ran to "
            "assert the engine's parallel determinism"
        )
    total_sweeps = 2 if parallel_skipped else 3

    say(f"sweep 1/{total_sweeps}: sequential, checker accelerations enabled")
    sequential_seconds, sequential_result = sweep(traced_config, 1)
    say(f"sweep 2/{total_sweeps}: sequential, reference search")
    nocache_seconds, nocache_result = sweep(uncached_config, 1)
    parallel_seconds = None
    parallel_result = None
    if parallel_skipped is None:
        say(f"sweep 3/3: parallel with {jobs} workers, accelerations enabled")
        parallel_seconds, parallel_result = sweep(traced_config, jobs)
        if parallel_note is not None:
            parallel_seconds = None
    else:
        say(parallel_skipped)

    sequential_fingerprints = table1_fingerprints(sequential_result)
    if sequential_fingerprints != table1_fingerprints(nocache_result):
        raise EngineError(
            "accelerated sweep diverged from the reference search; "
            "the fast path is changing results"
        )
    deterministic = None
    if parallel_result is not None:
        deterministic = sequential_fingerprints == table1_fingerprints(parallel_result)
        if not deterministic:
            raise EngineError(
                f"parallel sweep (jobs={jobs}) diverged from the sequential results; "
                "the engine's determinism guarantee is broken"
            )
    cache = sequential_result.cache_totals()

    report = {
        "benchmarks": sum(row.program_count for row in sequential_result.rows),
        "jobs": jobs,
        "wall_seconds": {
            "sequential_nocache": round(nocache_seconds, 3),
            "sequential": round(sequential_seconds, 3),
            "parallel": round(parallel_seconds, 3) if parallel_seconds else None,
        },
        "speedup": {
            "cache": round(nocache_seconds / sequential_seconds, 3)
            if sequential_seconds
            else None,
            "parallel": round(sequential_seconds / parallel_seconds, 3)
            if parallel_seconds
            else None,
            "combined": round(nocache_seconds / parallel_seconds, 3)
            if parallel_seconds
            else None,
        },
        "cache": cache.as_dict(),
        "deterministic": deterministic,
        "available_cpus": available_cpus,
        "interned_canonical_forms": _intern_table_size(),
        "meta": bench_metadata(),
    }
    if parallel_skipped is not None:
        report["parallel_skipped"] = parallel_skipped
    if parallel_note is not None:
        report["parallel_note"] = parallel_note
    if telemetry is not None:
        telemetry.close()
        from repro.telemetry import phase_summary, read_trace

        report["trace_file"] = trace_out
        report["phases"] = phase_summary(read_trace(trace_out))
    return report


def bench_metadata() -> dict:
    """Environment provenance stamped into every bench report.

    Records what a later reader needs to judge whether two bench numbers
    are comparable: CPU count, the hash seed (``PYTHONHASHSEED`` governs
    set/dict iteration and therefore *could* matter if determinism ever
    regressed), platform, Python version and the git revision.
    """
    import platform
    import subprocess

    try:
        git_rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git_rev = None
    return {
        "cpu_count": multiprocessing.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "platform": platform.platform(),
        "python_version": platform.python_version(),
        "git_rev": git_rev,
    }


def nocache_sweep_config() -> SlingConfig:
    """The reference-search configuration of the bench baseline sweep.

    The fast path whose result-identity the bench fingerprint comparison
    asserts is replaced by the reference search here, and the persistent
    cache is off: warm state must not leak into the baseline measurement.
    """
    return SlingConfig(
        discard_crashed_runs=True, reference_search=True, persistent_cache=None
    )


def benchmark_warm_start(
    categories: Sequence[str] | None = None,
    limit: int | None = None,
    seed: int = 0,
    cache_file: str = "",
    jobs: int = 1,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Measure the persistent cache: Table 1 twice against one cache file.

    Three sweeps over the (optionally restricted) Table 1 suite:

    1. a reference sweep with the persistent cache *off* (the result-identity
       baseline),
    2. a cold sweep writing ``cache_file``,
    3. a warm sweep reading the file the cold sweep just wrote.

    When ``cache_file`` already exists -- a cache restored from a previous
    invocation, as the CI warm-start job does -- the cold sweep is skipped
    (measuring "cold" against a pre-warmed file would be meaningless) and
    the warm sweep reads the restored file directly: genuine *cross-run*
    warmth.  The report then carries ``"resumed": true`` with the cold
    fields ``null``.

    Every sweep that runs must produce bit-identical invariants
    (:class:`EngineError` otherwise -- the disk tier's result-identity is
    asserted, not merely reported).  The report carries the cold/warm wall
    times and the disk counters of both cache sweeps; the warm sweep's
    ``disk_hit_rate`` is the headline number (target: >= 0.9, near-zero
    fresh skeleton solves).
    """
    from repro.evaluation.table1 import run_table1

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    resumed = bool(cache_file) and os.path.exists(cache_file)

    def sweep(config: SlingConfig | None):
        start = monotime()
        result = run_table1(
            categories=categories,
            config=config,
            seed=seed,
            max_programs_per_category=limit,
            jobs=jobs,
        )
        return monotime() - start, result

    cached_config = default_job_config(persistent_cache=cache_file)

    sweeps = 2 if resumed else 3
    say(f"sweep 1/{sweeps}: reference (persistent cache off)")
    reference_seconds, reference_result = sweep(None)
    if resumed:
        say(f"cache file {cache_file} already warm (restored run); skipping cold sweep")
        cold_seconds, cold_result = None, None
    else:
        say(f"sweep 2/{sweeps}: cold, writing {cache_file}")
        cold_seconds, cold_result = sweep(cached_config)
    say(f"sweep {sweeps}/{sweeps}: warm, reading {cache_file}")
    warm_seconds, warm_result = sweep(cached_config)

    reference_fingerprints = table1_fingerprints(reference_result)
    if cold_result is not None and (
        table1_fingerprints(cold_result) != reference_fingerprints
    ):
        raise EngineError(
            "cold persistent-cache sweep diverged from the cache-less "
            "reference; writing the cache file is changing results"
        )
    if table1_fingerprints(warm_result) != reference_fingerprints:
        raise EngineError(
            "warm persistent-cache sweep diverged from the cache-less "
            "reference; results served from disk are not bit-identical"
        )

    cold_cache = cold_result.cache_totals() if cold_result is not None else None
    warm_cache = warm_result.cache_totals()
    return {
        "mode": "warm-start",
        "meta": bench_metadata(),
        "resumed": resumed,
        "benchmarks": sum(row.program_count for row in reference_result.rows),
        "cache_file": os.path.abspath(cache_file),
        "jobs": jobs,
        "wall_seconds": {
            "reference": round(reference_seconds, 3),
            "cold": round(cold_seconds, 3) if cold_seconds is not None else None,
            "warm": round(warm_seconds, 3),
        },
        "speedup": {
            "warm": round(cold_seconds / warm_seconds, 3)
            if cold_seconds is not None and warm_seconds
            else None,
        },
        "disk": {
            "cold": None
            if cold_cache is None
            else {
                "disk_hits": cold_cache.disk_hits,
                "disk_misses": cold_cache.disk_misses,
                "disk_evictions": cold_cache.disk_evictions,
                "cache_file_bytes": cold_cache.cache_file_bytes,
                "disk_load_errors": cold_cache.disk_load_errors,
            },
            "warm": {
                "disk_hits": warm_cache.disk_hits,
                "disk_misses": warm_cache.disk_misses,
                "disk_evictions": warm_cache.disk_evictions,
                "cache_file_bytes": warm_cache.cache_file_bytes,
                "disk_load_errors": warm_cache.disk_load_errors,
                "hit_rate": round(warm_cache.disk_hit_rate, 4),
            },
        },
        "identical": True,
    }


def _intern_table_size() -> int:
    from repro.sl.model import intern_table_size

    return intern_table_size()


def table1_fingerprints(result) -> list[tuple]:
    """Order-stable identity of a Table 1 run's inferred invariants.

    Used to assert that parallel sweeps reproduce the sequential results
    exactly (timings excluded, of course).
    """
    fingerprints = []
    for row in result.rows:
        for program in row.programs:
            invariants: tuple[str, ...] = ()
            if program.specification is not None:
                invariants = tuple(
                    invariant.pretty()
                    for invariant in program.specification.all_invariants()
                )
            fingerprints.append(
                (row.category, program.name, program.classification, invariants)
            )
    return fingerprints


def default_job_config(config: SlingConfig | None = None, **overrides) -> SlingConfig:
    """The engine's default analysis configuration (paper setup + crash discard)."""
    base = config or SlingConfig(discard_crashed_runs=True)
    return replace(base, **overrides) if overrides else base
