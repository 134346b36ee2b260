"""Parallel batch-inference engine.

The engine is the one entry point through which every harness (the Table 1 /
Table 2 evaluations, the CLI, the performance benchmarks) runs SLING over
benchmark programs.  It accepts a batch of :class:`EngineJob` descriptions --
(benchmark, kind, seed, configuration) tuples -- and returns one structured
:class:`EngineReport` per job **in job order**.

Design notes
------------

* One path per job: every job goes through the same settle-and-retry state
  machine (:class:`_BatchRun`); only the executor differs.  With ``jobs=1``
  or a one-job batch the jobs run in the calling thread; otherwise they run
  on a supervised ``multiprocessing`` fork pool (:class:`_PoolSupervisor`),
  and whatever a broken pool leaves behind runs in the calling thread.
* Jobs are *named*, not closured: a job carries the registry name of its
  benchmark (e.g. ``"sll/insertFront"``) and the worker resolves it through
  :mod:`repro.benchsuite.registry` on its side of the fork.  Benchmark
  objects hold test-case closures and are deliberately never pickled.
* Workers never raise: failures (including timeouts) are reported as
  ``ok=False`` reports with the error message preserved, so a single
  crashing benchmark cannot take down a full-suite sweep.
* Determinism: inference is deterministic per (benchmark, seed, config) --
  the candidate search, the model checker and the existential-renaming
  normalization are all order-stable -- so ``jobs=N`` produces exactly the
  same invariants as ``jobs=1``, merely faster.  The repo benchmark's
  oracle references (``perfbench/golden/``) check this on every sweep.
* Cache accounting: each report carries the checker and
  predicate-unfolding cache counters (:class:`CacheStats`) measured inside
  the worker for exactly that job.  A Table 1 or Table 2 payload carries
  that same struct (``payload.cache is report.cache``; one pickle per
  report keeps the identity across the fork), so the healing counters the
  parent stamps onto the report are the payload's too.
* Self-healing: transient failures are retried up to :data:`MAX_RETRIES`
  times with seeded exponential backoff, whichever executor ran them.  The
  pool is supervised through a claim/done protocol (a crash-proof
  shared-memory claim slot per worker plus a result queue), so a worker
  death (segfault, OOM kill, an injected ``os._exit``) fails only the job
  that was actually running on the dead worker.  Every dead worker is
  replaced while jobs are outstanding, so that job is retried on a
  respawned worker; a job that kills a worker *twice* is quarantined as
  poison (``error="poisoned"``, never a third respawn); and after
  :data:`MAX_POOL_REBUILDS` healing rounds the remaining jobs run in the
  calling thread -- warned, counted, and with bit-identical invariants,
  because sequential execution is the reference the pool must reproduce
  anyway.  See ``docs/resilience.md``.
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.core.sling import SlingConfig
from repro.faults import (
    backoff_delays,
    enable_lethal_faults,
    injection_count,
    maybe_inject,
    set_current_attempt,
)
from repro.sl.stream import stream_pool
from repro.telemetry import monotime
from repro.telemetry.counters import CacheStats

log = logging.getLogger("repro.engine")

#: Job kinds understood by :func:`execute_job`.
JOB_KINDS = ("spec", "table1", "table2")


class EngineError(RuntimeError):
    """A batch run failed in a way the caller did not ask to tolerate."""


class TransientFault(EngineError):
    """A failure worth retrying: worker loss and injected faults tagged
    ``[transient]``."""


class PermanentFault(EngineError):
    """A deterministic failure (timeouts included): retrying would
    reproduce it."""


class PoisonedJob(EngineError):
    """A job that killed two workers; quarantined, never respawned again."""


def classify_failure(report: "EngineReport"):
    """The taxonomy class of a failed report (``None`` for ``ok`` ones).

    Worker-side failures cross the fork boundary as strings, so the
    classification reads :attr:`EngineReport.error`: worker loss and
    injected faults tagged ``[transient]`` are :class:`TransientFault`,
    quarantined jobs are :class:`PoisonedJob`, everything else -- ordinary
    exceptions inside the job, and timeouts (a timed-out job is simply too
    slow; a retry would double the cost of finding that out again) -- is a
    :class:`PermanentFault`.
    """
    if report.ok or report.error is None:
        return None
    error = report.error
    if error.startswith("poisoned"):
        return PoisonedJob
    if error.startswith("worker lost"):
        return TransientFault
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

    ``timeout`` (seconds) is the job's wall-clock budget (``None``: none),
    overridden by :meth:`InferenceEngine.run`'s ``timeout_for`` hook.  It is
    enforced *inside* the executing process with an interval timer (the
    inference search is pure Python, so the resulting alarm always
    interrupts it); a timed-out job yields an ``ok=False`` report whose
    :attr:`EngineReport.timed_out` is true.
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

    Pool workers and the calling-thread executor both run every job
    through this function, so sequential and parallel execution share one
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

        comparison = compare_benchmark(benchmark, config=job.config, seed=job.seed)
        return comparison, comparison.cache

    # job.kind == "spec"
    from repro.core.sling import Sling

    config = job.config or SlingConfig()
    sling = Sling(benchmark.program, benchmark.predicates, config)
    specification = sling.infer_function(benchmark.function, benchmark.test_cases(job.seed))
    return (
        SpecPayload(
            benchmark=benchmark.name,
            function=benchmark.function,
            specification=specification,
        ),
        sling.cache_counters(),
    )


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

#: Retries per job for *transient* failures (worker loss, injected faults
#: tagged ``[transient]``), with seeded exponential backoff between
#: ``BACKOFF_BASE`` and ``BACKOFF_CAP`` seconds (see
#: :func:`repro.faults.backoff_delays`).  Permanent failures are never
#: retried: they would reproduce deterministically.
MAX_RETRIES = 2
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
#: Healing rounds a pool survives before the remaining jobs of its batch
#: run in the calling thread (counted per job in ``degraded_sequential``).
MAX_POOL_REBUILDS = 3


class InferenceEngine:
    """Runs batches of :class:`EngineJob` with bounded parallelism.

    Parameters
    ----------
    jobs:
        Worker-pool size.  ``1`` (the default) executes in the calling
        thread -- no fork, no pickling -- which is also the reference
        behaviour parallel runs must reproduce: bit-for-bit in the inferred
        invariants and the candidate search.  The counters of the skeleton
        work a batch's shared stream memo saves (``skeletons_solved``,
        ``env_stream_reuses`` and the search-depth counters of the solves)
        depend on which earlier jobs shared a worker, so they are only
        reproducible run to run with ``jobs=1``; their sum
        ``skeletons_solved + env_stream_reuses`` is the same either way.

    Each job carries its own timeout (:attr:`EngineJob.timeout`, or the
    ``timeout_for`` hook of :meth:`run`).

    The retry and healing policy is fixed by the module constants
    :data:`MAX_RETRIES`, :data:`BACKOFF_BASE`, :data:`BACKOFF_CAP` and
    :data:`MAX_POOL_REBUILDS`.
    """

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise EngineError(f"engine needs at least one worker, got jobs={jobs}")
        self.jobs = jobs

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

        ``cancel`` is polled before every calling-thread execution and on
        every supervisor poll (~50ms).  The first non-``None`` reason it
        returns cancels the batch: jobs still waiting settle immediately as
        ``ok=False`` with ``error="cancelled: <reason>"``, and in-flight
        pool jobs are killed through the claim-slot machinery (the worker
        that claimed the job is terminated and the job is *not* retried --
        cancellation is deliberate, not a worker fault).  A job running in
        the calling thread cannot be interrupted this way; give it a
        ``timeout`` when the caller needs a hard bound (the serve daemon
        does exactly that for deadlines).

        ``timeout_for`` overrides a job's ``timeout`` at the moment the job
        is (re)submitted for execution, not at batch start.  This is how a
        shrinking wall-clock budget (a serve request's deadline) stays
        accurate for the later jobs of a batch: each one is stamped with
        only the budget remaining when it actually starts.

        A batch of two or more jobs shares one stream memo
        (:func:`repro.sl.stream.stream_pool`): later jobs reuse the
        skeleton streams earlier ones enumerated, with identical results.
        The memo is dropped when the batch returns or raises, unless it is
        one already open on the calling thread (a serve daemon's), which
        the batch fills and leaves in place.  Forked pool workers inherit a
        copy of the memo as it was at the fork, fill their own copies and
        feed nothing back.
        """
        if not batch:
            return []
        hooks = {"on_report": on_report, "cancel": cancel, "timeout_for": timeout_for}
        if self.jobs == 1 or len(batch) == 1:
            executor = _BatchRun(batch, **hooks)
        else:
            executor = _PoolSupervisor(batch, min(self.jobs, len(batch)), **hooks)
        with stream_pool() if len(batch) > 1 else nullcontext():
            return executor.execute()


# ---------------------------------------------------------------------------
# The per-job state machine and the calling-thread executor
# ---------------------------------------------------------------------------

@dataclass
class _JobState:
    """Parent-side bookkeeping for one job of a batch."""

    job: EngineJob
    retries: int = 0
    worker_deaths: int = 0
    #: Parent-side healing counters, merged into the job's final report.
    heal: CacheStats = field(default_factory=CacheStats)


class _BatchRun:
    """One batch's jobs, each settled, retried and finalized in one place.

    Every report -- from the calling thread, a pool worker, or a worker
    death the pool turns into a ``worker lost`` report -- goes through
    :meth:`_settle`: a transient failure with budget left is rescheduled by
    :meth:`_schedule_retry` (backoff, ``retry`` span, ``jobs_retried``);
    anything else becomes final in :meth:`_finalize`.  The parent-side
    healing counters are stamped onto the final reports when the batch
    ends.  This class is also the calling-thread executor
    (:meth:`_run_inline`); :class:`_PoolSupervisor` swaps in a fork pool.
    """

    def __init__(
        self,
        batch: list[EngineJob],
        on_report: Callable[[int, EngineReport], None] | None = None,
        cancel: Callable[[], str | None] | None = None,
        timeout_for: Callable[[EngineJob], float | None] | None = None,
    ):
        self.batch = batch
        self.on_report = on_report
        self.cancel = cancel
        self.timeout_for = timeout_for
        self.cancelled = False
        self.degraded = False
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
        self.deferred: dict[int, float] = {}  # job index -> retry due time

    def execute(self) -> list[EngineReport]:
        self._run_inline()
        self._stamp_heal_counters()
        return [self.final[index] for index in range(len(self.batch))]

    def _run_inline(self) -> None:
        """The calling-thread executor: every outstanding job, in batch
        order, through :func:`execute_job` until it settles.

        A scheduled retry is slept out before the job runs again.  Lethal
        fault actions are downgraded outside pool workers (see
        :mod:`repro.faults`), so even a plan that broke the pool cannot
        kill this process; jobs left by a degraded pool count
        ``degraded_sequential``.
        """
        for index in sorted(self.outstanding):
            if self.degraded:
                self.states[index].heal.degraded_sequential += 1
            while index in self.outstanding:
                if self._cancel_requested():
                    return
                due = self.deferred.pop(index, None)
                if due is not None:
                    time.sleep(max(0.0, due - monotime()))
                self._settle(index, execute_job(self._stamped(index)))

    def _stamped(self, index: int) -> EngineJob:
        """The job as (re)submitted now: its retry attempt and, through
        ``timeout_for``, the timeout left at this moment."""
        state = self.states[index]
        job = replace(state.job, attempt=state.retries) if state.retries else state.job
        if self.timeout_for is not None:
            job = replace(job, timeout=self.timeout_for(job))
        return job

    def _settle(self, index: int, report: EngineReport) -> None:
        """Accept a completed report, or schedule a retry if it earns one."""
        if index not in self.outstanding:
            return  # duplicate (stall resubmission) -- first result won
        if (
            classify_failure(report) is TransientFault
            and self.states[index].retries < MAX_RETRIES
        ):
            self._schedule_retry(index, report.error)
            return
        self._finalize(index, report)

    def _schedule_retry(self, index: int, reason: str) -> None:
        state = self.states[index]
        plan = state.job.config.fault_plan if state.job.config is not None else None
        delays = backoff_delays(
            plan.seed if plan is not None else 0,
            state.job.benchmark,
            MAX_RETRIES,
            BACKOFF_BASE,
            BACKOFF_CAP,
        )
        delay = delays[state.retries]
        state.retries += 1
        state.heal.jobs_retried += 1
        self._emit_span(
            "retry",
            state.job.benchmark,
            attempt=state.retries,
            delay=round(delay, 4),
            reason=reason[:200],
        )
        # Not a sleep: the pool checks due times each poll, so it keeps
        # draining results and reaping deaths while backing off.
        self.deferred[index] = monotime() + delay

    def _finalize(self, index: int, report: EngineReport) -> None:
        """The one place a job's report becomes final (and is streamed out)."""
        self.outstanding.discard(index)
        self.final[index] = report
        if self.on_report is not None:
            self.on_report(index, report)

    def _cancel_requested(self) -> bool:
        """Poll ``cancel``; on its first reason, cancel every unfinished job."""
        if self.cancel is not None and not self.cancelled:
            reason = self.cancel()
            if reason is not None:
                self._cancel_remaining(reason)
        return self.cancelled

    def _cancel_remaining(self, reason: str) -> None:
        """Settle every unfinished job as ``cancelled: <reason>``; the
        classifier treats cancellation as permanent, so none is retried."""
        self.cancelled = True
        self.deferred.clear()
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

    def _stamp_heal_counters(self) -> None:
        for index, state in self.states.items():
            self.final[index].cache.merge(state.heal)

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


# ---------------------------------------------------------------------------
# Self-healing pool
# ---------------------------------------------------------------------------


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
    # plan running in the calling thread (directly or after the pool
    # degraded) must never kill the parent process.
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
        result_queue.put((index, report))
        # Cleared only after the put returned: dying while the done message
        # is still in the queue's feeder buffer then still reads as a death
        # *on this job*, which retries it -- a lost result never strands it.
        claim.value = -1


class _PoolSupervisor(_BatchRun):
    """Runs a batch on a fork pool and heals it (see the engine docs).

    The protocol: jobs go into a shared task queue; each worker claims the
    job it is about to run by writing its index into a shared-memory slot
    (crash-proof: a queue message can die with the sender's feeder thread,
    a memory store cannot) and returns it with ``(index, report)``.  The
    supervisor polls the result queue, reaps dead workers between
    messages, and on a death blames exactly the job the dead worker's
    claim slot still names -- settling it as ``worker lost`` (which
    retries it on a respawned worker) or quarantining it after its second
    kill.  Repeated breakage hands whatever is left to the calling-thread
    executor.
    """

    #: Result-queue poll interval; also the worker-death detection latency.
    POLL_SECONDS = 0.05
    #: Consecutive empty polls with waiting jobs but nothing running before
    #: the supervisor assumes tasks were lost in a dead worker's hands
    #: (died between dequeue and ``start`` ack) and resubmits them.  A
    #: duplicate execution is deterministic and settles only once.
    STALL_POLLS = 200

    def __init__(self, batch: list[EngineJob], worker_count: int, **hooks):
        super().__init__(batch, **hooks)
        self.worker_count = worker_count
        self.plan = next(
            (
                job.config.fault_plan
                for job in batch
                if job.config is not None and job.config.fault_plan is not None
            ),
            None,
        )
        self.workers: dict[int, object] = {}  # worker pid -> Process
        self.claims: dict[int, object] = {}  # worker pid -> shared claim slot
        self.pool_rebuilds = 0
        self.idle_polls = 0

    def execute(self) -> list[EngineReport]:
        # Imported here: a jobs=1 process never forks and never pays for it.
        import multiprocessing

        # Fork-after-load: the registry, the predicate case screens and the
        # canonical forms the parent already interned are inherited
        # copy-on-write by every worker.
        warm_worker_state()
        self.context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        self.task_queue = self.context.Queue()
        self.result_queue = self.context.Queue()
        try:
            for index in range(len(self.batch)):
                self._submit(index)
            for _ in range(self.worker_count):
                self._spawn_worker()
            self._supervise()
            self._stop_workers()
        finally:
            self.shutdown()
        reports = super().execute()
        # Fold the workers' per-pid trace segments back into the main trace
        # file, re-parenting their job spans under the caller's open span.
        merged_telemetries: list[int] = []
        for job in self.batch:
            telemetry = job.config.telemetry if job.config else None
            if telemetry is not None and id(telemetry) not in merged_telemetries:
                merged_telemetries.append(id(telemetry))
                telemetry.merge_segments()
        return reports

    # -------------------------------------------------------------- driver --

    def _submit(self, index: int) -> None:
        self.task_queue.put((index, self._stamped(index)))

    def _supervise(self) -> None:
        import queue as queue_module

        while self.outstanding and not self.degraded:
            if self._cancel_requested():
                break
            self._submit_due_retries()
            try:
                index, report = self.result_queue.get(timeout=self.POLL_SECONDS)
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
            self._settle(index, report)

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

    def _running_indices(self) -> set[int]:
        """Jobs currently claimed by a live worker (from the claim slots)."""
        return {
            claim.value for claim in self.claims.values() if claim.value >= 0
        }

    def _cancel_remaining(self, reason: str) -> None:
        """Terminate the workers of in-flight jobs, then cancel every job.

        In-flight jobs are found through the claim slots -- the same
        crash-proof protocol the healer blames deaths with.
        """
        for pid, claim in list(self.claims.items()):
            if claim.value >= 0:
                worker = self.workers.pop(pid, None)
                self.claims.pop(pid, None)
                if worker is not None:
                    worker.terminate()
                    worker.join(timeout=1.0)
        super()._cancel_remaining(reason)

    def _submit_due_retries(self) -> None:
        if not self.deferred:
            return
        now = monotime()
        for index in sorted(index for index, due in self.deferred.items() if due <= now):
            del self.deferred[index]
            self._submit(index)

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
                index, report = self.result_queue.get_nowait()
            except (queue_module.Empty, EOFError, OSError):
                return
            self._settle(index, report)

    def _heal(self, dead: list, guilty: list[tuple[int, object]]) -> None:
        """One healing round: settle the guilty jobs, respawn or degrade."""
        self.pool_rebuilds += 1
        blame = guilty[0][0] if guilty else (min(self.outstanding) if self.outstanding else None)
        if blame is not None:
            self.states[blame].heal.pool_rebuilds += 1
        for index, worker in guilty:
            state = self.states[index]
            state.worker_deaths += 1
            if state.worker_deaths >= 2:
                # Quarantine: this job has now killed two workers; a third
                # respawn would only feed it another one.
                state.heal.jobs_poisoned += 1
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
            else:
                self._settle(
                    index,
                    EngineReport(
                        job=state.job,
                        ok=False,
                        error=(
                            f"worker lost: pid {worker.pid} exited with code "
                            f"{worker.exitcode}"
                        ),
                        seconds=0.0,
                    ),
                )
        if not self.outstanding:
            return
        if self.pool_rebuilds > MAX_POOL_REBUILDS:
            log.warning(
                "engine pool broke %d times (max %d); degrading to in-process "
                "sequential execution for %d remaining job(s)",
                self.pool_rebuilds,
                MAX_POOL_REBUILDS,
                len(self.outstanding),
            )
            self.degraded = True
            return
        # Replace every dead worker while any job is outstanding, so a
        # retried job always finds a respawned worker to run on.
        respawned = 0
        while len(self.workers) < self.worker_count:
            self._spawn_worker()
            respawned += 1
        for count in range(respawned):
            index = guilty[count % len(guilty)][0] if guilty else blame
            self.states[index].heal.workers_respawned += 1
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
            self._submit(index)
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
        # Late results beat a redundant calling-thread re-run, so drain once
        # more.
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

    engine = InferenceEngine(jobs=jobs)
    telemetry = config.telemetry if config is not None else None
    sweep_span = (
        telemetry.tracer().span("sweep", name=kind, benchmarks=len(selected), jobs=jobs)
        if telemetry is not None
        else nullcontext()
    )
    with sweep_span:
        reports = engine.run(
            [
                EngineJob(
                    kind=kind,
                    benchmark=benchmark.name,
                    seed=seed,
                    config=config,
                    timeout=job_timeout,
                )
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
    the inherited state's size.
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
