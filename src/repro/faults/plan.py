"""Deterministic fault injection: plans, rules and the per-process injector.

A :class:`FaultPlan` is a seeded, frozen, picklable description of *which*
failures to inject *where*.  It travels on ``SlingConfig.fault_plan``
exactly like the ``telemetry`` handle: the default ``None`` keeps every
instrumented site a single ``is None`` branch away from the untouched code
path (the search-guard baselines pin the resulting counters at zero), and a
set plan crosses the engine's fork boundary by pickling while the mutable
injection state stays process-local.

Sites (``FAULT_SITES``) are the places the stack consults the injector:

``worker_start``
    Pool-worker bootstrap, before the first job is taken.
``job_exec``
    Inside the executing process, under the per-job SIGALRM timer, just
    before the job's payload is computed.  The qualifier is the benchmark
    name, so plans can target one job of a sweep.
``cache_open`` / ``cache_read`` / ``cache_write``
    Inside :class:`repro.cache.store.CacheStore`, *within* the existing
    ``sqlite3.Error`` try blocks -- an injected ``OperationalError`` or
    corruption error exercises the real absorb-and-disable path.
``stream_materialize``
    The checker's stream-miss path (``ModelChecker._get_stream``), before a
    skeleton stream is built or loaded from disk.
``serve_accept`` / ``serve_checkpoint`` / ``serve_client_write``
    The serving layer (:mod:`repro.serve`): the daemon's accept loop
    (qualifier: the socket path), the request-journal checkpoint write
    (qualifier: the journal path) and the client socket write, one per
    job report and one per ``accepted``/``done``/``rejected`` record
    (qualifier: the request id).  Each sits inside the daemon's defensive
    handling, so an injected failure exercises the real recovery path:
    a failed accept is logged and the loop continues, a failed checkpoint
    leaves the uncompacted journal in place, and a failed client write is
    treated as a client disconnect.

Actions (``FAULT_ACTIONS``):

``raise`` / ``raise_permanent``
    Raise :class:`InjectedFault`; the engine classifies the former as
    transient (retried) and the latter as permanent (reported).
``hang``
    Sleep for ``rule.seconds`` -- long past any sane job timeout, so the
    in-worker SIGALRM timer is what resolves it.
``exit``
    ``os._exit(rule.exit_code)``: the process dies without cleanup, the
    closest a test can get to a segfault or an OOM kill.  Lethal only
    inside pool workers (:func:`enable_lethal_faults`); everywhere else --
    inline runs, the engine's degraded sequential mode -- it is downgraded
    to a transient ``raise`` so an injected "segfault" can never take down
    the parent process.
``operational_error`` / ``disk_full`` / ``corrupt``
    Raise the matching ``sqlite3`` exception (only meaningful at the
    ``cache_*`` sites, where the store's defensive handling absorbs them).

Rule matching is *counted*, per process and per rule: the ``at``-th hit
that passes the rule's ``match``/``attempt`` filters fires, and keeps
firing for ``times`` consecutive hits (``times=0`` means forever).  Because
counters are process-local, a retried job running in a freshly respawned
worker sees the counters start over -- which is exactly what makes
"kill the first attempt, let the retry succeed" expressible: constrain the
rule with ``attempt=0``.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

FAULT_SITES = (
    "worker_start",
    "job_exec",
    "cache_open",
    "cache_read",
    "cache_write",
    "stream_materialize",
    "serve_accept",
    "serve_checkpoint",
    "serve_client_write",
)

FAULT_ACTIONS = (
    "raise",
    "raise_permanent",
    "hang",
    "exit",
    "operational_error",
    "disk_full",
    "corrupt",
)


class InjectedFault(RuntimeError):
    """A failure raised by the fault injector (never by real code).

    ``transient`` steers the engine's retry classification; it is encoded
    into the message because worker failures cross the process boundary as
    strings (``EngineReport.error``), not exception objects.
    """

    def __init__(self, site: str, action: str, transient: bool, detail: str = ""):
        self.site = site
        self.action = action
        self.transient = transient
        tag = "transient" if transient else "permanent"
        message = f"injected {action} at {site} [{tag}]"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


@dataclass(frozen=True)
class FaultRule:
    """One injection rule of a :class:`FaultPlan` (see the module docstring).

    ``at`` is 1-based: ``at=1`` fires on the first matching hit.  ``match``
    filters on a substring of the site qualifier (e.g. a benchmark name for
    ``job_exec``); ``attempt`` restricts to one retry attempt of the
    current job (``None`` matches every attempt -- that is what makes a
    poison job: it kills *every* worker it lands on).
    """

    site: str
    action: str
    at: int = 1
    times: int = 1
    match: str | None = None
    attempt: int | None = None
    #: ``hang`` duration; far beyond any test's job timeout by default.
    seconds: float = 30.0
    #: ``exit`` status; 137 is the conventional SIGKILL/OOM-kill code.
    exit_code: int = 137

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r} (expected one of {FAULT_SITES})")
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} (expected one of {FAULT_ACTIONS})"
            )
        if self.at < 1:
            raise ValueError(f"FaultRule.at is 1-based, got {self.at}")
        if self.times < 0:
            raise ValueError(f"FaultRule.times must be >= 0, got {self.times}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable set of injection rules (frozen, hashable).

    The ``seed`` also feeds the engine's retry backoff jitter
    (:func:`backoff_delays`), so a whole chaos run -- injections *and* the
    healing response -- is reproducible from the plan alone.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self):
        # Accept lists for convenience but store a hashable tuple.
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))


class FaultInjector:
    """Process-local matching state for one plan: hit counters per rule.

    Never instantiated directly -- :func:`maybe_inject` resolves the
    process's injector through a module-global registry, mirroring how the
    telemetry handle resolves its per-process tracer.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.hits = [0] * len(plan.rules)
        #: Rules actually fired in this process (the ``faults_injected``
        #: counter is derived from deltas of this).
        self.injected = 0

    def hit(self, site: str, qualifier: str, attempt: int | None) -> None:
        """Record one site hit; perform the first rule that fires, if any."""
        for index, rule in enumerate(self.plan.rules):
            if rule.site != site:
                continue
            if rule.match is not None and rule.match not in qualifier:
                continue
            if rule.attempt is not None and attempt != rule.attempt:
                continue
            self.hits[index] += 1
            count = self.hits[index]
            fires = count >= rule.at and (rule.times == 0 or count < rule.at + rule.times)
            if fires:
                self.injected += 1
                _perform(rule)

    def state(self) -> tuple[tuple[int, ...], int]:
        """The observable matching state (hit counters, faults fired)."""
        return tuple(self.hits), self.injected


#: Per-process injectors, keyed by plan.  Keyed on the plan value (frozen,
#: hashable), so equal plans share one injector; the table is process-local
#: state and forked children start from whatever the parent had -- which is
#: why the engine resets it in freshly spawned pool workers.
_INJECTORS: dict[FaultPlan, FaultInjector] = {}

#: True only in engine pool workers: the one place an ``exit`` action is
#: allowed to actually kill the process (see :func:`enable_lethal_faults`).
_LETHAL = False

#: Retry attempt of the job currently executing in this process, consulted
#: by rules with an ``attempt`` filter at sites that do not know the job
#: (the cache store, the checker).  Set by the engine around each job.
_CURRENT_ATTEMPT: int | None = None


def injector_for(plan: FaultPlan) -> FaultInjector:
    """This process's injector for ``plan`` (created on first use)."""
    injector = _INJECTORS.get(plan)
    if injector is None:
        injector = _INJECTORS[plan] = FaultInjector(plan)
    return injector


def maybe_inject(
    plan: FaultPlan | None,
    site: str,
    qualifier: str = "",
    attempt: int | None = None,
) -> None:
    """The one entry point of every instrumented site.

    ``plan=None`` returns immediately -- callers guard with ``is None``
    anyway, so a default run never even builds an injector.  ``attempt``
    defaults to the process-wide current job attempt (see
    :func:`set_current_attempt`).
    """
    if plan is None:
        return
    if attempt is None:
        attempt = _CURRENT_ATTEMPT
    injector_for(plan).hit(site, qualifier, attempt)


def reset_injector(plan: FaultPlan | None) -> None:
    """Start ``plan``'s matching state over in this process.

    Called from the engine's pool-worker bootstrap (and by tests between
    sweeps of equal plans): per-*worker-lifetime* rule counters are what
    make respawn-and-retry scenarios deterministic, regardless of whatever
    the forked parent process already counted.
    """
    if plan is not None:
        _INJECTORS[plan] = FaultInjector(plan)


def injection_count(plan: FaultPlan | None) -> int:
    """Faults fired by ``plan`` in this process so far (0 for ``None``)."""
    if plan is None:
        return 0
    injector = _INJECTORS.get(plan)
    return injector.injected if injector is not None else 0


def set_current_attempt(attempt: int | None) -> None:
    """Record which retry attempt is executing in this process."""
    global _CURRENT_ATTEMPT
    _CURRENT_ATTEMPT = attempt


def enable_lethal_faults(enabled: bool = True) -> None:
    """Allow ``exit`` actions to really kill this process.

    Called (with ``True``) only from the engine's pool-worker bootstrap.
    Everywhere else an ``exit`` rule downgrades to a transient raise, so
    inline and degraded-sequential execution survive plans written for
    pool workers -- the degradation guarantee depends on this.
    """
    global _LETHAL
    _LETHAL = enabled


def lethal_faults_enabled() -> bool:
    return _LETHAL


def _perform(rule: FaultRule) -> None:
    if rule.action == "raise":
        raise InjectedFault(rule.site, rule.action, transient=True)
    if rule.action == "raise_permanent":
        raise InjectedFault(rule.site, rule.action, transient=False)
    if rule.action == "hang":
        # Interrupted by the in-worker SIGALRM job timer; without one the
        # sleep runs its (bounded) course.
        time.sleep(rule.seconds)
        return
    if rule.action == "exit":
        if lethal_faults_enabled():
            os._exit(rule.exit_code)
        raise InjectedFault(
            rule.site, rule.action, transient=True, detail="downgraded: not a pool worker"
        )
    import sqlite3  # only the sqlite actions below need it

    if rule.action == "operational_error":
        raise sqlite3.OperationalError(f"injected operational error at {rule.site}")
    if rule.action == "disk_full":
        raise sqlite3.OperationalError(f"database or disk is full (injected at {rule.site})")
    if rule.action == "corrupt":
        raise sqlite3.DatabaseError(
            f"database disk image is malformed (injected at {rule.site})"
        )
    raise AssertionError(f"unreachable: validated action {rule.action!r}")


def backoff_delays(
    seed: int,
    key: str,
    retries: int,
    base: float = 0.05,
    cap: float = 2.0,
) -> list[float]:
    """The engine's retry-delay schedule: seeded exponential backoff + jitter.

    A pure function of ``(seed, key, retries, base, cap)``: attempt ``i``
    waits ``min(cap, base * 2**i)`` scaled by a jitter factor in
    ``[0.5, 1.5)`` drawn from ``random.Random(f"{seed}:{key}")``.  Keying
    the RNG on the job makes concurrent retries of different jobs
    decorrelated while keeping every schedule reproducible -- the
    hypothesis suite asserts exactly this determinism.
    """
    rng = random.Random(f"{seed}:{key}")
    delays = []
    for i in range(retries):
        delay = min(cap, base * (2**i))
        delays.append(min(cap, delay * (0.5 + rng.random())))
    return delays
