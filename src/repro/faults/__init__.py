"""Deterministic fault injection (see ``plan.py``).

The engine imports this package at module load, so it holds only the
plan/injector layer and imports nothing from the engine.  The named chaos
scenarios that exercise it are tests (``tests/faults/test_chaos.py``,
``tests/serve/test_daemon.py``); see ``docs/resilience.md``.
"""

from repro.faults.plan import (
    FAULT_ACTIONS,
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
    backoff_delays,
    enable_lethal_faults,
    injection_count,
    injector_for,
    lethal_faults_enabled,
    maybe_inject,
    reset_injector,
    set_current_attempt,
)

__all__ = [
    "FAULT_ACTIONS",
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "backoff_delays",
    "enable_lethal_faults",
    "injection_count",
    "injector_for",
    "lethal_faults_enabled",
    "maybe_inject",
    "reset_injector",
    "set_current_attempt",
]
