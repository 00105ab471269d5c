"""Deterministic fault injection for exercising the recovery paths.

The production code has three failure surfaces that are hard to hit on
demand: a pool worker dying mid-batch, a query exhausting its resource
envelope at a GC safe point, and a query running longer than its driver-side
timeout.  This module gives tests and the CI smoke step a way to trigger each
one deterministically.

A :class:`FaultPlan` is a frozen, picklable description of the faults to
inject.  The driver ships it to every worker of its process pool (see
``repro.service.pool``), which installs it before serving queries.  The
hooks below are called from fixed points in the production code
and are no-ops (a single ``is None`` check) when no plan is installed, so
the harness costs nothing in normal runs:

- :func:`on_shard` — start of every query (worker kill, injected delay,
  deterministic raise).
- :func:`on_safe_point` — every ``SymbolicBackend.gc_step`` safe point
  (raise a typed resource error at the Nth safe point).
- :func:`on_query` — start of every ``AnalysisSession.check`` (simulate
  budget exhaustion for specific algorithms, which drives the degradation
  ladder without having to size a real budget between two algorithms).

Worker kills only fire in processes marked as pool workers
(``install(plan, worker=True)``), so a plan that reaches the driver's
sequential path can never take down the driver itself.  One-shot faults
(kill the worker the *first* time it sees a query) latch on an exclusive
token file shared by all workers, which makes "transient crash, retry
succeeds" reproducible across worker rebuilds.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ..errors import AnalysisTimeout, NodeBudgetExceeded

__all__ = [
    "FaultPlan",
    "install",
    "clear",
    "on_shard",
    "on_safe_point",
    "on_query",
]


@dataclass(frozen=True)
class FaultPlan:
    """Picklable description of the faults to inject.

    Attributes
    ----------
    kill_query:
        Kill the pool worker (``os._exit``) when it starts the query of this
        name.  Only fires in worker processes.
    kill_exit_code:
        Exit code for the injected kill (nonzero, so the pool sees a crash).
    once_token:
        Path to a latch file.  When set, one-shot faults (the kill) fire only
        for the first process that wins an ``O_CREAT | O_EXCL`` create of the
        file — i.e. the fault is transient and a retry succeeds.  When None,
        the kill fires on every attempt (a persistent crasher, which the
        pool must answer ``crashed``).
    delay_query:
        Sleep ``delay_seconds`` at the start of this query (drives the
        driver-side timeout path).
    delay_seconds:
        Injected delay duration.
    fail_query:
        Raise a plain ``RuntimeError`` when this query starts, in any
        process (a deterministic "crashed"-status
        failure that does not kill the worker).  Honors ``once_token`` the
        same way the kill does, so a *transient* raise — fails once, retry
        succeeds — is expressible too (drives the retry-once paths).
    raise_at_safe_point:
        1-based index of the ``gc_step`` safe point at which to raise.
    safe_point_error:
        Which typed error to raise there: ``"timeout"``
        (:class:`AnalysisTimeout`), ``"nodes"``
        (:class:`NodeBudgetExceeded`) or ``"runtime"`` (``RuntimeError``).
    exhaust_algorithms:
        Algorithm names for which ``AnalysisSession.check`` raises an
        injected :class:`NodeBudgetExceeded` immediately — a deterministic
        stand-in for "this algorithm blew its budget" used to test the
        degradation ladder.
    """

    kill_query: Optional[str] = None
    kill_exit_code: int = 23
    once_token: Optional[str] = None
    delay_query: Optional[str] = None
    delay_seconds: float = 0.0
    fail_query: Optional[str] = None
    raise_at_safe_point: Optional[int] = None
    safe_point_error: str = "timeout"
    exhaust_algorithms: Tuple[str, ...] = ()


_ACTIVE: Optional[FaultPlan] = None
_IN_WORKER: bool = False
_SAFE_POINTS: int = 0


def install(plan: Optional[FaultPlan], worker: bool = False) -> None:
    """Install ``plan`` in this process (resets the safe-point counter)."""
    global _ACTIVE, _IN_WORKER, _SAFE_POINTS
    _ACTIVE = plan
    _IN_WORKER = worker
    _SAFE_POINTS = 0


def clear() -> None:
    """Remove any installed plan."""
    install(None)


def _claim_token(path: str) -> bool:
    """Atomically claim a one-shot latch; True for the first claimant only."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def on_shard(names: Iterable[str]) -> None:
    """Hook: the queries named ``names`` are about to run."""
    plan = _ACTIVE
    if plan is None:
        return
    names = set(names)
    if plan.delay_query is not None and plan.delay_query in names:
        time.sleep(plan.delay_seconds)
    if plan.fail_query is not None and plan.fail_query in names:
        if plan.once_token is None or _claim_token(plan.once_token):
            raise RuntimeError(
                f"injected shard failure for query {plan.fail_query!r}"
            )
    if plan.kill_query is not None and plan.kill_query in names and _IN_WORKER:
        if plan.once_token is None or _claim_token(plan.once_token):
            os._exit(plan.kill_exit_code)


def on_safe_point() -> None:
    """Hook: a symbolic-backend GC safe point was reached."""
    global _SAFE_POINTS
    plan = _ACTIVE
    if plan is None or plan.raise_at_safe_point is None:
        return
    _SAFE_POINTS += 1
    if _SAFE_POINTS != plan.raise_at_safe_point:
        return
    if plan.safe_point_error == "timeout":
        raise AnalysisTimeout(
            "injected timeout at GC safe point", consumed=0.0, budget=0.0
        )
    if plan.safe_point_error == "nodes":
        raise NodeBudgetExceeded(
            "injected node-budget hit at GC safe point", consumed=0, budget=0
        )
    raise RuntimeError("injected failure at GC safe point")


def on_query(algorithm: str) -> None:
    """Hook: ``AnalysisSession.check`` is starting a query on ``algorithm``."""
    plan = _ACTIVE
    if plan is None or not plan.exhaust_algorithms:
        return
    if algorithm in plan.exhaust_algorithms:
        raise NodeBudgetExceeded(
            f"injected budget exhaustion for algorithm {algorithm!r}",
            consumed=0,
            budget=0,
        )
