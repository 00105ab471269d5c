"""The GETAFIX engine: program + target locations -> YES/NO.

This module wires the pieces together exactly as Figure 1 of the paper
describes: the translator (:mod:`repro.encode`) produces the template
relations, the chosen reachability algorithm
(:mod:`repro.algorithms.summary_basic`, :mod:`~repro.algorithms.entry_forward`,
:mod:`~repro.algorithms.entry_forward_opt` or the bounded context-switching
system of :mod:`~repro.algorithms.concurrent_cbr`) provides the fixed-point
formula, and the symbolic evaluator (:mod:`repro.fixedpoint`) plays the role
of MUCKE.  :func:`algorithm_builder` is the one registry every session
compiles its algorithms from.

:func:`run_sequential` and :func:`run_batch` are thin wrappers over the
session API: a `run_sequential` call opens a one-shot
:class:`repro.api.AnalysisSession`, answers the single query with
:meth:`~repro.api.AnalysisSession.check` and closes the session.  The
post-answer policy — the ``ResourceLimits.degrade`` retry and witness
attachment — is session behaviour, shared by every entry point rather than
re-implemented here.  Callers with several targets on one program should
hold a session (or let :func:`run_batch` group by program) so validation,
encoding and the summary fixed point are paid once, not per query.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Mapping, Optional, Sequence, Tuple, Union

from ..boolprog import Program
from ..limits import ResourceLimits
from . import entry_forward, entry_forward_opt, summary_basic
from .common import AlgorithmSpec
from .concurrent_cbr import CBR_PREFIX, build_cbr_system
from .result import ReachabilityResult

__all__ = ["SEQUENTIAL_ALGORITHMS", "algorithm_builder", "run_sequential", "run_batch"]

#: Registry of the sequential algorithm builders by name.
SEQUENTIAL_ALGORITHMS = {
    "summary": summary_basic.build,
    "ef": entry_forward.build,
    "ef-opt": entry_forward_opt.build,
}


def algorithm_builder(name: str) -> Callable[..., AlgorithmSpec]:
    """The encoder -> :class:`AlgorithmSpec` builder of algorithm ``name``.

    ``name`` is a sequential algorithm or ``cbr-k<k>``, the Section 5
    system under at most ``k`` context switches, which takes a
    :class:`~repro.encode.concurrent.ConcurrentEncoder`.
    """
    if name in SEQUENTIAL_ALGORITHMS:
        return SEQUENTIAL_ALGORITHMS[name]
    bound = name[len(CBR_PREFIX):]
    if name.startswith(CBR_PREFIX) and bound.isdigit():
        return functools.partial(build_cbr_system, context_switches=int(bound))
    raise ValueError(
        f"unknown algorithm {name!r}; choose one of "
        f"{sorted(SEQUENTIAL_ALGORITHMS)} or {CBR_PREFIX}<k>"
    )


def run_sequential(
    program: Program,
    target_locations: Sequence[Tuple[int, int]],
    algorithm: str = "ef-opt",
    early_stop: bool = True,
    validate: bool = True,
    limits: Optional[ResourceLimits] = None,
    optimize: int = 0,
) -> ReachabilityResult:
    """Check whether any of ``target_locations`` is reachable in ``program``.

    Parameters
    ----------
    program:
        The (already parsed) sequential Boolean program.
    target_locations:
        (module index, pc) pairs, as produced by
        :meth:`repro.boolprog.ProgramCfg.label_location` or
        :meth:`~repro.boolprog.ProgramCfg.error_locations`.
    algorithm:
        ``"summary"``, ``"ef"`` or ``"ef-opt"``.
    early_stop:
        Stop the fixed-point iteration as soon as the target is known
        reachable (the appendix formula's "early termination" clause).
    limits:
        Optional :class:`~repro.limits.ResourceLimits` envelope for the
        query.  Exhaustion raises the typed
        :class:`~repro.errors.ResourceExhausted` subclass, or with
        ``limits.degrade`` retries on the cheaper algorithm as
        :meth:`repro.api.AnalysisSession.check` describes.
    optimize:
        Static pre-analysis level (:mod:`repro.analysis`).  This entry
        point takes numeric ``(module, pc)`` targets, whose numbering only
        the pc-stable passes preserve, so the level is capped at 1; use
        :func:`repro.frontends.check_reachability` (or a session) with a
        string target spec for the full level-2 pipeline.
    """
    # Imported lazily: repro.api builds on this module's algorithm registry.
    from ..api.session import AnalysisSession

    started = time.perf_counter()
    with AnalysisSession(
        program,
        default_algorithm=algorithm,
        validate=validate,
        limits=limits,
        optimize=min(int(optimize), 1),
    ) as session:
        result = session.check(list(target_locations), early_stop=early_stop)
    result.total_seconds = time.perf_counter() - started
    return result


def run_batch(
    queries: Sequence[Union["BatchQuery", Mapping[str, object]]],
    jobs: int = 1,
    start_method: Optional[str] = None,
    limits: Optional[ResourceLimits] = None,
    shard_timeout: Optional[float] = None,
    fault_plan: Optional[object] = None,
) -> "BatchReport":
    """Run a batch of reachability queries, over worker processes when ``jobs > 1``.

    Each query is a :class:`repro.parallel.BatchQuery` (a mapping with the
    same fields is coerced).  Sequential queries that share a program,
    algorithm, envelope and optimize level form one group served by ONE
    :class:`repro.api.AnalysisSession`: a group of several solves the
    summary fixed point once and answers every target as a query
    post-pass (``ShardResult.reused_solve``, ``queries_per_solve``); a
    singleton group answers its query with early stop.  Every query runs
    through :func:`repro.service.worker.execute_job`, the daemon's job path
    — inline with ``jobs <= 1``, otherwise on the service's
    :class:`~repro.service.pool.ProcessWorkerPool`, which keeps a group on
    the worker holding its session and re-runs a query whose worker died
    once.  The merged :class:`repro.parallel.BatchReport` carries
    per-shard kernel/GC statistics alongside the verdicts; see
    :func:`repro.parallel.run_shards`.

    ``limits`` installs a :class:`~repro.limits.ResourceLimits` envelope on
    every query that does not already carry one; ``shard_timeout`` bounds
    each pooled query's run on its worker (``timeout`` status, the worker
    is replaced) and ``fault_plan`` injects deterministic faults (tests/CI).
    """
    # Imported lazily: repro.parallel pulls in the front end, which imports
    # this package — a module-level import would be circular.
    from dataclasses import replace

    from ..parallel import BatchQuery, merge_shards, run_shards

    coerced = [
        query if isinstance(query, BatchQuery) else BatchQuery(**dict(query))
        for query in queries
    ]
    if limits is not None:
        coerced = [
            query if query.limits is not None else replace(query, limits=limits)
            for query in coerced
        ]
    started = time.perf_counter()
    shards, mode, fallback_reason = run_shards(
        coerced,
        jobs=jobs,
        start_method=start_method,
        shard_timeout=shard_timeout,
        fault_plan=fault_plan,
    )
    wall = time.perf_counter() - started
    return merge_shards(
        shards, jobs=jobs, mode=mode, wall_seconds=wall, fallback_reason=fallback_reason
    )
