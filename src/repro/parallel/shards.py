"""Batches of reachability queries, run as clients of the one worker pool.

The paper's Figure 2/3 experiments are batches of independent reachability
checks (program x target x algorithm).  :func:`run_shards` groups the
queries that can share an analysis session — same program, algorithm
(for a concurrent query: context-switch bound), resource envelope and
optimize level (:func:`group_queries`) — and turns
each query into a :class:`~repro.service.protocol.QueryJob` run by
:func:`repro.service.worker.execute_job`, the job path the daemon uses:

* ``jobs <= 1``: inline, on a driver-local
  :class:`~repro.service.worker.SessionCache`;
* ``jobs > 1``: on a :class:`~repro.service.pool.ProcessWorkerPool` driven
  under :func:`asyncio.run`.  The pool pins a group to the worker that
  opened its session, so a group runs on one worker, in order, while
  other groups go to the least-loaded idle worker.

Every query of a group is served by the group's one session.  A singleton
group answers its query without solving up front, so early stop applies;
a larger group solves the target-independent summary once, on its first
query, and the rest are post-passes (``ShardResult.reused_solve``).  At
``-O2`` the session slices towards the union of the group's string targets
(:func:`_group_optimize`).  The session closes after the group's last
query, so a worker holds at most one batch session at a time.  No BDD
edge, plan, manager or backend ever crosses a process boundary — only
programs, targets and result records do.

Failures are classified once, in the worker (see
:mod:`repro.service.worker`); recovery is the pool's: a worker death re-runs
only its query, once, on a rebuilt worker (``retried``), a second death
answers ``crashed``, and ``shard_timeout`` answers ``timeout`` and replaces
the stuck worker.
"""

from __future__ import annotations

import asyncio
import contextlib
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..algorithms.concurrent_cbr import cbr_algorithm
from ..algorithms.result import ReachabilityResult
from ..analysis.passes import normalise_slice_targets
from ..limits import ResourceLimits
from ..service.pool import ProcessWorkerPool
from ..service.protocol import QueryJob, QueryOutcome
from ..service.worker import SessionCache, execute_job
from ..testing import faults

__all__ = [
    "BatchQuery",
    "ShardResult",
    "group_queries",
    "run_shard",
    "run_shards",
]


@dataclass
class BatchQuery:
    """One reachability query of a batch, as plain picklable data.

    Attributes
    ----------
    name:
        Row label in batch reports (e.g. ``"Driver 3 handlers (pos)"``).
    program:
        A parsed :class:`~repro.boolprog.Program` /
        :class:`~repro.boolprog.ConcurrentProgram`, or the program source
        text (parsed in the worker).
    target:
        A friendly target spec: ``"error"``, ``"proc:label"``
        (``"thread:proc:label"`` for concurrent programs), a list of such
        strings, or explicit ``(module, pc)`` pairs.
    algorithm:
        Sequential algorithm name (``"summary"``, ``"ef"``, ``"ef-opt"``);
        ignored when ``concurrent`` is set.
    concurrent:
        Use the bounded context-switching engine on a concurrent program.
    context_switches:
        Context-switch bound for the concurrent engine.
    early_stop:
        Stop the fixed point as soon as the target is known reachable.
    expected:
        Optional known verdict; merged reports flag mismatches.
    limits:
        Optional :class:`~repro.limits.ResourceLimits` envelope enforced in
        the worker (deadline, node budget, iteration budget, degradation
        ladder).  Part of the session-sharing group key: queries under
        different envelopes never share a session.
    optimize:
        Static pre-analysis level (0–2, :mod:`repro.analysis`) applied in
        the worker before encoding.  Part of the group key — sessions at
        different levels compile different programs.  A group slices
        (level 2) towards the union of its string target specs; any
        numeric ``(module, pc)`` target in the group caps the level at 1.
        A concurrent query must leave it at 0 (its session rejects more).
    witness:
        Attach a replay-validated counterexample trace to every reachable
        verdict (``result.witness``, sequential queries only).  Not part of
        the group key — extraction is a post-pass on the shared session's
        retained summary; a replay failure records the typed error under
        ``details["witness_error"]`` without changing the verdict.
    """

    name: str
    program: Union[str, object]
    target: Union[str, Sequence[str], Sequence[Tuple[int, int]]] = "error"
    algorithm: str = "ef-opt"
    concurrent: bool = False
    context_switches: int = 2
    early_stop: bool = True
    expected: Optional[bool] = None
    limits: Optional[ResourceLimits] = None
    optimize: int = 0
    witness: bool = False


@dataclass
class ShardResult:
    """Outcome of one shard: the query's result plus worker-side telemetry.

    ``result`` is ``None`` exactly when ``error`` is set; ``error`` carries
    the failure rendered as ``"ExcType: message"`` (``error_detail`` the
    typed record) so a batch survives individual shard failures.  ``pid``
    identifies the process that ran the shard (the driver process itself
    in sequential mode) and ``elapsed_seconds`` is the worker-side
    execution time — a group's first query includes opening the session
    and solving it — which a merged report compares against the batch wall
    clock to compute speedup.  ``reused_solve`` is True when the query was
    answered as a post-pass over its group session's already-solved fixed
    point instead of its own evaluation; the report's
    ``queries_per_solve`` aggregates it.

    ``status`` is the query taxonomy the daemon reports too:

    ``"ok"``
        Clean success on the first attempt.
    ``"retried"``
        Success, but only after the worker died and a rebuilt worker re-ran
        this query (``retries`` counts the extra attempts).
    ``"error"``
        A user error: the program does not parse or typecheck, or the
        target names no label of it.
    ``"timeout"``
        The query hit its wall-clock envelope — either the worker raised
        :class:`~repro.errors.AnalysisTimeout` or the driver-side
        ``shard_timeout`` expired.
    ``"resource"``
        Any other :class:`~repro.errors.ResourceExhausted` (node budget,
        iteration budget, a baseline's exploration budget); ``error_detail``
        carries the consumed-vs-budget record.
    ``"crashed"``
        The worker died on both attempts, or the query raised an
        unexpected exception.
    """

    name: str
    result: Optional[ReachabilityResult] = None
    error: Optional[str] = None
    pid: int = 0
    elapsed_seconds: float = 0.0
    expected: Optional[bool] = None
    reused_solve: bool = False
    status: str = "ok"
    retries: int = 0
    error_detail: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def mismatch(self) -> bool:
        """True when an expected verdict was given and the shard disagrees."""
        return (
            self.ok
            and self.expected is not None
            and self.result is not None
            and self.result.reachable != self.expected
        )

    def live_nodes(self) -> Optional[int]:
        """The shard kernel's live BDD node count, or None."""
        return self.result.live_nodes() if self.result is not None else None

    def gc_collections(self) -> Optional[int]:
        """The shard kernel's collection count, or None."""
        if self.result is None:
            return None
        gc = self.result.gc_stats()
        if not gc:
            return 0
        count = gc.get("collections")
        return count if isinstance(count, int) else 0


def _group_optimize(
    queries: Sequence[BatchQuery],
) -> Tuple[int, Optional[Tuple[str, ...]]]:
    """The (level, slice_targets) a shared session for this group may use.

    Level 2 slices towards the union of the group's string target specs —
    every query of the group is then inside the sliced set, so the shared
    session's slice guard admits all of them.  A numeric ``(module, pc)``
    target anywhere in the group pins the raw pc numbering and caps the
    level at 1 (the pc-stable pipeline).
    """
    level = int(queries[0].optimize)
    if level < 2:
        return level, None
    specs: set = set()
    for query in queries:
        normalised = normalise_slice_targets(query.target)
        if normalised is None:
            return min(level, 1), None
        specs.update(normalised)
    return level, tuple(sorted(specs))


def _algorithm(query: BatchQuery) -> str:
    """The session algorithm of a query: ``cbr-k<k>`` for a concurrent one."""
    return cbr_algorithm(query.context_switches) if query.concurrent else query.algorithm


def _group_key(query: BatchQuery):
    """Queries land in one group iff they can share an analysis session.

    Parsed programs group by object identity, source texts by content.
    """
    program_key = query.program if isinstance(query.program, str) else id(query.program)
    # Limits are frozen (hashable) and govern the shared session, so queries
    # under different envelopes must not share one; likewise the optimize
    # level, which decides which program the session compiles.
    return (program_key, _algorithm(query), query.limits, query.optimize)


def group_queries(queries: Sequence[BatchQuery]) -> List[List[int]]:
    """Partition query indices into session-shareable groups (order kept).

    Group order follows first appearance; indices inside a group keep
    submission order, so flattening group results in group-then-member
    order never reorders a batch that was already grouped.
    """
    groups: Dict[object, List[int]] = {}
    for index, query in enumerate(queries):
        groups.setdefault(_group_key(query), []).append(index)
    return list(groups.values())


def _group_jobs(
    queries: Sequence[BatchQuery], groups: Sequence[List[int]]
) -> List[List[QueryJob]]:
    """One job per query; a group's jobs share one session key, and the
    last of them closes the session."""
    jobs: List[List[QueryJob]] = []
    for number, indices in enumerate(groups):
        members = [queries[index] for index in indices]
        level, slice_specs = _group_optimize(members)
        jobs.append(
            [
                QueryJob(
                    id=str(index),
                    name=query.name,
                    program=query.program,
                    program_hash=f"batch-{number}",
                    target=query.target,
                    algorithm=_algorithm(query),
                    concurrent=query.concurrent,
                    context_switches=query.context_switches,
                    early_stop=query.early_stop,
                    limits=query.limits,
                    optimize=level,
                    witness=query.witness,
                    slice_targets=slice_specs,
                    close_session=position == len(members) - 1,
                )
                for position, (index, query) in enumerate(zip(indices, members))
            ]
        )
    return jobs


def _shards(
    queries: Sequence[BatchQuery], outcomes: Sequence[QueryOutcome]
) -> List[ShardResult]:
    """One group's outcomes as shard results.

    The group's first successful query carries the solve
    (``reused_solve=False``), even when an earlier query failed; later warm
    queries are post-passes.  The result's ``details["reused_solve"]``
    agrees with the shard-level flag.
    """
    shards: List[ShardResult] = []
    paid = False
    for query, outcome in zip(queries, outcomes):
        shard = ShardResult(
            name=query.name,
            result=outcome.result,
            pid=outcome.worker_pid,
            elapsed_seconds=outcome.elapsed_seconds,
            expected=query.expected,
            status=outcome.status,
            retries=outcome.retries,
        )
        if outcome.ok:
            shard.reused_solve = outcome.warm and paid
            outcome.result.details["reused_solve"] = shard.reused_solve
            paid = True
        else:
            shard.error = f"{outcome.error['type']}: {outcome.error['message']}"
            shard.error_detail = outcome.error
        shards.append(shard)
    return shards


def run_shard(query: BatchQuery) -> ShardResult:
    """Run one query inline on a private session: a batch of one."""
    [[job]] = _group_jobs([query], [[0]])
    return _shards([query], [execute_job(SessionCache(), job)])[0]


def _picklable(jobs: Sequence[QueryJob]) -> bool:
    """Feasibility probe: can this group cross a process boundary?"""
    try:
        pickle.dumps(list(jobs))
        return True
    except Exception:
        return False


def _run_inline(
    group_jobs: Dict[int, List[QueryJob]], fault_plan: Optional[faults.FaultPlan]
) -> Dict[int, List[QueryOutcome]]:
    """Run groups in the driver process, with any fault plan installed
    (kills stay disabled outside pool workers)."""
    if fault_plan is not None:
        faults.install(fault_plan)
    cache = SessionCache()
    try:
        return {
            number: [execute_job(cache, job) for job in jobs]
            for number, jobs in group_jobs.items()
        }
    finally:
        cache.close()
        if fault_plan is not None:
            faults.clear()


async def _serve(
    group_jobs: Dict[int, List[QueryJob]], pool: ProcessWorkerPool
) -> Dict[int, List[QueryOutcome]]:
    # SIGTERM takes the path asyncio.run gives SIGINT: cancel the batch and
    # stop the pool, so an interrupted driver never orphans a worker
    # mid-query.  Signal handlers are a main-thread-only facility.
    with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
    try:
        await pool.start()
        flat = [job for jobs in group_jobs.values() for job in jobs]
        outcomes = iter(await asyncio.gather(*(pool.submit(job) for job in flat)))
    finally:
        await pool.stop()
    return {number: [next(outcomes) for _ in jobs] for number, jobs in group_jobs.items()}


def _run_pool(
    group_jobs: Dict[int, List[QueryJob]],
    jobs: int,
    start_method: Optional[str],
    shard_timeout: Optional[float],
    fault_plan: Optional[faults.FaultPlan],
) -> Dict[int, List[QueryOutcome]]:
    """Run groups on a process pool; a signal-interrupted batch raises
    :class:`KeyboardInterrupt` after every worker has stopped."""
    pool = ProcessWorkerPool(
        min(jobs, len(group_jobs)),
        fault_plan=fault_plan,
        start_method=start_method,
        shard_timeout=shard_timeout,
    )
    previous = None
    if threading.current_thread() is threading.main_thread():
        previous = signal.getsignal(signal.SIGTERM)
    try:
        return asyncio.run(_serve(group_jobs, pool))
    except asyncio.CancelledError:
        raise KeyboardInterrupt("batch interrupted by SIGTERM") from None
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def run_shards(
    queries: Sequence[BatchQuery],
    jobs: int = 1,
    start_method: Optional[str] = None,
    shard_timeout: Optional[float] = None,
    fault_plan: Optional[faults.FaultPlan] = None,
) -> Tuple[List[ShardResult], str, Optional[str]]:
    """Run a batch of queries, over ``jobs`` worker processes when > 1.

    Queries sharing a program, algorithm, envelope and optimize level form
    one group served by one session (see the module docstring).  Groups
    that cannot be pickled run inline in the driver; the rest of the batch
    still uses the pool.  ``shard_timeout`` bounds each pooled query's run
    on its worker; ``fault_plan`` ships a deterministic
    :class:`~repro.testing.faults.FaultPlan` into the workers (tests/CI
    only).

    Returns ``(results, mode, fallback_reason)``: ``results`` preserves
    query order; ``mode`` records how the batch actually ran —
    ``"process-pool"``, ``"sequential"`` (requested with ``jobs <= 1`` or a
    single group) or ``"sequential-fallback"`` (pool unavailable);
    ``fallback_reason`` names the cause of a fallback (unpicklable batch,
    the exception that broke the pool, or a note that some unpicklable
    groups ran inline) and is None otherwise.
    """
    queries = list(queries)
    groups = group_queries(queries)
    group_jobs = _group_jobs(queries, groups)
    outcomes: Dict[int, List[QueryOutcome]] = {}
    mode, reason = "sequential", None
    if jobs > 1 and len(groups) > 1:
        pooled = {number: js for number, js in enumerate(group_jobs) if _picklable(js)}
        inline = len(groups) - len(pooled)
        if not pooled:
            mode, reason = "sequential-fallback", "batch is not picklable"
        else:
            try:
                outcomes = _run_pool(pooled, jobs, start_method, shard_timeout, fault_plan)
            except Exception as exc:  # pool start-up or transport failure: degrade, don't die
                mode = "sequential-fallback"
                reason = f"process pool failed: {type(exc).__name__}: {exc}"
            else:
                mode = "process-pool"
                if inline:
                    reason = f"{inline} unpicklable group(s) ran inline in the driver"
    outcomes.update(
        _run_inline(
            {n: js for n, js in enumerate(group_jobs) if n not in outcomes}, fault_plan
        )
    )
    results: List[ShardResult] = [None] * len(queries)  # type: ignore[list-item]
    for number, indices in enumerate(groups):
        shards = _shards([queries[index] for index in indices], outcomes[number])
        for index, shard in zip(indices, shards):
            results[index] = shard
    return results, mode, reason
