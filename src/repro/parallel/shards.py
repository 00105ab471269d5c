"""Process-pool shard scheduler for batches of reachability queries.

The paper's Figure 2/3 experiments are embarrassingly parallel: dozens of
independent reachability checks (program x target x algorithm), each owning
its own MUCKE-style solver instance.  Since the signed-edge representation
and the GC safe-point protocol are *manager-local* (see
:mod:`repro.bdd.manager`), every shard can construct a private
:class:`~repro.bdd.BddManager` + :class:`~repro.fixedpoint.symbolic.SymbolicBackend`
with no shared state whatsoever — which makes process-level sharding the
natural parallelism unit in CPython (threads would fight the GIL for zero
gain on this pure-Python kernel).

Ownership contract
------------------
* A :class:`BatchQuery` is plain picklable data: the parsed program (or its
  source text), a friendly target spec, and algorithm/engine options.
* :func:`run_shard` is the *worker entry point*.  It runs in the worker
  process, builds the entire solver stack from scratch, and returns a
  :class:`ShardResult` whose :class:`~repro.algorithms.ReachabilityResult`
  carries the shard's own kernel/GC statistics snapshot.  No BDD edge, plan,
  manager or backend ever crosses a process boundary — only programs,
  targets and result records do.
* :func:`run_shards` fans a batch out over a process pool (``jobs`` workers)
  and preserves query order in the returned list.  With ``jobs <= 1``, or
  when the batch cannot be pickled, or when the platform refuses to start a
  pool, it degrades to an in-process sequential loop with identical
  semantics (same results, same ordering, errors captured the same way).

Interpretation exchange (per-shard session reuse)
-------------------------------------------------
Queries that target *the same program* with the same algorithm no longer
each rebuild the solver stack: :func:`run_shards` groups them (see
``group_by_program``) and ships each multi-query group to
:func:`run_shard_group`, which opens ONE
:class:`repro.api.AnalysisSession` in the worker, solves the
target-independent summary fixed point once and answers every target of
the group as a query post-pass over the retained interpretations.  This is
how fixed-point summaries are shared across queries: *within* a shard,
through the session; never *across* process boundaries — the ownership
contract above is unchanged, and ``ShardResult.reused_solve`` records
which queries rode an already-solved session.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..algorithms.result import ReachabilityResult
from ..analysis.passes import normalise_slice_targets
from ..errors import AnalysisTimeout, ResourceExhausted
from ..limits import DEGRADATION_LADDER, ResourceLimits
from ..testing import faults

__all__ = [
    "BatchQuery",
    "ShardResult",
    "run_shard",
    "run_shard_group",
    "run_shards",
    "run_shards_snapshot",
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
        Ignored for concurrent queries.
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
    the worker-side exception rendered as ``"ExcType: message"`` so a batch
    survives individual shard failures.  ``pid`` identifies the worker
    process that ran the shard (the driver process itself in sequential
    mode) and ``elapsed_seconds`` is the shard-local wall clock, which a
    merged report compares against the batch wall clock to compute speedup.
    ``reused_solve`` is True when the query was answered as a post-pass over
    a session's already-solved fixed point instead of its own evaluation
    (see :func:`run_shard_group`); the report's ``queries_per_solve``
    aggregates it.

    ``status`` is the failure/recovery taxonomy the batch layer reports:

    ``"ok"``
        Clean success on the first attempt.
    ``"retried"``
        Success, but only after the scheduler rebuilt a broken pool and
        re-ran this shard (``retries`` counts the extra attempts).
    ``"timeout"``
        The query hit its wall-clock envelope — either the worker raised
        :class:`~repro.errors.AnalysisTimeout` or the driver-side
        ``shard_timeout`` expired.
    ``"resource"``
        Any other :class:`~repro.errors.ResourceExhausted` (node budget,
        iteration budget, a baseline's exploration budget); ``error_detail``
        carries the consumed-vs-budget record.
    ``"crashed"``
        The worker process died or raised an unexpected exception;
        repeatedly-crashing shards are quarantined with this status.
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


def _classify(exc: BaseException) -> Tuple[str, Optional[Dict[str, object]]]:
    """Map a worker-side exception to the ShardResult status taxonomy."""
    if isinstance(exc, AnalysisTimeout):
        return "timeout", exc.detail()
    if isinstance(exc, ResourceExhausted):
        return "resource", exc.detail()
    return "crashed", None


def _failure_shard(query: BatchQuery, exc: BaseException, elapsed: float) -> ShardResult:
    """A structured error result for one query (status + budget detail)."""
    status, detail = _classify(exc)
    return ShardResult(
        name=query.name,
        error=f"{type(exc).__name__}: {exc}",
        pid=os.getpid(),
        elapsed_seconds=elapsed,
        expected=query.expected,
        status=status,
        error_detail=detail,
    )


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


def _session_check(session, query: BatchQuery):
    """One session query with the optional degradation ladder applied."""
    try:
        result = session.check(
            query.target, algorithm=query.algorithm, early_stop=query.early_stop
        )
        algorithm = query.algorithm
    except ResourceExhausted:
        fallback = (
            DEGRADATION_LADDER.get(query.algorithm)
            if query.limits is not None and query.limits.degrade
            else None
        )
        if fallback is None:
            raise
        result = session.check(
            query.target, algorithm=fallback, early_stop=query.early_stop
        )
        result.degraded_from = query.algorithm
        algorithm = fallback
    if query.witness and result.reachable:
        _attach_witness(result, session, query.target, algorithm)
    return result


def _attach_witness(result, session, target, algorithm: str) -> None:
    """Post-pass witness extraction; never lets a failure change the verdict."""
    from ..witness import WitnessError

    try:
        trace = session.explain(target, algorithm=algorithm)
    except WitnessError as exc:
        result.details["witness_error"] = f"{type(exc).__name__}: {exc}"
    else:
        result.witness = trace.to_dict() if trace is not None else None


def run_shard(query: BatchQuery) -> ShardResult:
    """Worker entry point: run one query with a private solver stack.

    Imports the front end lazily (workers under ``spawn`` re-import this
    module) and builds a fresh ``SymbolicBackend``/``BddManager`` pair via
    the engine — nothing is shared with the driver process or any sibling
    shard, so the per-shard ``result.stats`` snapshot is exactly the kernel
    activity of this one query.  A :class:`~repro.errors.ResourceExhausted`
    failure is reported with status ``timeout``/``resource`` and its
    consumed-vs-budget detail; anything else is ``crashed``.
    """
    from ..frontends.getafix import check_concurrent_reachability, check_reachability

    started = time.perf_counter()
    try:
        if query.concurrent:
            result = check_concurrent_reachability(
                query.program,
                target=query.target,
                context_switches=query.context_switches,
                early_stop=query.early_stop,
                limits=query.limits,
            )
        else:
            result = check_reachability(
                query.program,
                target=query.target,
                algorithm=query.algorithm,
                early_stop=query.early_stop,
                limits=query.limits,
                optimize=query.optimize,
                witness=query.witness,
            )
        return ShardResult(
            name=query.name,
            result=result,
            pid=os.getpid(),
            elapsed_seconds=time.perf_counter() - started,
            expected=query.expected,
        )
    except Exception as exc:  # noqa: BLE001 — a shard failure must not kill the batch
        return _failure_shard(query, exc, time.perf_counter() - started)


def run_shard_group(queries: Sequence[BatchQuery]) -> List[ShardResult]:
    """Worker entry point for a group of queries on ONE program.

    A singleton group degrades to :func:`run_shard` (no session overhead
    for one-off queries).  Larger groups open a single
    :class:`repro.api.AnalysisSession`, which validates, builds the CFG,
    encodes the templates and solves the summary fixed point once; every
    query of the group is then answered against the retained
    interpretations.  The first result of the group carries the solve
    (``reused_solve=False``); the rest are post-passes
    (``reused_solve=True``).  A session-construction failure (parse/type
    error) fails every query of the group the same way each would have
    failed alone.

    Kernel-statistics caveat: grouped queries share one manager, and a
    session's stats snapshots are cumulative, so the ``live``/``gc``
    numbers of a grouped row describe the session *up to and including*
    that query — not that query alone, as on singleton shards.  Summing
    those columns across the rows of one group double-counts.
    """
    queries = list(queries)
    try:
        # Fault-injection hook: may sleep, raise, or (in a pool worker only)
        # kill the process, exercising the scheduler's recovery paths.
        faults.on_shard([query.name for query in queries])
    except Exception as exc:  # noqa: BLE001 — an injected raise fails the group cleanly
        return [_failure_shard(query, exc, 0.0) for query in queries]
    if len(queries) == 1:
        return [run_shard(queries[0])]
    from ..api.session import SessionSpec

    head = queries[0]
    started = time.perf_counter()
    try:
        level, slice_specs = _group_optimize(queries)
        session = SessionSpec(
            program=head.program,
            default_algorithm=head.algorithm,
            limits=head.limits,
            optimize=level,
            slice_targets=slice_specs,
        ).open()
    except Exception as exc:  # noqa: BLE001 — group setup failure hits every query
        elapsed = time.perf_counter() - started
        return [
            _failure_shard(query, exc, elapsed if index == 0 else 0.0)
            for index, query in enumerate(queries)
        ]
    # Session construction (parse/validate/CFG) is shared cost the singleton
    # path would have timed inside run_shard; charge it — like the solve —
    # to the group's first query so shard_seconds/speedup stay honest.
    setup_seconds = time.perf_counter() - started
    results: List[ShardResult] = []
    try:
        # Solve the target-independent summary once up front so EVERY query
        # of the group — not just those after the first full fixed point —
        # is a post-pass.  The first query carries the solve in its clock,
        # the first *successful* query carries its attribution
        # (reused_solve=False: it "paid" for the solve); failure to
        # pre-solve (iteration budget, target-dependent system) degrades to
        # the lazy per-query behaviour.
        solve_seconds = 0.0
        presolved = False
        try:
            solve_started = time.perf_counter()
            session.solve(head.algorithm)
            solve_seconds = time.perf_counter() - solve_started
            presolved = True
        except Exception:  # noqa: BLE001 — lazy checks may still succeed/report
            pass
        solve_attributed = not presolved
        first_query_overhead = setup_seconds + solve_seconds
        for index, query in enumerate(queries):
            query_started = time.perf_counter()
            try:
                result = _session_check(session, query)
                reused = bool(result.details.get("reused_solve"))
                if not solve_attributed:
                    reused = False
                    solve_attributed = True
                # Keep the two exposed reuse flags consistent: the result's
                # details must agree with the shard-level attribution.
                result.details["reused_solve"] = reused
                results.append(
                    ShardResult(
                        name=query.name,
                        result=result,
                        pid=os.getpid(),
                        elapsed_seconds=time.perf_counter()
                        - query_started
                        + (first_query_overhead if index == 0 else 0.0),
                        expected=query.expected,
                        reused_solve=reused,
                    )
                )
            except Exception as exc:  # noqa: BLE001 — one bad target, not the group
                # Index 0 still carries the setup/solve wall time so the
                # report's shard_seconds/speedup accounting does not lose it
                # when the first query errors.
                results.append(
                    _failure_shard(
                        query,
                        exc,
                        time.perf_counter()
                        - query_started
                        + (first_query_overhead if index == 0 else 0.0),
                    )
                )
    finally:
        session.close()
    return results


def _snapshot_pool_entry(
    handle, queries: List[BatchQuery], fault_plan: Optional[faults.FaultPlan] = None
) -> List[ShardResult]:
    """Pool worker entry point for the snapshot fan-out path.

    Attaches to the driver's frozen solved table copy-free
    (:meth:`repro.api.AnalysisSession.from_snapshot`) and answers its chunk
    of targets as query post-passes — no fixed-point iteration runs in any
    worker.  The attachment is read-only shared memory, so every worker of
    the fan-out shares ONE copy of the solved node table.
    """
    if fault_plan is not None:
        faults.install(fault_plan, worker=True)
    try:
        faults.on_shard([query.name for query in queries])
    except Exception as exc:  # noqa: BLE001 — an injected raise fails the chunk cleanly
        return [_failure_shard(query, exc, 0.0) for query in queries]
    from ..api.session import AnalysisSession

    started = time.perf_counter()
    try:
        session = AnalysisSession.from_snapshot(handle, limits=queries[0].limits)
    except Exception as exc:  # noqa: BLE001 — a vanished/corrupt segment fails the chunk
        elapsed = time.perf_counter() - started
        return [
            _failure_shard(query, exc, elapsed if index == 0 else 0.0)
            for index, query in enumerate(queries)
        ]
    results: List[ShardResult] = []
    try:
        for query in queries:
            query_started = time.perf_counter()
            try:
                result = _session_check(session, query)
                results.append(
                    ShardResult(
                        name=query.name,
                        result=result,
                        pid=os.getpid(),
                        elapsed_seconds=time.perf_counter() - query_started,
                        expected=query.expected,
                        reused_solve=True,
                    )
                )
            except Exception as exc:  # noqa: BLE001 — one bad target, not the chunk
                results.append(
                    _failure_shard(query, exc, time.perf_counter() - query_started)
                )
    finally:
        session.close()
    return results


def _snapshot_eligible(queries: Sequence[BatchQuery]) -> Optional[str]:
    """None when the batch can ride one snapshot; else the blocking reason."""
    head = queries[0]
    if head.concurrent:
        return "concurrent queries have no session/snapshot support"
    key = _group_key(head, 0)
    for index, query in enumerate(queries[1:], start=1):
        if query.concurrent or _group_key(query, index) != key:
            return "queries span multiple programs/algorithms/envelopes"
    return None


def _chunk(indices: Sequence[int], parts: int) -> List[List[int]]:
    """Split indices into at most ``parts`` contiguous, near-equal chunks."""
    parts = max(1, min(parts, len(indices)))
    size, extra = divmod(len(indices), parts)
    chunks: List[List[int]] = []
    start = 0
    for part in range(parts):
        stop = start + size + (1 if part < extra else 0)
        chunks.append(list(indices[start:stop]))
        start = stop
    return chunks


def run_shards_snapshot(
    queries: Sequence[BatchQuery],
    jobs: int = 2,
    start_method: Optional[str] = None,
    shard_timeout: Optional[float] = None,
    fault_plan: Optional[faults.FaultPlan] = None,
) -> Tuple[List[ShardResult], str, Optional[str]]:
    """Fan one program's targets out over workers sharing ONE solved table.

    The classic grouped path (:func:`run_shards`) collapses a same-program
    batch onto one worker: the session — manager, plans, retained fixed
    point — cannot cross a process boundary, so neither can the
    parallelism.  The snapshot path decouples the two: the driver solves
    the summary fixed point once, freezes it into a shared-memory segment
    (:meth:`repro.api.AnalysisSession.freeze`), and every worker attaches
    copy-free to run its chunk of targets as post-passes.  Verdicts are
    identical to the classic path by the overlay's canonicity contract.

    Fault tolerance: a chunk whose worker dies (or times out against
    ``shard_timeout``) is re-run *inline in the driver* by re-attaching the
    same segment — the solve is never repeated.  The driver owns the
    segment and unlinks it in a ``finally``, so neither worker kills nor
    driver exceptions leak ``/dev/shm`` entries.

    Falls back to :func:`run_shards` (same return contract) when the batch
    is not snapshot-eligible — mixed programs/algorithms/envelopes,
    concurrent queries, ``jobs <= 1``, unpicklable batch — or when the
    solve/freeze itself fails.
    Returns ``(results, mode, reason)`` with mode ``"snapshot-pool"`` on
    the fan-out path.
    """
    queries = list(queries)
    if not queries:
        return [], "sequential", None
    reason = _snapshot_eligible(queries)
    if reason is None and (jobs <= 1 or len(queries) <= 1):
        reason = "nothing to fan out"
    if reason is None and not _group_is_picklable(queries):
        reason = "batch is not picklable"
    if reason is not None:
        results, mode, fallback = run_shards(
            queries,
            jobs=jobs,
            start_method=start_method,
            shard_timeout=shard_timeout,
            fault_plan=fault_plan,
        )
        return results, mode, fallback or reason

    from ..api.session import SessionSpec

    head = queries[0]
    solve_started = time.perf_counter()
    try:
        # The snapshot handle carries no slice pedigree (freeze() refuses
        # sliced sessions), so the fan-out path optimizes without slicing;
        # workers resolve string specs against the frozen optimized CFG.
        level, _ = _group_optimize(queries)
        session = SessionSpec(
            program=head.program,
            default_algorithm=head.algorithm,
            limits=head.limits,
            optimize=level,
        ).open()
        try:
            session.solve(head.algorithm)
            handle = session.freeze(head.algorithm)
        finally:
            session.close()
    except Exception as exc:  # noqa: BLE001 — no snapshot support: classic path
        results, mode, fallback = run_shards(
            queries,
            jobs=jobs,
            start_method=start_method,
            shard_timeout=shard_timeout,
            fault_plan=fault_plan,
        )
        return (
            results,
            mode,
            fallback or f"solve/freeze failed: {type(exc).__name__}: {exc}",
        )
    solve_seconds = time.perf_counter() - solve_started

    chunks = _chunk(range(len(queries)), jobs)
    per_chunk: Dict[int, List[ShardResult]] = {}
    recovered_inline = 0
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool

        import multiprocessing

        context = multiprocessing.get_context(start_method) if start_method else None
        try:
            pool = ProcessPoolExecutor(max_workers=len(chunks), mp_context=context)
        except Exception:  # noqa: BLE001 — no pool: every chunk runs inline
            pool = None
        futures: Dict[int, object] = {}
        if pool is not None:
            try:
                for ci, chunk in enumerate(chunks):
                    futures[ci] = pool.submit(
                        _snapshot_pool_entry,
                        handle,
                        [queries[i] for i in chunk],
                        fault_plan,
                    )
            except Exception:  # noqa: BLE001 — pool broke during submission
                pass
        abandoned = False
        for ci, chunk in enumerate(chunks):
            future = futures.get(ci)
            outcome: Optional[List[ShardResult]] = None
            if future is not None and not abandoned:
                try:
                    outcome = future.result(timeout=shard_timeout)  # type: ignore[attr-defined]
                except (BrokenProcessPool, FutureTimeout):
                    # Dead or stuck worker — and, for BrokenProcessPool, a
                    # condemned pool whose remaining futures will all fail.
                    # The solve is already banked in the segment: recover
                    # inline, copy-free, and stop waiting on this pool.
                    abandoned = True
                except Exception:  # noqa: BLE001 — transport/entry failure
                    outcome = None
            if outcome is None:
                outcome = _snapshot_pool_entry(handle, [queries[i] for i in chunk])
                recovered_inline += 1
            per_chunk[ci] = outcome
        if pool is not None:
            if abandoned:
                _terminate_pool(pool)
            else:
                pool.shutdown(wait=True)
    finally:
        handle.unlink()

    ordered: List[ShardResult] = [None] * len(queries)  # type: ignore[list-item]
    for ci, chunk in enumerate(chunks):
        for index, shard in zip(chunk, per_chunk[ci]):
            ordered[index] = shard
    # The solve/freeze is shared cost; like the classic grouped path, the
    # first successful shard carries its wall time and attribution.
    for shard in ordered:
        if shard.ok:
            shard.reused_solve = False
            if shard.result is not None:
                shard.result.details["reused_solve"] = False
            shard.elapsed_seconds += solve_seconds
            break
    reason = (
        f"{recovered_inline} chunk(s) re-attached inline after worker failure"
        if recovered_inline
        else None
    )
    return ordered, "snapshot-pool", reason


def _group_key(query: BatchQuery, index: int):
    """Queries land in one group iff they can share an analysis session.

    Concurrent queries use a different engine (no session support) and stay
    singletons, as does anything whose program cannot be compared cheaply:
    parsed programs group by object identity, source texts by content.
    """
    if query.concurrent:
        return ("solo", index)
    program_key = query.program if isinstance(query.program, str) else id(query.program)
    # Limits are frozen (hashable) and govern the shared session, so queries
    # under different envelopes must not share one; likewise the optimize
    # level, which decides which program the session compiles.
    return ("session", program_key, query.algorithm, query.limits, query.optimize)


def group_queries(queries: Sequence[BatchQuery]) -> List[List[int]]:
    """Partition query indices into session-shareable groups (order kept).

    Group order follows first appearance; indices inside a group keep
    submission order, so flattening group results in group-then-member
    order never reorders a batch that was already grouped.
    """
    groups: Dict[object, List[int]] = {}
    for index, query in enumerate(queries):
        groups.setdefault(_group_key(query, index), []).append(index)
    return list(groups.values())


def _group_is_picklable(queries: Sequence[BatchQuery]) -> bool:
    """Feasibility probe: can this shard group cross a process boundary?"""
    try:
        pickle.dumps(list(queries))
        return True
    except Exception:
        return False


def _pool_entry(
    queries: List[BatchQuery], fault_plan: Optional[faults.FaultPlan] = None
) -> List[ShardResult]:
    """Pool worker entry point: install the fault plan, run the group.

    Workers are reused across groups, so the plan is (re)installed on every
    call; ``worker=True`` marks the process as a pool worker, which is the
    only place injected kills are allowed to fire.
    """
    if fault_plan is not None:
        faults.install(fault_plan, worker=True)
    return run_shard_group(queries)


def _mark_retried(results: List[ShardResult], attempts: int) -> List[ShardResult]:
    """Record that a group only completed after ``attempts`` re-runs."""
    if attempts > 0:
        for shard in results:
            shard.retries = attempts
            if shard.status == "ok":
                shard.status = "retried"
    return results


def _timeout_results(
    queries: Sequence[BatchQuery], timeout_seconds: float, attempts: int
) -> List[ShardResult]:
    """Quarantine a group whose worker exceeded the driver-side timeout."""
    detail = {
        "type": "AnalysisTimeout",
        "resource": "wall-clock",
        "consumed": timeout_seconds,
        "budget": timeout_seconds,
    }
    return [
        ShardResult(
            name=query.name,
            error=(
                f"AnalysisTimeout: shard exceeded the driver-side "
                f"{timeout_seconds:g}s timeout"
            ),
            elapsed_seconds=timeout_seconds if index == 0 else 0.0,
            expected=query.expected,
            status="timeout",
            retries=attempts,
            error_detail=dict(detail),
        )
        for index, query in enumerate(queries)
    ]


def _crashed_results(queries: Sequence[BatchQuery], attempts: int) -> List[ShardResult]:
    """Quarantine a group whose worker died on every attempt."""
    return [
        ShardResult(
            name=query.name,
            error=(
                "BrokenProcessPool: worker process died running this shard "
                f"({attempts} attempt(s))"
            ),
            expected=query.expected,
            status="crashed",
            retries=max(0, attempts - 1),
        )
        for query in queries
    ]


def _terminate_pool(pool) -> None:
    """Tear a pool down without waiting on stuck or dead workers."""
    processes = getattr(pool, "_processes", None)
    for process in list((processes or {}).values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 — already-dead workers are fine
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _run_pool_groups(
    grouped: Dict[int, List[BatchQuery]],
    jobs: int,
    context,
    shard_timeout: Optional[float],
    max_retries: int,
    retry_backoff: float,
    fault_plan: Optional[faults.FaultPlan],
) -> Dict[int, List[ShardResult]]:
    """Run picklable groups over a process pool with crash containment.

    Returns ``{group index: [ShardResult, ...]}`` for every group in
    ``grouped``.  Failure handling, per round:

    * A dead worker (``BrokenProcessPool``) fails every in-flight future of
      the pool; finished groups keep their results, the rest are re-run in a
      rebuilt pool after a bounded exponential backoff.  Once the
      ``max_retries`` shared-pool rounds are spent, remaining groups run
      one-per-pool; only a group that crashes *alone* in its own pool is
      quarantined as structured ``"crashed"`` results — a shared-round crash
      is ambiguous (the broken pool fails innocents alongside the culprit)
      and never convicts.
    * A group exceeding the driver-side ``shard_timeout`` is quarantined as
      ``"timeout"`` results and its (presumed stuck) pool is torn down;
      unfinished siblings are re-run, finished ones are harvested first.

    A round that neither completes nor convicts any group raises, which the
    caller turns into the whole-batch sequential fallback.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeout
    from concurrent.futures.process import BrokenProcessPool

    completed: Dict[int, List[ShardResult]] = {}
    crash_counts: Dict[int, int] = {index: 0 for index in grouped}
    pending: List[int] = sorted(grouped)
    round_number = 0
    while pending:
        round_number += 1
        attempts_so_far = round_number - 1
        # After max_retries shared rounds, isolate: one group per pool.
        isolate = round_number > max_retries + 1
        batches = [[index] for index in pending] if isolate else [pending]
        next_pending: List[int] = []
        progress = False
        crashed_this_round = False
        for batch in batches:
            pool = ProcessPoolExecutor(
                max_workers=min(jobs, len(batch)), mp_context=context
            )
            pool_closed = False
            try:
                futures: Dict[object, int] = {}
                try:
                    for index in batch:
                        futures[pool.submit(_pool_entry, grouped[index], fault_plan)] = index
                except Exception:  # noqa: BLE001 — pool broke during submission
                    crashed_this_round = True
                crashed_now: List[int] = []
                abandon = False
                for future, index in futures.items():
                    if abandon:
                        # The pool is condemned (stuck or broken): harvest what
                        # finished, requeue the rest without penalty.
                        if future.done():  # type: ignore[attr-defined]
                            try:
                                completed[index] = _mark_retried(
                                    future.result(), attempts_so_far  # type: ignore[attr-defined]
                                )
                                progress = True
                            except BrokenProcessPool:
                                crashed_now.append(index)
                            except Exception as exc:  # noqa: BLE001
                                completed[index] = [
                                    _failure_shard(query, exc, 0.0)
                                    for query in grouped[index]
                                ]
                                progress = True
                        else:
                            next_pending.append(index)
                        continue
                    try:
                        completed[index] = _mark_retried(
                            future.result(timeout=shard_timeout),  # type: ignore[attr-defined]
                            attempts_so_far,
                        )
                        progress = True
                    except FutureTimeout:
                        completed[index] = _timeout_results(
                            grouped[index], shard_timeout or 0.0, attempts_so_far
                        )
                        progress = True
                        abandon = True
                    except BrokenProcessPool:
                        crashed_now.append(index)
                        abandon = True
                    except Exception as exc:  # noqa: BLE001 — transport/entry failure
                        completed[index] = [
                            _failure_shard(query, exc, 0.0) for query in grouped[index]
                        ]
                        progress = True
                submitted = set(futures.values())
                for index in batch:
                    if index not in submitted and index not in completed:
                        next_pending.append(index)
                if abandon or crashed_this_round:
                    _terminate_pool(pool)
                else:
                    pool.shutdown(wait=True)
                pool_closed = True
            finally:
                if not pool_closed:
                    # A driver-side interrupt (SIGTERM/SIGINT, see run_shards)
                    # or an unexpected error must not leave worker processes
                    # orphaned behind a pool nobody will ever join.
                    _terminate_pool(pool)
            for index in crashed_now:
                crash_counts[index] += 1
                progress = True
                crashed_this_round = True
                # A crash in a shared pool is ambiguous — BrokenProcessPool
                # fails every in-flight future, so innocents crash alongside
                # the culprit.  Only a group that crashed ALONE in its own
                # pool (an isolation round) is convicted; shared-round
                # crashes are retried until the isolation rounds begin.
                if isolate:
                    completed[index] = _crashed_results(
                        grouped[index], crash_counts[index]
                    )
                else:
                    next_pending.append(index)
        if not progress:
            raise RuntimeError("process pool made no progress on the batch")
        pending = sorted(set(next_pending) - set(completed))
        if pending and crashed_this_round:
            time.sleep(min(retry_backoff * (2 ** (round_number - 1)), 2.0))
    return completed


def run_shards(
    queries: Sequence[BatchQuery],
    jobs: int = 1,
    start_method: Optional[str] = None,
    group_by_program: bool = True,
    shard_timeout: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.05,
    fault_plan: Optional[faults.FaultPlan] = None,
) -> Tuple[List[ShardResult], str, Optional[str]]:
    """Run a batch of queries, fanning out over ``jobs`` worker processes.

    With ``group_by_program`` (the default), queries sharing a program and
    algorithm form one scheduling unit served by a single analysis session
    (see :func:`run_shard_group`); the pool then maps over *groups*, and
    the returned results are flattened back into submission order.

    Fault tolerance (``jobs > 1``): a dead pool worker triggers a pool
    rebuild and a bounded-backoff retry of only the unfinished groups
    (completed :class:`ShardResult` lists are preserved, never re-run);
    groups still crashing after ``max_retries`` shared rounds are re-run in
    isolation (one per pool) and quarantined as structured ``"crashed"``
    results only if they crash there too; a group exceeding the driver-side
    ``shard_timeout`` is quarantined as ``"timeout"`` results — in both
    cases the rest of the batch completes normally.  Groups that cannot be pickled run inline in
    the driver instead of demoting the whole batch to the sequential
    fallback.  ``fault_plan`` ships a deterministic
    :class:`~repro.testing.faults.FaultPlan` into the workers (tests/CI
    only).

    Returns ``(results, mode, fallback_reason)``: ``results`` preserves
    query order; ``mode`` records how the batch actually ran —
    ``"process-pool"``, ``"sequential"`` (requested with ``jobs <= 1`` or a
    trivial batch) or ``"sequential-fallback"`` (pool unavailable);
    ``fallback_reason`` names the cause of a fallback (unpicklable batch,
    the exception that broke the pool, or a note that some unpicklable
    groups ran inline) and is None otherwise.
    """
    queries = list(queries)
    if group_by_program:
        groups = group_queries(queries)
    else:
        groups = [[index] for index in range(len(queries))]

    def flatten(per_group: Sequence[List[ShardResult]]) -> List[ShardResult]:
        ordered: List[ShardResult] = [None] * len(queries)  # type: ignore[list-item]
        for indices, results in zip(groups, per_group):
            for index, shard in zip(indices, results):
                ordered[index] = shard
        return ordered

    def run_inline(group_indices: Sequence[int]) -> Dict[int, List[ShardResult]]:
        """Run groups in the driver process, with any fault plan installed
        (kills stay disabled outside pool workers)."""
        if fault_plan is not None:
            faults.install(fault_plan)
        try:
            return {
                gi: run_shard_group([queries[i] for i in groups[gi]])
                for gi in group_indices
            }
        finally:
            if fault_plan is not None:
                faults.clear()

    def sequential() -> List[ShardResult]:
        per_group = run_inline(range(len(groups)))
        return flatten([per_group[gi] for gi in range(len(groups))])

    if jobs <= 1 or len(groups) <= 1:
        reason = None
        if jobs > 1 and len(queries) > 1:
            # The caller asked for a pool but grouping collapsed the batch
            # into one session; say so rather than silently dropping the
            # fan-out (group_by_program=False / --no-group restores it).
            reason = (
                "all queries grouped onto one session; pass "
                "group_by_program=False to fan out instead"
            )
        return sequential(), "sequential", reason

    grouped_queries = [[queries[i] for i in group] for group in groups]
    pool_groups: List[int] = []
    inline_groups: List[int] = []
    for gi, group_batch in enumerate(grouped_queries):
        (pool_groups if _group_is_picklable(group_batch) else inline_groups).append(gi)
    if not pool_groups:
        return sequential(), "sequential-fallback", "batch is not picklable"
    # While a pool is up, SIGTERM must run the same cleanup path SIGINT gets
    # for free (KeyboardInterrupt -> the pool's finally -> _terminate_pool);
    # the default SIGTERM disposition would kill the driver and orphan every
    # worker mid-query.  Signal handlers are a main-thread-only facility, so
    # embedders driving run_shards from another thread keep their own
    # handling.
    import signal
    import threading

    previous_sigterm = None
    if threading.current_thread() is threading.main_thread():
        def _sigterm_to_interrupt(signum, frame):  # pragma: no cover — exercised via subprocess test
            raise KeyboardInterrupt(f"signal {signum}")

        try:
            previous_sigterm = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
        except (ValueError, OSError):  # platform without SIGTERM delivery
            previous_sigterm = None
    try:
        import multiprocessing

        context = multiprocessing.get_context(start_method) if start_method else None
        per_group_map = _run_pool_groups(
            {gi: grouped_queries[gi] for gi in pool_groups},
            jobs=jobs,
            context=context,
            shard_timeout=shard_timeout,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            fault_plan=fault_plan,
        )
    except Exception as exc:  # pool start-up or transport failure: degrade, don't die
        reason = f"process pool failed: {type(exc).__name__}: {exc}"
        return sequential(), "sequential-fallback", reason
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    if inline_groups:
        per_group_map.update(run_inline(inline_groups))
    fallback_reason = None
    if inline_groups:
        fallback_reason = (
            f"{len(inline_groups)} unpicklable group(s) ran inline in the driver"
        )
    return (
        flatten([per_group_map[gi] for gi in range(len(groups))]),
        "process-pool",
        fallback_reason,
    )
