"""Worker-side execution: pooled analysis sessions behind a message loop.

A service worker is a long-lived process owning a :class:`SessionCache` —
the materialised half of the daemon's session pool.  The driver keys the
pool and decides evictions (see :mod:`repro.service.pool`); the worker holds
the actual :class:`repro.api.AnalysisSession` objects, because BDD managers,
compiled plans and retained interpretations must never cross a process
boundary (the ownership contract of :mod:`repro.parallel.shards`).

The message protocol over the worker's pipe is deliberately tiny:

* ``("query", QueryJob)``  -> ``("result", job id, QueryOutcome)``
* ``("evict", hash)``      -> ``("evicted", hash, freed live nodes)``
* ``("stop",)``            -> the worker closes every session and exits.

:func:`execute_job` is transport-free so the daemon's in-process fallback
mode (``workers=0``) runs the *identical* code path on a driver-local cache
— keeping the single-process configuration measurable against the pooled
one, not a separate implementation.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

from ..api.session import AnalysisSession
from ..boolprog import BoolProgError
from ..errors import AnalysisTimeout, ResourceExhausted
from ..limits import DEGRADATION_LADDER
from ..testing import faults
from .protocol import QueryJob, QueryOutcome, error_payload

__all__ = ["SessionCache", "execute_job", "worker_main"]


class _CacheEntry:
    """One pooled session plus the bookkeeping the outcome records need."""

    def __init__(self, session: AnalysisSession, from_snapshot: bool = False) -> None:
        self.session = session
        #: Algorithms whose summary fixed point this session has solved; a
        #: repeat query on one of them is a *warm* hit (post-pass, no solve).
        self.solved: set = set()
        self.queries = 0
        #: The session was attached from a daemon-catalog snapshot (the
        #: solve was skipped); the first query on it reports the attach.
        self.from_snapshot = from_snapshot
        self.attach_reported = False
        #: Algorithms whose snapshot this worker already published — a
        #: session is frozen at most once per algorithm per worker life.
        self.published: set = set()


class SessionCache:
    """Program-hash -> open session map, owned by one worker (or the driver).

    Eviction is commanded by the driver's pool index; the cache itself only
    opens, serves and closes sessions.  ``evict`` returns the live-node
    count released so the driver can reconcile its accounting even if its
    own estimate went stale between messages.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, _CacheEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, job: QueryJob) -> _CacheEntry:
        """The pooled session for ``job``'s program (opened on first use).

        When the job carries a catalog snapshot, the session is attached
        copy-free to the frozen solved table instead of compiled from
        source — the warm-hit contract survives worker death.  A failed
        attach (segment already unlinked, incompatible image) silently
        degrades to the classic open-and-solve path.
        """
        entry = self._entries.get(job.program_hash)
        if entry is None:
            session = None
            from_snapshot = False
            if job.snapshot is not None:
                try:
                    session = AnalysisSession.from_snapshot(
                        job.snapshot, limits=job.limits
                    )
                    from_snapshot = True
                except Exception:  # noqa: BLE001 — degrade to a fresh session
                    session = None
            if session is None:
                # Pooled sessions serve arbitrary targets across requests,
                # so they optimize but never slice (slice_targets stays
                # unset); string specs resolve against the optimized CFG.
                session = AnalysisSession(
                    job.program,
                    default_algorithm=job.algorithm,
                    limits=job.limits,
                    optimize=job.optimize,
                )
            entry = _CacheEntry(session, from_snapshot=from_snapshot)
            if from_snapshot:
                entry.solved.add(job.snapshot.algorithm)
            self._entries[job.program_hash] = entry
        return entry

    def evict(self, program_hash: str) -> int:
        """Close and drop one pooled session; returns the live nodes freed."""
        entry = self._entries.pop(program_hash, None)
        if entry is None:
            return 0
        freed = entry.session.live_nodes()
        entry.session.close()
        return freed

    def close(self) -> None:
        """Close every pooled session (worker shutdown)."""
        for entry in self._entries.values():
            entry.session.close()
        self._entries.clear()


def _session_outcome(cache: SessionCache, job: QueryJob, started: float) -> QueryOutcome:
    """Run one sequential query against the pooled session for its program."""
    entry = cache.entry(job)
    session = entry.session
    # The envelope is per request, but the session is shared across requests
    # (and budgets): re-arm before every query.
    session.set_limits(job.limits)
    warm = job.algorithm in entry.solved
    entry.queries += 1
    if not warm:
        # Solve the target-independent summary up front so every later
        # query on this (program, algorithm) is a post-pass — the warm-hit
        # contract of the pool.  A failed solve (budget, target-dependent
        # system) degrades to the lazy per-query evaluation below.
        try:
            session.solve(job.algorithm)
        except ResourceExhausted:
            pass
        except ValueError:
            pass
    algorithm = job.algorithm
    degraded_from: Optional[str] = None
    try:
        result = session.check(
            list(job.target) if isinstance(job.target, tuple) else job.target,
            algorithm=algorithm,
            early_stop=job.early_stop,
        )
    except ResourceExhausted:
        fallback = (
            DEGRADATION_LADDER.get(algorithm)
            if job.limits is not None and job.limits.degrade
            else None
        )
        if fallback is None:
            raise
        result = session.check(
            list(job.target) if isinstance(job.target, tuple) else job.target,
            algorithm=fallback,
            early_stop=job.early_stop,
        )
        degraded_from = algorithm
        algorithm = fallback
    # A query answered from (or promoted to) the retained summary leaves
    # the session solved for this algorithm: the next query is a warm hit.
    if result.details.get("reused_solve") or not result.stopped_early:
        entry.solved.add(algorithm)
    snapshot = None
    if (
        job.publish_snapshot
        and algorithm in entry.solved
        and algorithm not in entry.published
        and not entry.from_snapshot
    ):
        # Freeze the solved table for the daemon's catalog so the warm-hit
        # contract survives this worker's death.  Only sessions that solved
        # locally publish (an attached overlay has nothing new to offer),
        # and a failed freeze just skips the publication.
        try:
            snapshot = session.freeze(algorithm)
            entry.published.add(algorithm)
        except Exception:  # noqa: BLE001 — snapshots are an optimisation
            snapshot = None
    witness_dict: Optional[Dict[str, object]] = None
    witness_error: Optional[str] = None
    if job.witness and result.reachable:
        # Witness extraction is a post-pass on the pooled session's retained
        # summary; a typed failure is reported alongside the (authoritative)
        # verdict, never instead of it.
        from ..witness import WitnessError

        try:
            trace = session.explain(
                list(job.target) if isinstance(job.target, tuple) else job.target,
                algorithm=algorithm,
            )
        except WitnessError as exc:
            witness_error = f"{type(exc).__name__}: {exc}"
        else:
            witness_dict = trace.to_dict() if trace is not None else None
        # explain() solves when needed, so the session is warm afterwards.
        entry.solved.add(algorithm)
    attached = entry.from_snapshot and not entry.attach_reported
    entry.attach_reported = True
    live = session.live_nodes()
    gc = result.gc_stats() or {}
    return QueryOutcome(
        status="ok",
        reachable=result.reachable,
        algorithm=result.algorithm,
        degraded_from=degraded_from or result.degraded_from,
        warm=warm,
        iterations=result.iterations,
        elapsed_seconds=time.perf_counter() - started,
        session_live_nodes=live,
        gc_collections=int(gc.get("collections", 0) or 0),
        worker_pid=os.getpid(),
        snapshot=snapshot,
        snapshot_attached=attached,
        witness=witness_dict,
        witness_error=witness_error,
    )


def _concurrent_outcome(job: QueryJob, started: float) -> QueryOutcome:
    """Concurrent queries run without a pooled session (engine singletons)."""
    from ..frontends.getafix import check_concurrent_reachability

    result = check_concurrent_reachability(
        job.program,
        target=list(job.target) if isinstance(job.target, tuple) else job.target,
        context_switches=job.context_switches,
        early_stop=job.early_stop,
        limits=job.limits,
    )
    return QueryOutcome(
        status="ok",
        reachable=result.reachable,
        algorithm=result.algorithm,
        iterations=result.iterations,
        elapsed_seconds=time.perf_counter() - started,
        worker_pid=os.getpid(),
    )


def execute_job(cache: SessionCache, job: QueryJob) -> QueryOutcome:
    """Execute one job against ``cache``; never raises, always an outcome.

    Failure classification mirrors the shard taxonomy: typed resource
    exhaustion becomes ``timeout``/``resource`` with the consumed-vs-budget
    payload, user errors (parse, static semantics, bad targets) become
    ``error``, and anything unexpected becomes ``crashed`` — the session
    pool survives all three (PR 5's exhaustion contract keeps blown
    sessions usable).
    """
    started = time.perf_counter()
    try:
        # Fault-injection point (tests/CI): may delay, raise, or — in a
        # process marked as a pool worker — kill the process outright.
        faults.on_shard([job.name])
        if job.concurrent:
            return _concurrent_outcome(job, started)
        return _session_outcome(cache, job, started)
    except AnalysisTimeout as exc:
        return _failure(cache, job, "timeout", exc, exc.detail(), started)
    except ResourceExhausted as exc:
        return _failure(cache, job, "resource", exc, exc.detail(), started)
    except (BoolProgError, ValueError, KeyError) as exc:
        payload = error_payload(type(exc).__name__, str(exc))
        return _failure(cache, job, "error", exc, payload, started)
    except Exception as exc:  # noqa: BLE001 — a job failure must not kill the loop
        payload = error_payload(type(exc).__name__, str(exc))
        return _failure(cache, job, "crashed", exc, payload, started)


def _pooled_live_nodes(cache: SessionCache, job: QueryJob) -> int:
    """Live nodes of the job's pooled session, if one is open (0 otherwise).

    Reported on failure outcomes too: a session that blew its budget still
    holds nodes, and the driver's pool accounting must see them or the
    eviction policy undercounts exactly the sessions most worth evicting.
    """
    entry = cache._entries.get(job.program_hash)
    return entry.session.live_nodes() if entry is not None else 0


def _failure(
    cache: SessionCache,
    job: QueryJob,
    status: str,
    exc: BaseException,
    payload: Dict[str, object],
    started: float,
) -> QueryOutcome:
    if "message" not in payload:
        payload = dict(payload)
        payload["message"] = str(exc)
    live = 0
    if not job.concurrent:
        try:
            live = _pooled_live_nodes(cache, job)
        except Exception:  # noqa: BLE001 — accounting must not mask the failure
            live = 0
    return QueryOutcome(
        status=status,
        error=payload,
        elapsed_seconds=time.perf_counter() - started,
        session_live_nodes=live,
        worker_pid=os.getpid(),
    )


def worker_main(conn, fault_plan=None) -> None:
    """Entry point of one service worker process.

    Serves query/evict messages until a ``stop`` message or a closed pipe,
    then closes every pooled session.  The fault plan (tests/CI only) is
    installed with ``worker=True`` so injected kills are allowed to fire
    here — and only here; the same plan installed in the driver is inert.
    """
    if fault_plan is not None:
        faults.install(fault_plan, worker=True)
    cache = SessionCache()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "stop":
                break
            if kind == "evict":
                freed = cache.evict(message[1])
                try:
                    conn.send(("evicted", message[1], freed))
                except (BrokenPipeError, OSError):
                    break
                continue
            if kind == "query":
                job: QueryJob = message[1]
                outcome = execute_job(cache, job)
                try:
                    conn.send(("result", job.id, outcome))
                except (BrokenPipeError, OSError):
                    break
                if outcome.snapshot is not None:
                    # The daemon received the handle and owns the segment
                    # now; drop this process's resource-tracker claim so a
                    # later worker exit cannot unlink it.  (If the send had
                    # failed, the claim would stay and the tracker would
                    # reap the orphaned segment — either way, no leak.)
                    outcome.snapshot.disown()
    finally:
        cache.close()
        try:
            conn.close()
        except OSError:
            pass
