"""Query execution: one job path and one status taxonomy for every caller.

Every query — a daemon request or one query of a batch — runs through
:func:`execute_job` against a :class:`SessionCache`, either inline (the
daemon's ``workers=0`` mode, :func:`repro.parallel.run_shards` at
``jobs <= 1``) or inside a worker process of
:class:`repro.service.pool.ProcessWorkerPool`, whose message loop is
:func:`worker_main`.  BDD managers, compiled plans and retained
interpretations never cross a process boundary; only the picklable
:class:`QueryJob`/:class:`QueryOutcome` records do, and the outcome carries
the query's full :class:`~repro.algorithms.ReachabilityResult`.

Sessions are keyed by ``QueryJob.program_hash``.  A daemon session stays
open across requests — the first query solves the target-independent
summary, later ones are warm post-passes — until the driver evicts it.  A
batch group shares one session that slices towards the group's targets
(``slice_targets``) and is closed after the group's last query
(``close_session``), which also skips the up-front solve: a session that
serves no further query gains nothing from it, and early stop still
applies.

:func:`classify_failure` is the only place a query failure is classified:
``timeout``/``resource`` for typed resource exhaustion (with the
consumed-vs-budget payload), ``error`` for user errors (parse, static
semantics, unknown targets) and ``crashed`` for anything unexpected.  The
pool adds ``retried`` (a worker died and a rebuilt one answered),
``crashed`` (it died twice) and ``timeout`` (a driver-side timeout fired).

The message protocol over a worker's pipe:

* ``("query", QueryJob)``  -> ``("result", job id, QueryOutcome)``
* ``("evict", hash)``      -> ``("evicted", hash, freed live nodes)``
* ``("stop",)``            -> the worker closes every session and exits.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, Tuple

from ..api.session import AnalysisSession
from ..boolprog import BoolProgError
from ..errors import AnalysisTimeout, ResourceExhausted
from ..testing import faults
from .protocol import QueryJob, QueryOutcome, error_payload

__all__ = ["SessionCache", "classify_failure", "execute_job", "worker_main"]


class SessionCache:
    """Program-hash -> open session map, owned by one worker (or the driver).

    Eviction is commanded by the driver (or by a job's ``close_session``);
    the cache itself only opens, serves and closes sessions.  ``evict``
    returns the live-node count released so the driver can reconcile its
    accounting even if its own estimate went stale between messages.
    """

    def __init__(self) -> None:
        self._sessions: Dict[str, AnalysisSession] = {}

    def session(self, job: QueryJob) -> AnalysisSession:
        """The pooled session for ``job``'s program (opened on first use)."""
        session = self._sessions.get(job.program_hash)
        if session is None:
            # String specs resolve against the optimized CFG; only a batch
            # group, whose targets are known up front, slices.
            session = AnalysisSession(
                job.program,
                default_algorithm=job.algorithm,
                limits=job.limits,
                optimize=job.optimize,
                slice_targets=job.slice_targets,
            )
            self._sessions[job.program_hash] = session
        return session

    def live_nodes(self, program_hash: str) -> int:
        """Live nodes of one open session (0 when none is open)."""
        session = self._sessions.get(program_hash)
        return session.live_nodes() if session is not None else 0

    def evict(self, program_hash: str) -> int:
        """Close and drop one pooled session; returns the live nodes freed."""
        session = self._sessions.pop(program_hash, None)
        if session is None:
            return 0
        freed = session.live_nodes()
        session.close()
        return freed

    def close(self) -> None:
        """Close every pooled session (worker shutdown)."""
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()


def _session_outcome(cache: SessionCache, job: QueryJob) -> QueryOutcome:
    """Run one query against the pooled session for its program."""
    session = cache.session(job)
    # The envelope is per request, but the session is shared across requests
    # (and budgets): re-arm before every query.
    session.set_limits(job.limits)
    # A repeat query on a solved algorithm is a *warm* hit (post-pass).
    warm = session.solved(job.algorithm)
    if not warm and not job.close_session:
        # Solve the target-independent summary up front so every later
        # query on this (program, algorithm) is a post-pass — the warm-hit
        # contract of the pool.  A solve that exhausts its budget degrades to
        # the lazy per-query evaluation below.
        try:
            session.solve(job.algorithm)
        except ResourceExhausted:
            pass
    result = session.check(
        list(job.target) if isinstance(job.target, tuple) else job.target,
        algorithm=job.algorithm,
        early_stop=job.early_stop,
        witness=job.witness,
    )
    return QueryOutcome(
        status="ok",
        result=result,
        warm=warm,
        session_live_nodes=session.live_nodes(),
    )


def execute_job(cache: SessionCache, job: QueryJob) -> QueryOutcome:
    """Execute one job against ``cache``; never raises, always an outcome.

    Typed resource exhaustion becomes ``timeout``/``resource`` with the
    consumed-vs-budget payload, user errors (parse, static semantics, bad
    targets) become ``error``, and anything unexpected becomes ``crashed``;
    the session survives all three (exhaustion leaves sessions usable).
    ``elapsed_seconds`` covers everything the query caused in this process:
    opening the session and solving it up front included.
    """
    started = time.perf_counter()
    try:
        # Fault-injection point (tests/CI): may delay, raise, or — in a
        # process marked as a pool worker — kill the process outright.
        faults.on_shard([job.name])
        outcome = _session_outcome(cache, job)
    except Exception as exc:  # noqa: BLE001 — a job failure must not kill the loop
        outcome = _failure(cache, job, *classify_failure(exc))
    outcome.elapsed_seconds = time.perf_counter() - started
    outcome.worker_pid = os.getpid()
    if job.close_session:
        cache.evict(job.program_hash)
    return outcome


def classify_failure(exc: Exception) -> Tuple[str, Dict[str, object]]:
    """The status and typed error payload of a failed query."""
    if isinstance(exc, ResourceExhausted):
        status = "timeout" if isinstance(exc, AnalysisTimeout) else "resource"
        return status, {**exc.detail(), "message": str(exc)}
    status = "error" if isinstance(exc, (BoolProgError, ValueError, KeyError)) else "crashed"
    return status, error_payload(type(exc).__name__, str(exc))


def _failure(
    cache: SessionCache, job: QueryJob, status: str, payload: Dict[str, object]
) -> QueryOutcome:
    # A session that blew its budget still holds nodes, and the driver's
    # pool accounting must see them or the eviction policy undercounts
    # exactly the sessions most worth evicting.
    try:
        live = cache.live_nodes(job.program_hash)
    except Exception:  # noqa: BLE001 — accounting must not mask the failure
        live = 0
    return QueryOutcome(status=status, error=payload, session_live_nodes=live)


def worker_main(conn, fault_plan=None) -> None:
    """Entry point of one pool worker process.

    Serves query/evict messages until a ``stop`` message or a closed pipe,
    then closes every pooled session.  The fault plan (tests/CI only) is
    installed with ``worker=True`` so injected kills are allowed to fire
    here — and only here; the same plan installed in the driver is inert.
    """
    # A forked worker inherits the driver's signal set-up, asyncio's wakeup
    # fd included: a SIGTERM that stops this worker must not reach the
    # driver's event loop, and an interrupt is the driver's to handle (it
    # stops its workers).
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
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
    finally:
        cache.close()
        try:
            conn.close()
        except OSError:
            pass
