"""Driver-side pooling: the one worker pool, pool accounting, circuit breaking.

* :class:`ProcessWorkerPool` — the only code that spawns, supervises and
  feeds worker processes (each runs :func:`repro.service.worker.worker_main`
  behind a pipe the event loop reads whenever it is readable).  The daemon serves requests on
  it; :func:`repro.parallel.run_shards` runs batches on it.  One placement
  rule serves both: at most one query in flight per worker, a program
  pinned to the worker holding its session, anything else to the
  least-loaded idle worker.  One recovery rule too: a worker death re-runs
  only its in-flight query, once, on a rebuilt worker (bounded exponential
  backoff), a second death answers ``crashed``, and an optional
  driver-side timeout answers ``timeout`` and replaces the stuck worker —
  never dropped, never an exception.
* :class:`InlineWorkerPool` — the daemon's single-process fallback
  (``workers=0``): the identical :func:`~repro.service.worker.execute_job`
  path on a driver-local cache behind a one-thread executor, so comparing
  pooled vs in-process service numbers compares configurations, not code.
* :class:`SessionPoolIndex` + :class:`CircuitBreaker` — the daemon's
  bookkeeping: an LRU index of pooled sessions priced in live BDD nodes
  (the kernel's own accounting) that yields eviction decisions under a
  memory budget, and a per-program-hash breaker that quarantines programs
  which repeatedly crash or exhaust workers (``crashed``/``timeout``/
  ``resource`` strike; user errors neither strike nor heal).
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..testing import faults
from .protocol import QueryJob, QueryOutcome, error_payload
from .worker import SessionCache, execute_job, worker_main

__all__ = [
    "CircuitBreaker",
    "InlineWorkerPool",
    "ProcessWorkerPool",
    "SessionPoolIndex",
]


# ---------------------------------------------------------------------------
# Pool accounting: LRU session index priced in live BDD nodes.
# ---------------------------------------------------------------------------

@dataclass
class _PoolEntry:
    live_nodes: int = 0
    queries: int = 0
    gc_collections_seen: int = 0


class SessionPoolIndex:
    """The daemon's ledger of pooled sessions (the workers hold the objects).

    Keys are program content hashes; values record the session's last
    reported live-node count and cumulative GC activity (which worker holds
    it is the worker pool's business).
    :meth:`evictions` implements the pool policy: when the summed live
    nodes exceed ``memory_budget_nodes``, least-recently-used sessions are
    evicted until the pool fits — skipping hashes with queries in flight
    and always sparing the most recently touched session (evicting the
    session you are actively serving would defeat the pool entirely).
    """

    def __init__(self, memory_budget_nodes: Optional[int] = None) -> None:
        if memory_budget_nodes is not None and memory_budget_nodes <= 0:
            raise ValueError("memory_budget_nodes must be positive")
        self.memory_budget_nodes = memory_budget_nodes
        self._entries: "OrderedDict[str, _PoolEntry]" = OrderedDict()
        self.peak_live_nodes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, program_hash: str) -> bool:
        return program_hash in self._entries

    def touch(self, program_hash: str, live_nodes: int, gc_collections: int = 0) -> int:
        """Record a served query; returns the session's GC-collection delta."""
        entry = self._entries.setdefault(program_hash, _PoolEntry())
        entry.live_nodes = live_nodes
        entry.queries += 1
        delta = max(0, gc_collections - entry.gc_collections_seen)
        entry.gc_collections_seen = max(entry.gc_collections_seen, gc_collections)
        self._entries.move_to_end(program_hash)
        self.peak_live_nodes = max(self.peak_live_nodes, self.total_live_nodes())
        return delta

    def total_live_nodes(self) -> int:
        return sum(entry.live_nodes for entry in self._entries.values())

    def evictions(self, busy: Set[str]) -> List[str]:
        """LRU victims to evict so the pool fits its budget (may be empty)."""
        if self.memory_budget_nodes is None:
            return []
        victims: List[str] = []
        total = self.total_live_nodes()
        if total <= self.memory_budget_nodes:
            return []
        # Oldest first; the last entry is the most recently touched and is
        # never evicted here.
        candidates = list(self._entries.items())[:-1]
        for program_hash, entry in candidates:
            if total <= self.memory_budget_nodes:
                break
            if program_hash in busy:
                continue
            victims.append(program_hash)
            total -= entry.live_nodes
            del self._entries[program_hash]
        return victims

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly pool state for health/metrics responses."""
        return {
            "sessions": len(self._entries),
            "live_nodes": self.total_live_nodes(),
            "peak_live_nodes": self.peak_live_nodes,
            "memory_budget_nodes": self.memory_budget_nodes,
            "entries": [
                {
                    "program": program_hash[:12],
                    "live_nodes": entry.live_nodes,
                    "queries": entry.queries,
                }
                for program_hash, entry in self._entries.items()
            ],
        }


# ---------------------------------------------------------------------------
# Circuit breaker: per-program-hash quarantine.
# ---------------------------------------------------------------------------

class CircuitBreaker:
    """Quarantine program hashes that repeatedly crash or exhaust workers.

    ``threshold`` consecutive striking outcomes (``crashed``, ``timeout``,
    ``resource``) open the circuit for
    ``cooldown_seconds``: requests for that hash are answered immediately
    with a typed ``circuit-open`` error instead of burning a worker on a
    known-bad program.  After the cooldown one probe request is let through
    (half-open); success closes the circuit, another strike re-opens it.
    User errors (status ``error``) neither strike nor heal — a parse error
    says nothing about worker safety.
    """

    STRIKE_STATUSES = frozenset({"crashed", "timeout", "resource"})

    def __init__(
        self,
        threshold: int = 3,
        cooldown_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._strikes: Dict[str, int] = {}
        self._open_until: Dict[str, float] = {}
        self.trips = 0

    def allow(self, program_hash: str) -> Tuple[bool, float]:
        """(admit?, seconds until the next probe would be admitted)."""
        deadline = self._open_until.get(program_hash)
        if deadline is None:
            return True, 0.0
        now = self._clock()
        if now >= deadline:
            # Half-open: admit one probe, stay armed for everyone else until
            # the probe's outcome is recorded.
            self._open_until[program_hash] = now + self.cooldown_seconds
            return True, 0.0
        return False, deadline - now

    def record(self, program_hash: str, status: str) -> bool:
        """Record an outcome; True when this record opened the circuit."""
        if status in ("ok", "retried"):
            self._strikes.pop(program_hash, None)
            self._open_until.pop(program_hash, None)
            return False
        if status not in self.STRIKE_STATUSES:
            return False
        strikes = self._strikes.get(program_hash, 0) + 1
        self._strikes[program_hash] = strikes
        if strikes < self.threshold:
            return False
        newly_open = program_hash not in self._open_until
        self._open_until[program_hash] = self._clock() + self.cooldown_seconds
        if newly_open:
            self.trips += 1
        return newly_open

    def strikes(self, program_hash: str) -> int:
        return self._strikes.get(program_hash, 0)

    def open_hashes(self) -> List[str]:
        now = self._clock()
        return [h for h, until in self._open_until.items() if until > now]


# ---------------------------------------------------------------------------
# Worker pools.
# ---------------------------------------------------------------------------

#: A worker death re-runs its in-flight query once; a second death answers
#: ``crashed``.
MAX_ATTEMPTS = 2
#: Upper bound of the exponential backoff between rebuilds of one worker.
BACKOFF_CAP_SECONDS = 2.0


def _stopped() -> QueryOutcome:
    return QueryOutcome(
        status="crashed",
        error=error_payload(
            "ServiceStopped", "the service stopped before this query finished"
        ),
    )


@dataclass
class _Pending:
    job: QueryJob
    future: "asyncio.Future[QueryOutcome]"
    attempts: int = 1


class _WorkerHandle:
    def __init__(self, index: int, process, conn, restarts: int) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.restarts = restarts
        #: The one query in flight on this worker, if any.
        self.pending: Optional[_Pending] = None
        #: Program hashes whose session this worker holds.
        self.sessions: Set[str] = set()
        self.timer: Optional[asyncio.TimerHandle] = None
        self.dead = False
        self.closing = False
        self.fd = conn.fileno()

    @property
    def pid(self) -> int:
        return self.process.pid or 0

    @property
    def idle(self) -> bool:
        return not self.dead and self.pending is None


class ProcessWorkerPool:
    """Worker processes with session-pinned placement and supervision.

    The one process pool of the repository: the daemon serves requests on
    it and :func:`repro.parallel.run_shards` runs batches on it.
    Placement: at most one query is in flight per worker; a query whose
    program session a worker holds waits for that worker, any other goes to
    the least-loaded idle worker (fewest sessions held), in arrival order.
    Recovery: ``submit`` never raises and never loses a job.  A worker
    death re-runs only its in-flight query, once, on a rebuilt worker
    (bounded exponential backoff between rebuilds); a second death answers
    ``crashed``.  With ``shard_timeout``, a query running longer is
    answered ``timeout`` and its worker is terminated and rebuilt.
    ``on_evicted(program_hash, freed_nodes)`` fires when a worker confirms
    an eviction command.
    """

    def __init__(
        self,
        size: int,
        *,
        fault_plan=None,
        start_method: Optional[str] = None,
        retry_backoff: float = 0.05,
        shard_timeout: Optional[float] = None,
        on_evicted: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        if size < 1:
            raise ValueError("a process pool needs at least one worker")
        self.size = size
        self._fault_plan = fault_plan
        self._start_method = start_method
        self._retry_backoff = retry_backoff
        self._shard_timeout = shard_timeout
        self.on_evicted = on_evicted
        self._handles: List[Optional[_WorkerHandle]] = [None] * size
        #: Program hash -> the worker holding its session.
        self._holders: Dict[str, _WorkerHandle] = {}
        #: Program hash -> its queued queries; programs in order of arrival.
        self._backlog: Dict[str, Deque[_Pending]] = {}
        self._tasks: Set[asyncio.Task] = set()
        self._stopping = False
        self.restarts = 0

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        for index in range(self.size):
            self._install(index, restarts=0)

    def _spawn(self, index: int, restarts: int) -> _WorkerHandle:
        import multiprocessing

        context = (
            multiprocessing.get_context(self._start_method)
            if self._start_method
            else multiprocessing
        )
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=worker_main,
            args=(child_conn, self._fault_plan),
            daemon=True,
            name=f"repro-worker-{index}",
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(index, process, parent_conn, restarts)

    def _install(self, index: int, restarts: int) -> _WorkerHandle:
        handle = self._spawn(index, restarts)
        self._handles[index] = handle
        # Readiness-driven, not thread-driven: a thread blocked in
        # ``conn.recv`` cannot be cancelled and would wedge the default
        # executor's shutdown if the peer fd never delivers EOF (fork
        # helpers inheriting the child end keep the pipe alive).  The loop
        # only touches the pipe when it is readable, and tearing the
        # reader down is an fd-unregister.
        asyncio.get_running_loop().add_reader(handle.fd, self._on_readable, handle)
        return handle

    @staticmethod
    def _unwatch(handle: _WorkerHandle) -> None:
        try:
            asyncio.get_running_loop().remove_reader(handle.fd)
        except (OSError, ValueError):
            pass

    async def stop(self) -> None:
        """Stop every worker: polite stop message, then join, then terminate."""
        self._stopping = True
        loop = asyncio.get_running_loop()
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        handles = [handle for handle in self._handles if handle is not None]
        for handle in handles:
            handle.closing = True
            if handle.timer is not None:
                handle.timer.cancel()
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in handles:
            await loop.run_in_executor(None, handle.process.join, 2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                await loop.run_in_executor(None, handle.process.join, 1.0)
        unanswered = [pending for queue in self._backlog.values() for pending in queue]
        for handle in handles:
            # Unregister before closing: closing an fd that is still
            # registered is how reader leaks start.
            self._unwatch(handle)
            try:
                handle.conn.close()
            except OSError:
                pass
            if handle.pending is not None:
                unanswered.append(handle.pending)
                handle.pending = None
        self._backlog.clear()
        for pending in unanswered:
            if not pending.future.done():
                pending.future.set_result(_stopped())

    # -- placement -------------------------------------------------------
    @staticmethod
    def _alive(handle: Optional[_WorkerHandle]) -> bool:
        return handle is not None and not handle.dead and handle.process.is_alive()

    def alive_count(self) -> int:
        return sum(1 for handle in self._handles if self._alive(handle))

    def worker_states(self) -> List[Dict[str, object]]:
        return [
            {
                "index": index,
                "pid": handle.pid if handle is not None else None,
                "alive": self._alive(handle),
                "restarts": handle.restarts if handle is not None else 0,
                "inflight": int(handle is not None and handle.pending is not None),
            }
            for index, handle in enumerate(self._handles)
        ]

    def _dispatch(self) -> None:
        """Give every idle worker its next query.

        A worker first serves queued queries for the sessions it holds;
        otherwise it takes the oldest query whose program no worker holds.
        Idle workers choose fewest-sessions first, so a new program goes to
        the least-loaded idle worker.
        """
        if self._stopping or not self._backlog:
            return
        idle = [handle for handle in self._handles if handle is not None and handle.idle]
        for handle in sorted(idle, key=lambda h: (len(h.sessions), h.index)):
            pending = self._next_for(handle)
            if pending is not None:
                self._send(handle, pending)

    def _next_for(self, handle: _WorkerHandle) -> Optional[_Pending]:
        for program_hash in list(handle.sessions):
            pending = self._pop(program_hash)
            if pending is not None:
                return pending
        while True:
            free = next((h for h in self._backlog if h not in self._holders), None)
            if free is None:
                return None
            pending = self._pop(free)
            if pending is not None:
                return pending

    def _pop(self, program_hash: str) -> Optional[_Pending]:
        """The program's oldest queued query still awaited, if any."""
        queue = self._backlog.get(program_hash)
        while queue:
            pending = queue.popleft()
            if not pending.future.done():
                if not queue:
                    del self._backlog[program_hash]
                return pending
        self._backlog.pop(program_hash, None)
        return None

    def _send(self, handle: _WorkerHandle, pending: _Pending) -> None:
        job = pending.job
        handle.pending = pending
        handle.sessions.add(job.program_hash)
        self._holders[job.program_hash] = handle
        if self._shard_timeout is not None:
            handle.timer = asyncio.get_running_loop().call_later(
                self._shard_timeout, self._expire, handle, pending
            )
        try:
            handle.conn.send(("query", job))
        except (BrokenPipeError, OSError):
            # The worker died under us; the death path owns this pending
            # entry now (retry or structured failure).
            pass

    def _forget(self, handle: _WorkerHandle, program_hash: str) -> None:
        handle.sessions.discard(program_hash)
        if self._holders.get(program_hash) is handle:
            del self._holders[program_hash]

    def _retire(self, handle: _WorkerHandle) -> Optional[_Pending]:
        """Take a dead or doomed worker out of placement; its unanswered query."""
        handle.dead = True
        if handle.timer is not None:
            handle.timer.cancel()
        for program_hash in list(handle.sessions):
            self._forget(handle, program_hash)
        pending, handle.pending = handle.pending, None
        return pending if pending is not None and not pending.future.done() else None

    # -- work ------------------------------------------------------------
    async def submit(self, job: QueryJob) -> QueryOutcome:
        if self._stopping:
            return _stopped()
        future: "asyncio.Future[QueryOutcome]" = asyncio.get_running_loop().create_future()
        self._backlog.setdefault(job.program_hash, deque()).append(
            _Pending(job=job, future=future)
        )
        self._dispatch()
        return await future

    async def evict(self, program_hash: str) -> None:
        handle = self._holders.get(program_hash)
        if handle is not None:
            self._forget(handle, program_hash)
            try:
                handle.conn.send(("evict", program_hash))
                return
            except (BrokenPipeError, OSError):
                pass
        # No live holder: its sessions died with it, nothing to evict.
        if self.on_evicted is not None:
            self.on_evicted(program_hash, 0)

    # -- supervision -----------------------------------------------------
    def _on_readable(self, handle: _WorkerHandle) -> None:
        try:
            while handle.conn.poll(0):
                self._on_message(handle, handle.conn.recv())
        except (EOFError, OSError):
            self._unwatch(handle)
            if not (self._stopping or handle.closing):
                self._track(self._on_worker_death(handle))

    def _on_message(self, handle: _WorkerHandle, message) -> None:
        kind = message[0]
        if kind == "result":
            pending = handle.pending
            if pending is None or pending.job.id != message[1]:
                return  # answered already (driver-side timeout)
            handle.pending = None
            if handle.timer is not None:
                handle.timer.cancel()
            if pending.job.close_session:
                self._forget(handle, pending.job.program_hash)
            outcome: QueryOutcome = message[2]
            if pending.attempts > 1:
                outcome.retries = pending.attempts - 1
                if outcome.status == "ok":
                    outcome.status = "retried"
            if not pending.future.done():
                pending.future.set_result(outcome)
            self._dispatch()
        elif kind == "evicted":
            if self.on_evicted is not None:
                self.on_evicted(message[1], message[2])

    async def _on_worker_death(self, handle: _WorkerHandle) -> None:
        """Fail over a dead worker: rebuild it, re-run its query once."""
        pending = self._retire(handle)
        if pending is not None and pending.attempts >= MAX_ATTEMPTS:
            pending.future.set_result(
                QueryOutcome(
                    status="crashed",
                    error=error_payload(
                        "WorkerCrashed",
                        f"worker {handle.index} died running query "
                        f"{pending.job.name!r} ({pending.attempts} attempt(s))",
                        attempts=pending.attempts,
                    ),
                    retries=pending.attempts - 1,
                    worker_pid=handle.pid,
                )
            )
            pending = None
        backoff = min(self._retry_backoff * 2 ** handle.restarts, BACKOFF_CAP_SECONDS)
        await self._rebuild(handle, pending, backoff)

    def _expire(self, handle: _WorkerHandle, pending: _Pending) -> None:
        """Driver-side timeout: answer ``timeout``, replace the stuck worker."""
        if handle.pending is not pending:
            return
        self._retire(handle)
        handle.closing = True
        seconds = self._shard_timeout or 0.0
        if not pending.future.done():
            pending.future.set_result(
                QueryOutcome(
                    status="timeout",
                    error=error_payload(
                        "AnalysisTimeout",
                        f"query exceeded the driver-side {seconds:g}s timeout",
                        resource="wall-clock",
                        consumed=seconds,
                        budget=seconds,
                    ),
                    elapsed_seconds=seconds,
                    retries=pending.attempts - 1,
                    worker_pid=handle.pid,
                )
            )
        self._track(self._replace(handle))

    def _track(self, coroutine) -> None:
        """Run a supervision coroutine as a task that stop() cancels."""
        task = asyncio.get_running_loop().create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _replace(self, handle: _WorkerHandle) -> None:
        handle.process.terminate()
        self._unwatch(handle)
        await self._rebuild(handle, None, 0.0)

    async def _rebuild(
        self, handle: _WorkerHandle, retry: Optional[_Pending], delay: float
    ) -> None:
        """Start a fresh worker in a retired one's slot and re-send ``retry``."""
        # The retry stays on the retired handle until the rebuild, so a
        # stop() meanwhile still answers it.
        handle.pending = retry
        try:
            handle.conn.close()
        except OSError:
            pass
        self.restarts += 1
        # Queries that waited on the retired worker's sessions may go
        # elsewhere now.
        self._dispatch()
        await asyncio.get_running_loop().run_in_executor(None, handle.process.join, 1.0)
        await asyncio.sleep(delay)
        if self._stopping:
            return
        handle.pending = None
        rebuilt = self._install(handle.index, handle.restarts + 1)
        if retry is not None:
            retry.attempts += 1
            self._send(rebuilt, retry)
        self._dispatch()


class InlineWorkerPool:
    """Single-process fallback: the same job path, one executor thread.

    Sessions live in the driver process; injected worker kills are inert
    here by design (the fault plan is installed without the worker mark).
    Used when ``workers=0`` is requested, and by tests that exercise daemon
    logic without multiprocessing.
    """

    size = 1

    def __init__(self, *, fault_plan=None, on_evicted=None) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self._fault_plan = fault_plan
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-inline"
        )
        self._cache = SessionCache()
        self.on_evicted = on_evicted
        self.restarts = 0

    async def start(self) -> None:
        if self._fault_plan is not None:
            faults.install(self._fault_plan)

    async def stop(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, self._cache.close)
        self._executor.shutdown(wait=True)
        if self._fault_plan is not None:
            faults.clear()

    def alive_count(self) -> int:
        return 1

    def worker_states(self) -> List[Dict[str, object]]:
        import os

        return [
            {
                "index": 0,
                "pid": os.getpid(),
                "alive": True,
                "restarts": 0,
                "inflight": 0,
            }
        ]

    async def submit(self, job: QueryJob) -> QueryOutcome:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, execute_job, self._cache, job)

    async def evict(self, program_hash: str) -> None:
        loop = asyncio.get_running_loop()
        freed = await loop.run_in_executor(self._executor, self._cache.evict, program_hash)
        if self.on_evicted is not None:
            self.on_evicted(program_hash, freed)
