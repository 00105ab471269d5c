"""The analysis daemon: a fault-tolerant service loop over the session pool.

:class:`AnalysisDaemon` is the long-lived front of the compile-once/
query-many stack.  Every request flows through the same governed path:

1. **Circuit breaker** — a program hash that repeatedly crashed or
   exhausted workers is answered immediately with a typed ``circuit-open``
   error; other programs keep being served.
2. **Admission control** — a bounded queue of admitted-but-unfinished
   requests.  Past the soft threshold the daemon *sheds to the degradation
   ladder* (the query runs the cheaper algorithm, verdict-preserving by
   construction); past the hard cap it answers a typed ``shed`` rejection.
   Overload never silently queues without bound and never drops a request.
3. **Coalescing** — concurrent requests for the same (program, algorithm,
   target, limits) await one shared execution; the hot program of a Zipf
   workload costs one solve, not N.
4. **Dispatch** — onto the worker pool (:mod:`repro.service.pool`): a
   program goes to the worker holding its session, else to the
   least-loaded idle worker; per-request :class:`~repro.limits.ResourceLimits`
   are armed in the worker, and a worker death re-runs only the query it
   was running, once, on a rebuilt worker.
5. **Pool upkeep** — the outcome's ``session_live_nodes`` updates the LRU
   index; sessions are evicted (worker-side) whenever the pool exceeds its
   live-node budget.

``health()``/``metrics()`` expose the cumulative counters the load
benchmark asserts on (warm hits, sheds, evictions, restarts, kernel/GC
totals, ``queries_per_solve``), and :meth:`shutdown` drains gracefully:
stop admitting, finish in-flight work, stop the workers.  The transports
(:func:`serve_stdio`, :func:`serve_tcp`) speak JSON Lines and wire
SIGTERM/SIGINT to that same drain path.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..limits import DEGRADATION_LADDER, ResourceLimits
from .pool import CircuitBreaker, InlineWorkerPool, ProcessWorkerPool, SessionPoolIndex
from .protocol import ProtocolError, QueryJob, QueryOutcome, error_payload, parse_request
from .worker import classify_failure

__all__ = ["DaemonConfig", "AnalysisDaemon", "serve_stdio", "serve_tcp"]


@dataclass
class DaemonConfig:
    """Tunables of one daemon instance (all enforced, none advisory).

    ``workers=0`` selects the in-process fallback backend — same execution
    path, no process pool — kept first-class so its behaviour stays
    measurable against the pooled configuration.
    """

    workers: int = 2
    memory_budget_nodes: Optional[int] = 500_000
    max_pending: int = 64
    shed_threshold: int = 16
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    default_algorithm: str = "ef-opt"
    default_limits: Optional[ResourceLimits] = None
    drain_timeout: float = 10.0
    retry_backoff: float = 0.05
    start_method: Optional[str] = None
    fault_plan: Optional[object] = None

    def __post_init__(self) -> None:
        """The one validation of the daemon's settings, for every front end.

        The message names the field and the server's flag for it.  NaN and
        infinite durations are rejected (a NaN cooldown never expires), and
        so are bools, which ``isinstance(True, int)`` would let through.
        """
        counts = {
            "workers": ("--workers", 0),
            "max_pending": ("--max-pending", 1),
            "shed_threshold": ("--shed-threshold", 1),
            "breaker_threshold": ("--breaker-threshold", 1),
            "memory_budget_nodes": ("--memory-budget", 1),
        }
        for name, (flag, minimum) in counts.items():
            value = getattr(self, name)
            if name == "memory_budget_nodes" and value is None:
                continue  # unbounded (--memory-budget 0)
            if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
                raise ValueError(
                    f"{name} ({flag}) must be an integer >= {minimum}, got {value!r}"
                )
        durations = {
            "breaker_cooldown": "breaker_cooldown (--breaker-cooldown)",
            "drain_timeout": "drain_timeout (--drain-timeout)",
            "retry_backoff": "retry_backoff",
        }
        for name, label in durations.items():
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0 <= value < math.inf
            ):
                raise ValueError(f"{label} must be a finite number >= 0, got {value!r}")
        if self.shed_threshold > self.max_pending:
            raise ValueError(
                f"shed_threshold (--shed-threshold, {self.shed_threshold}) must not "
                f"exceed max_pending (--max-pending, {self.max_pending})"
            )


class AnalysisDaemon:
    """The service loop.  One instance per process; owns pool and workers."""

    def __init__(self, config: Optional[DaemonConfig] = None) -> None:
        self.config = config or DaemonConfig()
        self.pool_index = SessionPoolIndex(self.config.memory_budget_nodes)
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown_seconds=self.config.breaker_cooldown,
        )
        if self.config.workers >= 1:
            self._pool = ProcessWorkerPool(
                self.config.workers,
                fault_plan=self.config.fault_plan,
                start_method=self.config.start_method,
                retry_backoff=self.config.retry_backoff,
                on_evicted=self._on_evicted,
            )
        else:
            self._pool = InlineWorkerPool(
                fault_plan=self.config.fault_plan, on_evicted=self._on_evicted
            )
        self._started = False
        self._draining = False
        self._drained = asyncio.Event()
        self._pending = 0
        self._busy: Dict[str, int] = {}
        self._inflight: Dict[tuple, "asyncio.Future[QueryOutcome]"] = {}
        self._request_counter = 0
        self._started_at = time.monotonic()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "answered": 0,
            "coalesced": 0,
            "shed_ladder": 0,
            "shed_rejected": 0,
            "circuit_open_rejections": 0,
            "evictions": 0,
            "evicted_nodes": 0,
            "warm_queries": 0,
            "solves": 0,
            "retried": 0,
            "gc_collections": 0,
            "draining_rejections": 0,
        }
        self.status_counts: Dict[str, int] = {}

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            return
        await self._pool.start()
        self._started = True
        self._started_at = time.monotonic()

    async def shutdown(self, drain: bool = True) -> None:
        """Graceful drain: stop admitting, finish in-flight, stop workers."""
        self._draining = True
        if drain and self._pending > 0:
            deadline = time.monotonic() + self.config.drain_timeout
            while self._pending > 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
        await self._pool.stop()
        self._drained.set()

    @property
    def draining(self) -> bool:
        return self._draining

    def _on_evicted(self, program_hash: str, freed_nodes: int) -> None:
        self.counters["evicted_nodes"] += int(freed_nodes)

    # -- request handling ------------------------------------------------
    async def handle_request(self, request: object) -> Dict[str, object]:
        """Answer one decoded request object; never raises, never drops."""
        if not isinstance(request, dict):
            return self._error_response(
                None, "error", error_payload("BadRequest", "request must be a JSON object")
            )
        request_id = request.get("id")
        op = request.get("op", "query")
        if op == "health":
            return {"id": request_id, "ok": True, "op": "health", **self.health()}
        if op == "metrics":
            return {"id": request_id, "ok": True, "op": "metrics", **self.metrics()}
        if op == "shutdown":
            asyncio.get_running_loop().create_task(self.shutdown())
            return {"id": request_id, "ok": True, "op": "shutdown", "draining": True}
        if op == "lint":
            return self._handle_lint(request, request_id)
        if op == "witness":
            # A query that must carry a counterexample trace: same admission,
            # pooling and coalescing path, with the witness flag forced on.
            request = dict(request)
            request["witness"] = True
            return await self._handle_query(request, request_id)
        if op != "query":
            return self._error_response(
                request_id, "error", error_payload("BadRequest", f"unknown op {op!r}")
            )
        return await self._handle_query(request, request_id)

    def _handle_lint(self, request: Dict[str, object], request_id) -> Dict[str, object]:
        """Static diagnostics for one program — no session, no worker hop.

        Linting is a pure front-end pass (:func:`repro.analysis.lint_program`):
        parse, typecheck, run the optimizer's closures in reporting mode.
        It runs inline in the service loop; ``findings`` mirrors the CLI's
        ``repro lint`` JSON shape so clients share one consumer.
        """
        from ..analysis import lint_program

        program = request.get("program")
        if not isinstance(program, str) or not program.strip():
            return self._error_response(
                request_id,
                "error",
                error_payload("BadRequest", "request needs a non-empty 'program' string"),
            )
        try:
            findings = lint_program(program)
        except Exception as exc:  # noqa: BLE001 — the service answers, always
            return self._error_response(request_id, *classify_failure(exc))
        self.status_counts["ok"] = self.status_counts.get("ok", 0) + 1
        return {
            "id": request_id,
            "ok": True,
            "op": "lint",
            "clean": not findings,
            "findings": [finding.to_dict() for finding in findings],
        }

    async def _handle_query(self, request: Dict[str, object], request_id) -> Dict[str, object]:
        self.counters["requests"] += 1
        self._request_counter += 1
        job_id = f"q{self._request_counter}"
        if self._draining:
            self.counters["draining_rejections"] += 1
            return self._error_response(
                request_id,
                "draining",
                error_payload("ServiceDraining", "the daemon is shutting down"),
            )
        try:
            job = parse_request(
                request,
                job_id=job_id,
                default_algorithm=self.config.default_algorithm,
                default_limits=self.config.default_limits,
            )
        except ProtocolError as exc:
            return self._error_response(request_id, "error", exc.payload)

        allowed, retry_after = self.breaker.allow(job.program_hash)
        if not allowed:
            self.counters["circuit_open_rejections"] += 1
            return self._error_response(
                request_id,
                "circuit-open",
                error_payload(
                    "CircuitOpen",
                    f"program {job.program_hash[:12]} is quarantined after "
                    f"{self.breaker.strikes(job.program_hash)} consecutive failures",
                    retry_after_seconds=round(retry_after, 3),
                ),
            )

        shed = False
        shed_from: Optional[str] = None
        if self._pending >= self.config.max_pending:
            self.counters["shed_rejected"] += 1
            return self._error_response(
                request_id,
                "shed",
                error_payload(
                    "Overloaded",
                    f"admission queue is full ({self._pending} pending, "
                    f"cap {self.config.max_pending})",
                    pending=self._pending,
                    max_pending=self.config.max_pending,
                ),
            )
        if self._pending >= self.config.shed_threshold:
            # Soft overload: shed to the degradation ladder before rejecting
            # — run the cheaper algorithm now rather than queueing the
            # expensive one (verdicts agree across the ladder).
            fallback = DEGRADATION_LADDER.get(job.algorithm)
            if fallback is not None:
                shed_from = job.algorithm
                job = replace(job, algorithm=fallback)
                shed = True
                self.counters["shed_ladder"] += 1

        key = job.coalesce_key()
        existing = self._inflight.get(key)
        if existing is not None:
            self.counters["coalesced"] += 1
            outcome = await asyncio.shield(existing)
            return self._outcome_response(
                request_id, job, outcome, shed=shed, shed_from=shed_from, coalesced=True
            )

        future: "asyncio.Future[QueryOutcome]" = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._pending += 1
        self._busy[job.program_hash] = self._busy.get(job.program_hash, 0) + 1
        outcome: Optional[QueryOutcome] = None
        try:
            outcome = await self._pool.submit(job)
        finally:
            self._pending -= 1
            remaining = self._busy.get(job.program_hash, 1) - 1
            if remaining <= 0:
                self._busy.pop(job.program_hash, None)
            else:
                self._busy[job.program_hash] = remaining
            self._inflight.pop(key, None)
            if outcome is None:
                outcome = QueryOutcome(
                    status="crashed",
                    error=error_payload("InternalError", "query execution failed"),
                )
            if not future.done():
                # Coalesced waiters share this future; resolve it even on the
                # error path so none of them hang.
                future.set_result(outcome)
        self._record_outcome(job, outcome)
        await self._enforce_memory_budget()
        return self._outcome_response(
            request_id, job, outcome, shed=shed, shed_from=shed_from, coalesced=False
        )

    # -- bookkeeping -----------------------------------------------------
    def _record_outcome(self, job: QueryJob, outcome: QueryOutcome) -> None:
        self.counters["answered"] += 1
        self.status_counts[outcome.status] = self.status_counts.get(outcome.status, 0) + 1
        if outcome.status == "retried":
            self.counters["retried"] += 1
        self.breaker.record(job.program_hash, outcome.status)
        gc = (outcome.result.gc_stats() if outcome.result is not None else None) or {}
        delta = self.pool_index.touch(
            job.program_hash,
            outcome.session_live_nodes,
            int(gc.get("collections", 0) or 0),
        )
        self.counters["gc_collections"] += delta
        if outcome.ok:
            if outcome.warm:
                self.counters["warm_queries"] += 1
            else:
                self.counters["solves"] += 1

    async def _enforce_memory_budget(self) -> None:
        victims = self.pool_index.evictions(set(self._busy))
        for program_hash in victims:
            self.counters["evictions"] += 1
            await self._pool.evict(program_hash)

    # -- rendering -------------------------------------------------------
    def _error_response(self, request_id, status: str, payload: Dict[str, object]) -> Dict[str, object]:
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        return {"id": request_id, "ok": False, "status": status, "error": payload}

    def _outcome_response(
        self,
        request_id,
        job: QueryJob,
        outcome: QueryOutcome,
        *,
        shed: bool,
        shed_from: Optional[str] = None,
        coalesced: bool,
    ) -> Dict[str, object]:
        response: Dict[str, object] = {
            "id": request_id,
            "name": job.name,
            "ok": outcome.ok,
            "status": outcome.status,
        }
        result = outcome.result
        if result is not None:
            response["reachable"] = result.reachable
            response["algorithm"] = result.algorithm
            if result.degraded_from is not None:
                response["degraded_from"] = result.degraded_from
        if shed:
            response["shed"] = True
            if shed_from is not None:
                response["shed_from"] = shed_from
        if coalesced:
            response["coalesced"] = True
        if outcome.warm:
            response["warm"] = True
        if outcome.retries:
            response["retries"] = outcome.retries
        if result is not None and result.witness is not None:
            response["witness"] = result.witness
        if result is not None and "witness_error" in result.details:
            response["witness_error"] = result.details["witness_error"]
        response["iterations"] = result.iterations if result is not None else 0
        response["elapsed_seconds"] = round(outcome.elapsed_seconds, 6)
        response["worker_pid"] = outcome.worker_pid
        if outcome.error is not None:
            response["error"] = outcome.error
        return response

    # -- introspection ---------------------------------------------------
    def health(self) -> Dict[str, object]:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "pending": self._pending,
            "workers": {
                "configured": self.config.workers,
                "alive": self._pool.alive_count(),
                "restarts": self._pool.restarts,
            },
            "pool": {
                "sessions": len(self.pool_index),
                "live_nodes": self.pool_index.total_live_nodes(),
                "memory_budget_nodes": self.config.memory_budget_nodes,
            },
            "circuit_open": [h[:12] for h in self.breaker.open_hashes()],
        }

    def metrics(self) -> Dict[str, object]:
        warm = self.counters["warm_queries"]
        solves = self.counters["solves"]
        queries = warm + solves
        return {
            "counters": dict(self.counters),
            "statuses": dict(self.status_counts),
            "queries_per_solve": (queries / solves) if solves else float(queries or 1),
            "breaker": {
                "trips": self.breaker.trips,
                "open": [h[:12] for h in self.breaker.open_hashes()],
            },
            "pool": self.pool_index.snapshot(),
            "workers": self._pool.worker_states(),
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "draining": self._draining,
        }


# ---------------------------------------------------------------------------
# Transports: JSON Lines over stdio or TCP, with signal-driven drain.
# ---------------------------------------------------------------------------

async def _handle_line(daemon: AnalysisDaemon, line: str) -> str:
    line = line.strip()
    if not line:
        return ""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        response = daemon._error_response(
            None, "error", error_payload("BadRequest", f"invalid JSON: {exc}")
        )
        return json.dumps(response)
    try:
        response = await daemon.handle_request(request)
    except Exception as exc:  # noqa: BLE001 — the transport answers, always
        response = daemon._error_response(
            request.get("id") if isinstance(request, dict) else None,
            "crashed",
            error_payload(type(exc).__name__, str(exc)),
        )
    return json.dumps(response)


def _install_signal_handlers(daemon: AnalysisDaemon, stop_event: asyncio.Event) -> None:
    import signal

    loop = asyncio.get_running_loop()

    def _trigger() -> None:
        daemon._draining = True
        stop_event.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, _trigger)
        except (NotImplementedError, RuntimeError):  # non-main thread / platform
            pass


async def serve_stdio(daemon: AnalysisDaemon, stdin=None, stdout=None) -> None:
    """Serve JSONL requests from stdin until EOF or SIGTERM/SIGINT, then drain.

    Stdin is pumped by a *daemon* thread into an asyncio queue: a thread
    blocked in ``readline`` must never keep the process alive after a
    signal-triggered drain (a ``run_in_executor`` worker would — executor
    threads are non-daemon and joined at loop shutdown).
    """
    import sys
    import threading

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stop_event = asyncio.Event()
    await daemon.start()
    _install_signal_handlers(daemon, stop_event)
    loop = asyncio.get_running_loop()
    lines: "asyncio.Queue[Optional[str]]" = asyncio.Queue()
    tasks = set()

    def _pump() -> None:
        try:
            for line in iter(stdin.readline, ""):
                loop.call_soon_threadsafe(lines.put_nowait, line)
        except (ValueError, OSError):  # stdin closed mid-read
            pass
        try:
            loop.call_soon_threadsafe(lines.put_nowait, None)  # EOF marker
        except RuntimeError:  # loop already closed
            pass

    threading.Thread(target=_pump, daemon=True, name="repro-server-stdin").start()

    async def _serve_one(line: str) -> None:
        response = await _handle_line(daemon, line)
        if response:
            stdout.write(response + "\n")
            stdout.flush()

    while not stop_event.is_set():
        getter = asyncio.ensure_future(lines.get())
        stopper = asyncio.ensure_future(stop_event.wait())
        done, pending = await asyncio.wait(
            {getter, stopper}, return_when=asyncio.FIRST_COMPLETED
        )
        for waiter in pending:
            waiter.cancel()
        if getter not in done:
            break
        line = getter.result()
        if line is None:  # EOF
            break
        task = asyncio.ensure_future(_serve_one(line))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)
    await daemon.shutdown()


async def serve_tcp(
    daemon: AnalysisDaemon, host: str = "127.0.0.1", port: int = 0
) -> None:
    """Serve JSONL requests over TCP until SIGTERM/SIGINT, then drain."""
    stop_event = asyncio.Event()
    await daemon.start()
    _install_signal_handlers(daemon, stop_event)

    async def _client(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        pending = set()

        async def _serve_one(line: bytes) -> None:
            response = await _handle_line(daemon, line.decode("utf-8", "replace"))
            if response:
                async with write_lock:
                    writer.write(response.encode("utf-8") + b"\n")
                    await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                task = asyncio.ensure_future(_serve_one(line))
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            writer.close()

    server = await asyncio.start_server(_client, host=host, port=port)
    addr = server.sockets[0].getsockname() if server.sockets else (host, port)
    print(f"repro-server: listening on {addr[0]}:{addr[1]}", flush=True)
    async with server:
        await stop_event.wait()
    await daemon.shutdown()
