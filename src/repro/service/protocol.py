"""Wire protocol and job records of the analysis daemon.

The daemon speaks JSON Lines: one request object per line in, one response
object per line out (see :mod:`repro.service.daemon` for the service loop).
This module owns the boundary between that JSON world and the typed internal
one:

* :func:`parse_request` turns a decoded request mapping into a
  :class:`QueryJob` — the picklable unit of work shipped to worker processes
  — front-loading every user error as a :class:`ProtocolError` with a typed
  JSON payload (the daemon never answers a malformed request with a
  traceback).
* :class:`QueryOutcome` is the picklable worker-to-driver result record.  Its
  ``status`` is the query taxonomy ``ok/retried/error/timeout/resource/
  crashed`` (see :mod:`repro.service.worker`), which batch shards report
  too; the daemon adds ``shed`` (load-shed rejection), ``circuit-open``
  (quarantined program hash) and ``draining`` (shutdown in progress).
* :func:`content_hash` is the program identity the session pool, the
  request coalescer and the circuit breaker all key on: the SHA-256 of the
  program source text, so textually identical programs share a pooled
  session no matter which client sent them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from ..algorithms.concurrent_cbr import cbr_algorithm
from ..algorithms.engine import SEQUENTIAL_ALGORITHMS
from ..algorithms.result import ReachabilityResult
from ..limits import ResourceLimits

__all__ = [
    "ProtocolError",
    "QueryJob",
    "QueryOutcome",
    "content_hash",
    "parse_request",
    "error_payload",
]

def content_hash(source: str) -> str:
    """The pool/coalescing/breaker key of a program: SHA-256 of its text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def error_payload(type_name: str, message: str, **extra: object) -> Dict[str, object]:
    """A typed JSON error record (same shape as ``ResourceExhausted.detail()``)."""
    payload: Dict[str, object] = {"type": type_name, "message": message}
    payload.update(extra)
    return payload


class ProtocolError(ValueError):
    """A request the daemon must reject, with its typed JSON payload."""

    def __init__(self, type_name: str, message: str, **extra: object) -> None:
        super().__init__(message)
        self.payload = error_payload(type_name, message, **extra)


@dataclass(frozen=True)
class QueryJob:
    """One admitted query, as plain picklable data (driver -> worker).

    ``id`` is the driver-side correlation key;
    ``name`` is the friendly label fault plans and load reports key on
    (a batch query's :attr:`repro.parallel.BatchQuery.name`).
    ``program`` is source text (a batch may also ship a parsed program).
    ``program_hash`` is the session-pool key, precomputed so workers and
    the driver agree on it without re-hashing the source per hop; a batch
    gives each group of queries its own key.
    """

    id: str
    name: str
    program: Union[str, object]
    program_hash: str
    target: Union[str, Sequence[str], Sequence[Tuple[int, int]]] = "error"
    #: The session algorithm: ``cbr-k<context_switches>`` for a concurrent
    #: job (see :func:`repro.algorithms.engine.algorithm_builder`).
    algorithm: str = "ef-opt"
    concurrent: bool = False
    context_switches: int = 2
    early_stop: bool = True
    limits: Optional[ResourceLimits] = None
    #: Static pre-analysis level (0–2, :mod:`repro.analysis`) the pooled
    #: session compiles at.  Baked into ``program_hash`` (an ``:O<level>``
    #: suffix) so pool, coalescer and breaker never mix sessions built
    #: from differently-optimized programs.  Pooled sessions serve
    #: arbitrary targets, so they never slice.
    optimize: int = 0
    #: Attach a replay-validated counterexample trace to a reachable verdict
    #: (the ``witness`` op / request field; sequential queries only).
    witness: bool = False
    #: String target specs a level-2 session slices towards.  Batch groups
    #: set it to the union of their targets; daemon sessions serve
    #: arbitrary targets and never slice.
    slice_targets: Optional[Tuple[str, ...]] = None
    #: This is the last query its session serves (a batch group's last
    #: query): skip the up-front solve and close the session afterwards.
    close_session: bool = False

    def coalesce_key(self) -> Tuple[object, ...]:
        """Requests with equal keys are answered by one shared execution."""
        return (
            self.program_hash,
            self.algorithm,
            self.target,
            self.concurrent,
            self.context_switches,
            self.early_stop,
            self.limits,
            self.witness,
        )


@dataclass
class QueryOutcome:
    """What one executed job produced (worker -> driver, picklable).

    ``result`` is the query's :class:`~repro.algorithms.ReachabilityResult`
    (None exactly when ``error`` is set).  ``session_live_nodes`` is the
    serving session's live BDD node count *after* the query (the pool's
    eviction currency).  ``elapsed_seconds`` is the execution time in the
    process that ran the query.
    """

    status: str = "ok"
    result: Optional[ReachabilityResult] = None
    warm: bool = False
    elapsed_seconds: float = 0.0
    error: Optional[Dict[str, object]] = None
    session_live_nodes: int = 0
    retries: int = 0
    worker_pid: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "retried")


def _normalise_target(raw: object) -> Union[str, Tuple[object, ...]]:
    """Validate and freeze a request's target spec (hashable for coalescing)."""
    if isinstance(raw, str):
        return raw
    if isinstance(raw, (list, tuple)):
        if all(isinstance(item, str) for item in raw):
            return tuple(raw)
        normalised = []
        for item in raw:
            if (
                not isinstance(item, (list, tuple))
                or len(item) != 2
                or not all(
                    isinstance(part, int) and not isinstance(part, bool) for part in item
                )
            ):
                raise ProtocolError(
                    "BadRequest",
                    "target must be a string, a list of strings, or a list "
                    "of [module, pc] integer pairs",
                )
            normalised.append((item[0], item[1]))
        if normalised:
            return tuple(normalised)
    raise ProtocolError(
        "BadRequest",
        "target must be a string, a list of strings, or a list of "
        "[module, pc] integer pairs",
    )


def _request_limits(
    request: Dict[str, object], defaults: Optional[ResourceLimits]
) -> Optional[ResourceLimits]:
    """Per-request envelope: request fields override the daemon defaults."""
    fields = ("deadline_seconds", "node_budget", "max_iterations", "degrade")
    if not any(name in request for name in fields):
        return defaults

    def pick(name: str, fallback: object) -> object:
        return request[name] if name in request else fallback

    base = defaults if defaults is not None else ResourceLimits()
    try:
        limits = ResourceLimits(
            deadline_seconds=pick("deadline_seconds", base.deadline_seconds),
            node_budget=pick("node_budget", base.node_budget),
            max_iterations=pick("max_iterations", base.max_iterations),
            degrade=pick("degrade", base.degrade),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError("BadRequest", f"invalid resource limits: {exc}")
    return limits if limits.bounded or limits.degrade else None


def parse_request(
    request: Dict[str, object],
    *,
    job_id: str,
    default_algorithm: str = "ef-opt",
    default_limits: Optional[ResourceLimits] = None,
) -> QueryJob:
    """Validate a decoded query request and build its :class:`QueryJob`.

    Every rejection raises :class:`ProtocolError` with a payload naming the
    offending field, so clients get a typed 4xx-style answer rather than a
    dropped connection or a stack trace.
    """
    program = request.get("program")
    if not isinstance(program, str) or not program.strip():
        raise ProtocolError("BadRequest", "request needs a non-empty 'program' string")
    for flag in ("concurrent", "early_stop", "witness", "degrade"):
        if not isinstance(request.get(flag, False), bool):
            raise ProtocolError("BadRequest", f"{flag} must be a boolean when given")
    concurrent = request.get("concurrent", False)
    algorithm = request.get("algorithm", default_algorithm)
    if not concurrent and algorithm not in SEQUENTIAL_ALGORITHMS:
        raise ProtocolError(
            "BadRequest",
            f"unknown algorithm {algorithm!r}; choose one of "
            f"{sorted(SEQUENTIAL_ALGORITHMS)}",
        )
    context_switches = request.get("context_switches", 2)
    if (
        isinstance(context_switches, bool)
        or not isinstance(context_switches, int)
        or context_switches < 0
    ):
        raise ProtocolError(
            "BadRequest", "context_switches must be a non-negative integer"
        )
    name = request.get("name")
    if name is not None and not isinstance(name, str):
        raise ProtocolError("BadRequest", "name must be a string when given")
    optimize = request.get("optimize", 0)
    if isinstance(optimize, bool) or not isinstance(optimize, int) or not 0 <= optimize <= 2:
        raise ProtocolError("BadRequest", "optimize must be an integer 0, 1 or 2")
    if concurrent and optimize:
        raise ProtocolError(
            "BadRequest", "optimize is not supported for concurrent queries"
        )
    witness = request.get("witness", False)
    if witness and concurrent:
        raise ProtocolError(
            "BadRequest",
            "witness traces are supported for sequential queries only; the "
            "bounded context-switching engine has no trace extraction",
        )
    target = _normalise_target(request.get("target", "error"))
    numeric_target = not (
        isinstance(target, str) or all(isinstance(item, str) for item in target)
    )
    if optimize >= 2 and numeric_target:
        raise ProtocolError(
            "BadRequest",
            "optimize level 2 renumbers program counters; numeric "
            "[module, pc] targets require optimize <= 1 (string specs "
            "'error'/'procedure:label' stay valid at any level)",
        )
    if witness and numeric_target and optimize:
        raise ProtocolError(
            "BadRequest",
            "witness traces cannot be mapped back through optimized pc "
            "numbering for numeric [module, pc] targets; use string specs "
            "or optimize 0",
        )
    program_hash = content_hash(program)
    if optimize:
        # Different levels compile different programs: keep them apart in
        # the session pool, the coalescer and the breaker — all of which
        # key on this hash.
        program_hash = f"{program_hash}:O{optimize}"
    if concurrent:
        # Likewise each context-switch bound gets its own session.
        program_hash = f"{program_hash}:k{context_switches}"
        algorithm = cbr_algorithm(context_switches)
    return QueryJob(
        id=job_id,
        name=name or job_id,
        program=program,
        program_hash=program_hash,
        target=target,
        algorithm=str(algorithm),
        concurrent=concurrent,
        context_switches=context_switches,
        early_stop=request.get("early_stop", True),
        limits=_request_limits(request, default_limits),
        optimize=optimize,
        witness=witness,
    )
