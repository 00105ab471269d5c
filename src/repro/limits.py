"""Resource envelopes for analysis queries.

:class:`ResourceLimits` is the single spec object threaded from the CLI
through :func:`repro.algorithms.engine.run_sequential`, the batch scheduler
(:mod:`repro.parallel.shards`) and :class:`repro.api.session.AnalysisSession`
down to the BDD kernel, which enforces it cooperatively (see
:meth:`repro.bdd.manager.BddManager.set_deadline` /
:meth:`~repro.bdd.manager.BddManager.set_node_budget`).

The object is a frozen, hashable, picklable dataclass so it can ride inside
a :class:`~repro.parallel.shards.BatchQuery` across a process-pool boundary
and participate in shard group keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ResourceLimits", "DEGRADATION_LADDER", "MAX_ITERATIONS"]

#: Outer fixed-point iteration budget of a query whose limits set none.
MAX_ITERATIONS = 100_000

#: Cheaper-algorithm fallback used when ``ResourceLimits.degrade`` is set:
#: the entry/forward variants retry as the plain summary algorithm (smaller
#: interpretation, no Relevant/opt machinery).  The summary algorithm has no
#: cheaper sibling, so exhaustion there is final.
DEGRADATION_LADDER = {
    "ef-opt": "summary",
    "ef": "summary",
}


@dataclass(frozen=True)
class ResourceLimits:
    """Per-query resource envelope.

    Attributes
    ----------
    deadline_seconds:
        Wall-clock budget per query.  Armed on the owning manager when the
        query starts and checked at allocation checkpoints and GC safe
        points; expiry raises :class:`repro.errors.AnalysisTimeout`.  A value
        of ``0`` is a valid (immediately expiring) deadline; ``None`` means
        unbounded.
    node_budget:
        Upper bound on *live* BDD nodes in the query's manager.  The kernel
        pulls its GC trigger below the budget so a sweep gets a chance to
        reclaim before the hard bound; crossing it raises
        :class:`repro.errors.NodeBudgetExceeded`.
    max_iterations:
        Outer fixed-point iteration budget; unset means
        :data:`MAX_ITERATIONS`.  Exhaustion raises
        :class:`repro.fixedpoint.evaluator.EvaluationError` (a
        ``ResourceExhausted`` subclass).
    degrade:
        When True, a sequential query that exhausts its envelope is retried
        once, in the same session, with the cheaper algorithm from
        :data:`DEGRADATION_LADDER` (same limits); a successful retry records
        the original algorithm in ``ReachabilityResult.degraded_from``.
        The retry is :meth:`repro.api.AnalysisSession.check` behaviour, so
        every sequential entry point shares it.
    """

    deadline_seconds: Optional[float] = None
    node_budget: Optional[int] = None
    max_iterations: Optional[int] = None
    degrade: bool = False

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be >= 0")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node_budget must be positive")
        if self.max_iterations is not None and self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")

    @property
    def bounded(self) -> bool:
        """True when at least one budget is set."""
        return (
            self.deadline_seconds is not None
            or self.node_budget is not None
            or self.max_iterations is not None
        )
