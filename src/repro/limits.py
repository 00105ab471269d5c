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

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["ResourceLimits", "DEGRADATION_LADDER", "MAX_ITERATIONS", "limits_from_flags"]

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
        """The one validation of every limit, for every front end.

        The message names the field and the front ends' flag for it.  A NaN
        or infinite deadline is rejected (``now >= nan`` never fires), and so
        are bools, which ``isinstance(True, int)`` would let through.
        """
        deadline = self.deadline_seconds
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            or not 0 <= deadline < math.inf
        ):
            raise ValueError(
                f"deadline_seconds (--deadline) must be a finite number >= 0, "
                f"got {deadline!r}"
            )
        for name in ("node_budget", "max_iterations"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 1
            ):
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{name} ({flag}) must be an integer >= 1, got {value!r}")

    @property
    def bounded(self) -> bool:
        """True when at least one budget is set."""
        return (
            self.deadline_seconds is not None
            or self.node_budget is not None
            or self.max_iterations is not None
        )


def limits_from_flags(args) -> Optional[ResourceLimits]:
    """The limits that ``--deadline``, ``--node-budget``, ``--max-iterations``
    and ``--degrade`` set, or None when they set nothing.

    ``getafix`` and ``getafix-server`` share these flags and this helper.  An
    invalid value raises :meth:`ResourceLimits.__post_init__`'s
    :class:`ValueError`, which names the flag; the front ends exit with
    status 2 on it.
    """
    limits = ResourceLimits(
        deadline_seconds=args.deadline,
        node_budget=args.node_budget,
        max_iterations=args.max_iterations,
        degrade=args.degrade,
    )
    return limits if limits.bounded or limits.degrade else None
