"""Merge layer: collect shard results into a batch report.

The batch client (:mod:`repro.parallel.shards`) hands back one
:class:`~repro.parallel.shards.ShardResult` per query; this module folds them
into a :class:`BatchReport` that the engine, the CLI and the benchmark
harness all share: verdicts in query order, per-shard kernel/GC statistics
(per group session: a group's rows are cumulative within the group),
aggregate wall-clock accounting and the resulting speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .shards import ShardResult

__all__ = ["BatchReport", "merge_shards"]


@dataclass
class BatchReport:
    """Outcome of a whole batch run.

    Attributes
    ----------
    shards:
        Per-query results, in the order the queries were submitted.
    jobs:
        The worker count that was *requested*.
    mode:
        How the batch actually ran: ``"process-pool"``, ``"sequential"`` or
        ``"sequential-fallback"`` (see :func:`repro.parallel.run_shards`).
    wall_seconds:
        Wall-clock time of the whole batch as observed by the driver.
    fallback_reason:
        Why a requested pool degraded to ``"sequential-fallback"``
        (unpicklable batch, pool start-up failure); None otherwise.
    """

    shards: List[ShardResult] = field(default_factory=list)
    jobs: int = 1
    mode: str = "sequential"
    wall_seconds: float = 0.0
    fallback_reason: Optional[str] = None

    # -- aggregate accounting -------------------------------------------
    @property
    def shard_seconds(self) -> float:
        """Sum of shard-local wall clocks (the sequential-equivalent cost)."""
        return sum(shard.elapsed_seconds for shard in self.shards)

    @property
    def solve_count(self) -> int:
        """Queries that paid for their own fixed-point solve.

        A query answered as a post-pass over a session's retained summary
        has ``reused_solve`` set and does not count; a batch with no
        program-sharing groups therefore reports one solve per query.
        """
        return sum(1 for shard in self.shards if shard.ok and not shard.reused_solve)

    @property
    def reused_count(self) -> int:
        """Queries answered from an already-solved session (reuse wins)."""
        return sum(1 for shard in self.shards if shard.ok and shard.reused_solve)

    @property
    def queries_per_solve(self) -> float:
        """Amortisation factor of the per-shard session reuse (>= 1.0)."""
        answered = sum(1 for shard in self.shards if shard.ok)
        solves = self.solve_count
        if solves == 0:
            return float(answered) if answered else 1.0
        return answered / solves

    @property
    def speedup(self) -> float:
        """Shard-time over batch wall time: > 1 means the fan-out paid off."""
        if self.wall_seconds <= 0.0:
            return 1.0
        return self.shard_seconds / self.wall_seconds

    @property
    def any_reachable(self) -> bool:
        return any(s.ok and s.result is not None and s.result.reachable for s in self.shards)

    # -- failure taxonomy -----------------------------------------------
    def status_counts(self) -> Dict[str, int]:
        """Shard count per status (``ok/retried/error/timeout/resource/crashed``)."""
        counts: Dict[str, int] = {}
        for shard in self.shards:
            counts[shard.status] = counts.get(shard.status, 0) + 1
        return counts

    def resource_failures(self) -> List[ShardResult]:
        """Failed shards that hit a resource envelope (timeout/budget)."""
        return [shard for shard in self.shards if shard.status in ("timeout", "resource")]

    def crash_failures(self) -> List[ShardResult]:
        """Failed shards whose worker died twice or raised unexpectedly."""
        return [shard for shard in self.shards if not shard.ok and shard.status == "crashed"]

    def verdicts(self) -> Dict[str, Optional[bool]]:
        """Per-query verdict by name (None for failed shards)."""
        return {
            shard.name: (shard.result.reachable if shard.ok and shard.result else None)
            for shard in self.shards
        }

    def failures(self) -> List[ShardResult]:
        """Shards that failed, whatever their status."""
        return [shard for shard in self.shards if not shard.ok]

    def mismatches(self) -> List[ShardResult]:
        """Shards that disagree with their query's expected verdict."""
        return [shard for shard in self.shards if shard.mismatch]

    def worker_pids(self) -> List[int]:
        """Distinct worker process ids that served the batch."""
        return sorted({shard.pid for shard in self.shards})

    # -- rendering ------------------------------------------------------
    def format_table(self, kernel_stats: bool = True) -> str:
        """Plain-text table: one row per shard, optional kernel stat columns."""
        header = (
            f"{'query':32s}  {'verdict':>7s}  {'status':>8s}  {'iters':>6s}  "
            f"{'nodes':>8s}  {'live':>7s}  {'gc':>3s}  {'reuse':>5s}  "
            f"{'time (s)':>8s}  {'pid':>7s}"
        )
        lines = [header, "-" * len(header)]
        for shard in self.shards:
            if not shard.ok:
                lines.append(f"{shard.name:32s}  ERROR[{shard.status}]: {shard.error}")
                continue
            result = shard.result
            verdict = result.verdict()
            if shard.mismatch:
                verdict += "!"
            live = shard.live_nodes()
            gc = shard.gc_collections()
            lines.append(
                f"{shard.name:32s}  {verdict:>7s}  {shard.status:>8s}  "
                f"{result.iterations:6d}  "
                f"{result.summary_nodes:8d}  "
                f"{live if live is not None else 0:7d}  "
                f"{gc if gc is not None else 0:3d}  "
                f"{'yes' if shard.reused_solve else 'no':>5s}  "
                f"{shard.elapsed_seconds:8.2f}  {shard.pid:7d}"
            )
        status_note = " ".join(
            f"{status}={count}"
            for status, count in sorted(self.status_counts().items())
            if status != "ok"
        )
        lines.append(
            f"batch: mode={self.mode} jobs={self.jobs} workers={len(self.worker_pids())} "
            f"wall={self.wall_seconds:.2f}s shard-total={self.shard_seconds:.2f}s "
            f"speedup={self.speedup:.2f}x queries/solve={self.queries_per_solve:.2f}"
            + (f" statuses: {status_note}" if status_note else "")
        )
        if self.fallback_reason:
            lines.append(f"fallback: {self.fallback_reason}")
        if kernel_stats:
            lines.append(self._kernel_summary())
        return "\n".join(lines)

    def _kernel_summary(self) -> str:
        live = [shard.live_nodes() or 0 for shard in self.shards if shard.ok]
        gcs = [shard.gc_collections() or 0 for shard in self.shards if shard.ok]
        if not live:
            return "kernel: (no successful shards)"
        return (
            f"kernel: shards={len(live)} live_nodes max={max(live)} total={sum(live)} "
            f"gc_collections total={sum(gcs)}"
        )

    def rows(self) -> List[Dict[str, object]]:
        """JSON-friendly per-shard records (used by ``getafix --json``)."""
        out: List[Dict[str, object]] = []
        for shard in self.shards:
            row: Dict[str, object] = {
                "name": shard.name,
                "pid": shard.pid,
                "elapsed_seconds": shard.elapsed_seconds,
                "status": shard.status,
            }
            if shard.retries:
                row["retries"] = shard.retries
            if shard.ok and shard.result is not None:
                result = shard.result
                row.update(
                    reachable=result.reachable,
                    algorithm=result.algorithm,
                    iterations=result.iterations,
                    summary_nodes=result.summary_nodes,
                    summary_states=result.summary_states,
                    total_seconds=result.total_seconds,
                    live_nodes=shard.live_nodes(),
                    gc_collections=shard.gc_collections(),
                    reused_solve=shard.reused_solve,
                )
                if result.degraded_from is not None:
                    row["degraded_from"] = result.degraded_from
            else:
                row["error"] = shard.error
                if shard.error_detail is not None:
                    row["error_detail"] = shard.error_detail
            out.append(row)
        return out


def merge_shards(
    shards: List[ShardResult],
    jobs: int,
    mode: str,
    wall_seconds: float,
    fallback_reason: Optional[str] = None,
) -> BatchReport:
    """Fold scheduler output into a :class:`BatchReport`."""
    return BatchReport(
        shards=list(shards),
        jobs=jobs,
        mode=mode,
        wall_seconds=wall_seconds,
        fallback_reason=fallback_reason,
    )
