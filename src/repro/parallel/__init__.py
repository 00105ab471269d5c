"""Batches of reachability queries over the one worker pool.

:mod:`repro.parallel.shards` groups a batch by shared session and runs it
inline or on :class:`repro.service.pool.ProcessWorkerPool`;
:mod:`repro.parallel.merge` folds the results into a batch report.  The
high-level entry point is :func:`repro.algorithms.run_batch`.
"""

from .merge import BatchReport, merge_shards
from .shards import BatchQuery, ShardResult, group_queries, run_shard, run_shards

__all__ = [
    "BatchQuery",
    "BatchReport",
    "ShardResult",
    "group_queries",
    "merge_shards",
    "run_shard",
    "run_shards",
]
