"""Vectorised passes over flat struct-of-arrays node tables.

These helpers power the node store (:mod:`repro.bdd.manager`) and the
shared-memory snapshots (:mod:`repro.bdd.snapshot`): reachability marking for
the GC sweep and a bottom-up satisfying-assignment count, both expressed as
whole-array numpy operations over the ``level``/``lo``/``hi`` vectors.

numpy is optional.  When it is not importable, ``HAVE_NUMPY`` is False and
the manager runs its (behaviourally identical) scalar GC sweep and exact
``count_sat`` recursion instead — only the vectorised fast paths are
skipped.

All helpers operate on *views*: callers hand in ``numpy.int64`` arrays
aliasing the live ``array('q')`` buffers (or a shared-memory segment) and
must drop every view before resizing the underlying buffers — an exported
buffer pins ``array`` objects against resizing.
"""

from __future__ import annotations

from typing import Optional, Sequence

try:  # pragma: no cover - exercised implicitly by every manager test
    import numpy as _np
except Exception:  # pragma: no cover - numpy-less fallback environments
    _np = None

HAVE_NUMPY = _np is not None

#: ``count_sat`` can only stay in int64 when every partial count fits; with
#: ``total_levels`` counting positions, counts are bounded by ``2**total``.
MAX_VECTOR_COUNT_LEVELS = 62


def int64_view(buffer) -> "object":
    """A read-write ``numpy.int64`` view over a buffer-protocol object."""
    return _np.frombuffer(buffer, dtype=_np.int64)


def reachable_mask(level, lo, hi, roots: Sequence[int]):
    """Boolean mask of node indices reachable from ``roots`` (terminal excluded).

    ``roots`` are node *indices* (not signed edges).  The walk is breadth
    first over whole frontiers: each round gathers both children of every
    newly marked node in two vectorised reads, dedups, and drops already
    marked indices, so the number of Python-level iterations is bounded by
    the node depth, not the node count.
    """
    mask = _np.zeros(level.shape[0], dtype=bool)
    frontier = _np.asarray(list(roots), dtype=_np.int64)
    if frontier.size:
        frontier = _np.unique(frontier)
        frontier = frontier[frontier != 0]
    while frontier.size:
        mask[frontier] = True
        nxt = _np.unique(
            _np.concatenate((lo[frontier] >> 1, hi[frontier] >> 1))
        )
        nxt = nxt[nxt != 0]
        frontier = nxt[~mask[nxt]]
    return mask


def count_sat_vector(
    level,
    lo,
    hi,
    root: int,
    pos_of_level,
    total_levels: int,
) -> Optional[int]:
    """Exact satisfying-assignment count of signed edge ``root``.

    A bottom-up pass over the flat arrays: reachable nodes are grouped by
    variable position and every group's counts are computed in a handful of
    whole-array operations from its (already counted) children — the scalar
    memoised recursion becomes ``O(distinct levels)`` numpy steps.  Counts are carried in int64, so callers must ensure
    ``total_levels <= MAX_VECTOR_COUNT_LEVELS``; returns None when the root
    is reachable-empty in a way the caller should handle (never, currently).

    ``pos_of_level`` maps variable level -> position among the counted
    variables (int64 array of size ``num_vars``; unused levels may hold any
    value).  Complemented edges count the complement space:
    ``cnt(e^1, q) == 2**(total-q) - cnt(e, q)``.
    """
    root_index = root >> 1
    mask = reachable_mask(level, lo, hi, (root_index,))
    idx = _np.nonzero(mask)[0]
    counts = _np.zeros(level.shape[0], dtype=_np.int64)
    if idx.size:
        pos = pos_of_level[level[idx]]
        order = _np.argsort(-pos, kind="stable")
        idx = idx[order]
        pos = pos[order]
        boundaries = _np.nonzero(_np.diff(pos))[0] + 1
        start = 0
        stops = list(boundaries) + [idx.size]
        for stop in stops:
            nodes = idx[start:stop]
            q = int(pos[start]) + 1
            full = 1 << (total_levels - q) if q <= total_levels else 1
            lo_val = _child_counts(level, counts, pos_of_level, lo[nodes], q, full)
            hi_val = _child_counts(level, counts, pos_of_level, hi[nodes], q, full)
            counts[nodes] = lo_val + hi_val
            start = stop
    root_pos = int(pos_of_level[level[root_index]])
    raw = int(counts[root_index]) << root_pos
    if root & 1:
        return (1 << total_levels) - raw
    return raw


def _child_counts(level, counts, pos_of_level, edges, q, full):
    """Counts-from-position-``q`` of a vector of signed child edges."""
    child = edges >> 1
    sign = edges & 1
    terminal = child == 0
    child_level = _np.where(terminal, 0, level[child])
    child_pos = pos_of_level[child_level]
    shift = _np.where(terminal, 0, child_pos - q)
    raw = counts[child] << shift
    return _np.where(sign == 1, full - raw, raw)
