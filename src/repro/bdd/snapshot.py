"""Read-only shared-memory snapshots of solved BDD node tables.

:class:`~repro.bdd.manager.BddManager` keeps its node table in three flat
int64 vectors, which makes a *snapshot* a plain
``memcpy``: :func:`freeze` copies the (GC-compacted) vectors plus a frozen
open-addressing image of the unique table into a named
:mod:`multiprocessing.shared_memory` segment.  Other processes attach
**copy-free** — the segment is mapped, never deserialised — and run query
post-passes (``check`` / ``check_all`` / ``count_sat``) against the solved
table through a :class:`SnapshotOverlayManager`.

Why an overlay and not a bare read-only view: a query post-pass still
*allocates* (the Target template and the query plan's intermediate BDDs are
new nodes).  The overlay therefore chains a private, process-local tail onto
the immutable base prefix and — crucially — probes the frozen unique table
in ``_mk`` before allocating, so every node that already exists in the base
is found, canonicity holds across the base/tail boundary, and signed-edge
equality keeps meaning function equality.  Without that probe a
semantically-constant result could materialise as a fresh non-terminal node
and a ``result == TRUE`` verdict would silently go wrong.

Segment lifecycle contract
--------------------------
* The **freezer** creates the segment; its ``resource_tracker`` registration
  is kept as a crash-safety net (a killed freezer's tracker unlinks the
  segment) until ownership is handed off with :func:`disown` — after that,
  exactly one owner (the shard driver or the service daemon) is responsible
  for :func:`unlink`.
* **Attachers** never own the segment: :class:`SnapshotView` unregisters
  itself from its process's tracker immediately (Python registers on attach
  too, and an exiting attacher's tracker would otherwise unlink the segment
  under everyone else — the classic ``shared_memory`` wart) and only ever
  ``close()``\\ s.
* :func:`unlink` is idempotent (a missing segment is not an error), so
  drain paths, chaos recovery and ``finally`` blocks can all call it.
"""

from __future__ import annotations

import os
import pickle
import secrets
from array import array
from typing import Dict, List, Optional, Tuple

from ..errors import NodeBudgetExceeded
from .manager import (
    EDGE_BITS,
    LEVEL_SHIFT,
    MAX_NODE_INDEX,
    BddError,
    BddManager,
    _node_table_full,
)

__all__ = [
    "SEGMENT_PREFIX",
    "SnapshotView",
    "SnapshotOverlayManager",
    "freeze",
    "disown",
    "unlink",
    "list_segments",
]

#: Every snapshot segment name starts with this (tests and drain sweeps key
#: on it; /dev/shm listing is the ground truth for leak assertions).
SEGMENT_PREFIX = "repro-snap-"

_MAGIC = 0x52505230_534E4150  # "RPR0SNAP"
_VERSION = 1
_HEADER_WORDS = 8
_HEADER_BYTES = _HEADER_WORDS * 8


def _mix(key: int) -> int:
    """Cheap avalanche for open-addressing probes (keys are structured)."""
    return key ^ (key >> 29)


def _pad8(n: int) -> int:
    return (n + 7) & ~7


def segment_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"


def freeze(manager: BddManager, name: Optional[str] = None) -> str:
    """Copy a manager's node table into a new shared-memory segment.

    The manager should be GC-swept first so the frozen image is compact
    (``AnalysisSession.freeze`` does so); an overlay cannot be frozen.
    Returns the segment name.  The calling process keeps the
    resource-tracker registration (crash-safety) until :func:`disown`.
    """
    from multiprocessing import shared_memory

    if isinstance(manager, SnapshotOverlayManager):
        raise BddError("cannot freeze a snapshot overlay manager")
    capacity = len(manager._level)
    unique = manager._unique
    table_size = 8
    while table_size < 2 * len(unique) + 1:
        table_size <<= 1
    meta = pickle.dumps(
        {"var_names": manager.var_names, "live": manager._live},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    meta_len = len(meta)
    arrays_off = _HEADER_BYTES + _pad8(meta_len)
    total = arrays_off + 3 * capacity * 8 + 2 * table_size * 8
    if name is None:
        name = segment_name()
    shm = shared_memory.SharedMemory(create=True, size=total, name=name)
    try:
        header = array(
            "q",
            [
                _MAGIC,
                _VERSION,
                capacity,
                manager.num_vars,
                manager._live,
                table_size,
                meta_len,
                0,
            ],
        )
        buf = shm.buf
        buf[:_HEADER_BYTES] = header.tobytes()
        buf[_HEADER_BYTES : _HEADER_BYTES + meta_len] = meta
        off = arrays_off
        for vec in (manager._level, manager._lo, manager._hi):
            raw = vec.tobytes()
            buf[off : off + len(raw)] = raw
            off += capacity * 8
        # Frozen open-addressing unique table: parallel key/value int64
        # arrays, linear probing, key 0 = empty (the packed key 0 would be
        # the node (0, FALSE, FALSE), which reduction makes unrepresentable).
        keys = array("q", bytes(table_size * 8))
        vals = array("q", bytes(table_size * 8))
        mask = table_size - 1
        for key, index in unique.items():
            i = _mix(key) & mask
            while keys[i]:
                i = (i + 1) & mask
            keys[i] = key
            vals[i] = index
        raw = keys.tobytes()
        buf[off : off + len(raw)] = raw
        off += table_size * 8
        raw = vals.tobytes()
        buf[off : off + len(raw)] = raw
        shm.close()
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return name


def disown(name: str) -> None:
    """Drop this process's resource-tracker registration for a segment.

    Called by the freezer once another process has accepted ownership (the
    name was delivered in a result/outcome): from then on the owner's
    :func:`unlink` is the cleanup path and the freezer's exit must not
    destroy — or warn about — the segment.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:
        pass


def unlink(name: str) -> bool:
    """Destroy a segment by name; idempotent (False when already gone)."""
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    try:
        shm.unlink()  # also unregisters the attach-registration just made
    finally:
        shm.close()
    return True


def list_segments() -> List[str]:
    """Snapshot segments currently present in /dev/shm (leak assertions)."""
    try:
        return sorted(
            entry for entry in os.listdir("/dev/shm") if entry.startswith(SEGMENT_PREFIX)
        )
    except OSError:
        return []


class SnapshotView:
    """A copy-free attachment to a frozen node table.

    Exposes the three node vectors as read-only int64 memoryviews, the
    frozen unique-table probe, and the metadata needed to rebuild a manager
    around the image.  Views only ever ``close()``; they never unlink (see
    the module docstring).
    """

    def __init__(self, name: str) -> None:
        from multiprocessing import shared_memory

        self.name = name
        self._shm = shared_memory.SharedMemory(name=name)
        # Python registers attachments with the resource tracker as if they
        # were creations; undo that immediately or this process's exit
        # would unlink the segment under its real owner.
        disown(name)
        header = array("q", bytes(self._shm.buf[:_HEADER_BYTES]))
        if header[0] != _MAGIC or header[1] != _VERSION:
            self._shm.close()
            raise BddError(f"segment {name!r} is not a compatible snapshot")
        self.capacity = header[2]
        self.num_vars = header[3]
        self.live = header[4]
        self._table_size = header[5]
        meta_len = header[6]
        meta = pickle.loads(bytes(self._shm.buf[_HEADER_BYTES : _HEADER_BYTES + meta_len]))
        self.var_names: Tuple[str, ...] = tuple(meta["var_names"])
        off = _HEADER_BYTES + _pad8(meta_len)
        cap_b = self.capacity * 8
        tab_b = self._table_size * 8
        buf = self._shm.buf
        self._views: List[memoryview] = []

        def span(start: int, nbytes: int) -> memoryview:
            view = buf[start : start + nbytes].toreadonly().cast("q")
            self._views.append(view)
            return view

        self.level = span(off, cap_b)
        self.lo = span(off + cap_b, cap_b)
        self.hi = span(off + 2 * cap_b, cap_b)
        self._keys = span(off + 3 * cap_b, tab_b)
        self._vals = span(off + 3 * cap_b + tab_b, tab_b)
        self._closed = False

    def lookup(self, key: int) -> Optional[int]:
        """Probe the frozen unique table for a packed ``(level, lo, hi)`` key."""
        keys = self._keys
        mask = self._table_size - 1
        i = _mix(key) & mask
        while True:
            k = keys[i]
            if k == key:
                return self._vals[i]
            if k == 0:
                return None
            i = (i + 1) & mask

    def close(self) -> None:
        """Detach from the segment (idempotent).  Never unlinks."""
        if self._closed:
            return
        self._closed = True
        self.level = self.lo = self.hi = self._keys = self._vals = None
        for view in self._views:
            view.release()
        self._views.clear()
        self._shm.close()

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _ChainVec:
    """A node vector = immutable base prefix + private growable tail."""

    __slots__ = ("base", "base_len", "tail")

    def __init__(self, base, tail: array) -> None:
        self.base = base
        self.base_len = len(base)
        self.tail = tail

    def __len__(self) -> int:
        return self.base_len + len(self.tail)

    def __getitem__(self, index: int) -> int:
        if index < self.base_len:
            return self.base[index]
        return self.tail[index - self.base_len]

    def __setitem__(self, index: int, value: int) -> None:
        # Writes below base_len would corrupt the shared image for every
        # attached process; the overlay's GC never frees base slots, so
        # this can only be a bug.
        self.tail[index - self.base_len] = value

    def append(self, value: int) -> None:
        self.tail.append(value)


class SnapshotOverlayManager(BddManager):
    """An allocation-capable manager over a frozen base table.

    Shares the base's node index space (indices below ``view.capacity`` are
    the frozen nodes; frozen signed edges stay valid verbatim) and allocates
    query-time nodes into a private tail.  ``_mk`` probes the local unique
    dict, then the frozen open-addressing table, then allocates — so
    canonicity spans both halves.  GC sweeps only the tail (base nodes are
    immortal here; the owner of the segment decides its lifetime), and
    ``_live``/``len()`` count only terminal + tail nodes: an attached
    overlay *is* cheap, and session-pool LRU pricing must see it that way.
    """

    #: The native kernel works on flat arrays; the chained base/tail vectors
    #: and the frozen-table probe in `_mk` stay Python, with dict tables.
    _NATIVE_STORE = False

    def __init__(self, view: SnapshotView, **kwargs) -> None:
        self._view = view
        super().__init__(list(view.var_names), **kwargs)
        self._base_len = view.capacity
        self._level = _ChainVec(view.level, array("q"))
        self._lo = _ChainVec(view.lo, array("q"))
        self._hi = _ChainVec(view.hi, array("q"))
        self._free = []

    # -- node creation ---------------------------------------------------
    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        sign = hi & 1
        if sign:
            lo ^= 1
            hi ^= 1
        key = (level << LEVEL_SHIFT) | (lo << EDGE_BITS) | hi
        index = self._unique.get(key)
        if index is None:
            index = self._view.lookup(key)
            if index is not None:
                # A frozen node: cache the hit locally so repeat lookups
                # skip the shared-memory probe.
                self._unique[key] = index
                return (index << 1) | sign
            free = self._free
            if free:
                index = free.pop()
                self._level[index] = level
                self._lo[index] = lo
                self._hi[index] = hi
            else:
                index = len(self._level)
                if index > MAX_NODE_INDEX:
                    raise _node_table_full(index)
                self._level.append(level)
                self._lo.append(lo)
                self._hi.append(hi)
            self._unique[key] = index
            self._live += 1
            if self._live > self._peak_live:
                self._peak_live = self._live
            if self._node_budget is not None and self._live > self._node_budget:
                raise NodeBudgetExceeded(consumed=self._live, budget=self._node_budget)
            if self._deadline is not None:
                self._deadline_countdown -= 1
                if self._deadline_countdown <= 0:
                    self._deadline_countdown = self._deadline_interval
                    self._check_deadline()
        return (index << 1) | sign

    # -- garbage collection (tail-only) ----------------------------------
    def _collectable(self) -> Tuple[int, array, array, array]:
        # Frozen nodes are immortal here and closed under reachability, so
        # the shared sweep marks, clears and frees only the private tail.
        # Dropping cached frozen-table hits from `_unique` is harmless:
        # `_mk` probes the frozen table again.
        return self._base_len, self._level.tail, self._lo.tail, self._hi.tail

    # -- kernel sanitizer (overlay-aware) --------------------------------
    def _debug_validate(self) -> None:
        """Overlay variant of the sanitizer (see ``BddManager._debug_validate``).

        Frozen base slots are immutable and were validated by their freezer,
        so the checks cover what this process can corrupt: the private tail
        (structure, level order, liveness), the local unique cache — whose
        entries may legitimately point at *either* half — the free list, the
        external references and the operation caches.
        """
        level = self._level
        lo = self._lo
        hi = self._hi
        base_len = self._base_len
        capacity = len(level)
        free_level = self._FREE_LEVEL
        free_slots = set()
        for index in range(base_len, capacity):
            if level[index] == free_level:
                if lo[index] or hi[index]:
                    raise BddError(
                        f"sanitizer: free tail slot {index} has dangling children"
                    )
                free_slots.add(index)
        if len(self._free) != len(set(self._free)):
            raise BddError("sanitizer: duplicate slots on the overlay free list")
        if set(self._free) != free_slots:
            raise BddError(
                "sanitizer: overlay free list does not match the free-marked "
                f"tail slots (listed={len(self._free)}, marked={len(free_slots)})"
            )
        # The overlay counts only terminal + tail nodes (attached bases are
        # priced as free by the session pool).
        live = 1 + (capacity - base_len) - len(free_slots)
        if live != self._live:
            raise BddError(
                f"sanitizer: overlay live counter {self._live} != {live} "
                "(terminal + non-free tail slots)"
            )
        for key, index in self._unique.items():
            if not 0 < index < capacity or level[index] == free_level:
                raise BddError(
                    f"sanitizer: overlay unique cache maps {key!r} to dead "
                    f"slot {index}"
                )
            if key != self._unique_key(index):
                raise BddError(
                    f"sanitizer: overlay unique key {key!r} does not match "
                    f"node {index}"
                )
        num_levels = len(self._var_names)
        unique = self._unique
        for index in range(base_len, capacity):
            node_level = level[index]
            if node_level == free_level:
                continue
            if not 0 <= node_level < num_levels:
                raise BddError(
                    f"sanitizer: tail node {index} has out-of-range level "
                    f"{node_level}"
                )
            if hi[index] & 1:
                raise BddError(
                    f"sanitizer: tail node {index} stores a complemented "
                    "then-edge"
                )
            if lo[index] == hi[index]:
                raise BddError(
                    f"sanitizer: tail node {index} is unreduced (lo == hi)"
                )
            if unique.get(self._unique_key(index)) != index:
                raise BddError(
                    f"sanitizer: tail node {index} missing from the overlay "
                    "unique cache"
                )
            for child in (lo[index], hi[index]):
                child_index = child >> 1
                if not 0 <= child_index < capacity or level[child_index] == free_level:
                    raise BddError(
                        f"sanitizer: tail node {index} points at dead child "
                        f"edge {child}"
                    )
                if child_index and level[child_index] <= node_level:
                    raise BddError(
                        f"sanitizer: tail node {index} (level {node_level}) "
                        f"violates the level order via child {child_index}"
                    )
        for index, count in self._extref.items():
            if count <= 0:
                raise BddError(
                    f"sanitizer: non-positive external refcount {count} on "
                    f"node {index}"
                )
            if not 0 < index < capacity or level[index] == free_level:
                raise BddError(
                    f"sanitizer: external reference to dead slot {index}"
                )
        for op, edge in self._debug_cache_edges():
            index = edge >> 1
            if not 0 <= index < capacity or level[index] == free_level:
                raise BddError(f"sanitizer: {op} cache mentions dead edge {edge}")

    # -- lifecycle / stats -----------------------------------------------
    def detach(self) -> None:
        """Release the underlying view (the manager must not be used after)."""
        self._view.close()

    def stats(self) -> Dict[str, object]:
        data = super().stats()
        data["store"] = "array-snapshot-overlay"
        data["snapshot"] = {
            "segment": self._view.name,
            "base_capacity": self._base_len,
            "base_live": self._view.live,
            "overlay_nodes": self._live,
        }
        return data
