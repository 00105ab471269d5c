"""Read-only shared-memory snapshots of solved BDD node tables.

:class:`~repro.bdd.manager.BddManager` keeps its node table in three flat
int64 vectors, which makes a *snapshot* a plain ``memcpy``: :func:`freeze`
copies the used slots below ``_top`` of the (GC-compacted) vectors plus a
frozen open-addressing image of the unique table into a named
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

from .manager import EDGE_BITS, LEVEL_SHIFT, BddError, BddManager

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
    capacity = manager._top
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
            raw = vec[:capacity].tobytes()
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


class SnapshotOverlayManager(BddManager):
    """An allocation-capable manager over a frozen base table.

    Shares the base's node index space (indices below ``view.capacity`` are
    the frozen nodes; frozen signed edges stay valid verbatim) and allocates
    query-time nodes into a private tail.  ``_mk`` probes the local unique
    dict, then the frozen open-addressing table, then allocates with
    :meth:`BddManager._mk` — so canonicity spans both halves.  The tail
    grows by :meth:`BddManager._grow`'s rule.  GC sweeps only the tail
    (base nodes are immortal here; the owner of the segment decides its
    lifetime), and ``_live``/``len()`` count only terminal + tail nodes: an
    attached overlay *is* cheap, and session-pool LRU pricing must see it
    that way.
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
        self._top = view.capacity
        self._free = []

    # -- node creation ---------------------------------------------------
    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo != hi:
            sign = hi & 1
            key = (level << LEVEL_SHIFT) | ((lo ^ sign) << EDGE_BITS) | (hi ^ sign)
            if key not in self._unique:
                index = self._view.lookup(key)
                if index is not None:
                    # A frozen node: cache the hit locally so repeat lookups
                    # skip the shared-memory probe.
                    self._unique[key] = index
        return super()._mk(level, lo, hi)

    # -- garbage collection (tail-only) ----------------------------------
    def _collectable(self) -> Tuple[int, array, array, array]:
        # Frozen nodes are immortal here and closed under reachability, so
        # the shared sweep marks, clears and frees only the private tail.
        # Dropping cached frozen-table hits from `_unique` is harmless:
        # `_mk` probes the frozen table again.
        return self._base_len, self._level.tail, self._lo.tail, self._hi.tail

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
