"""Reduced Ordered Binary Decision Diagram (ROBDD) manager with complement
edges, a struct-of-arrays node store and a mark-and-sweep garbage collector.

This module is the symbolic-representation substrate of the reproduction: it
plays the role that CUDD plays inside MUCKE in the original Getafix tool.  It
is a from-scratch implementation with the operations the fixed-point
evaluator needs: Python throughout, with an optional native apply loop for
the hottest recursions (see "Native kernel" below).

Signed-edge (complement-edge) representation
--------------------------------------------
A BDD function is identified by a *signed edge*: an integer
``(node_index << 1) | complement_bit``.  There is a single terminal node at
index 0, so the regular edge ``0`` is the constant FALSE and its complemented
edge ``1`` is the constant TRUE — the classic ``FALSE == 0`` / ``TRUE == 1``
constants are preserved.  Negation is an O(1) edge flip (``f ^ 1``): it
allocates no nodes, touches no cache, and ``f`` and ``not f`` share every
decision node, which roughly halves the node table on negation-heavy
workloads (the optimised entry-forward system negates its ``Relevant``
relation on every outer round).

Canonicity is kept by the *attributed-edge invariant*: the stored ``then``
(high) edge of every node is regular.  :meth:`BddManager._mk` re-points a
node whose then-edge would be complemented at its complemented children and
returns the complemented edge instead, so structural equality of signed
edges remains function equality.

Complement edges also let several operations share one recursion and cache:

* ``or_(f, g)`` is De Morgan over the ``and_`` cache (``¬(¬f ∧ ¬g)``),
* ``forall`` is the dual of the ``exists`` recursion (``¬∃.¬f``),
* ``xor``/``iff`` strip operand signs into the result sign, halving the key
  space of their shared cache, and ``ite`` delegates its two-operand special
  cases to the ``and_``/``xor`` caches.

Node store
----------
* The node vectors ``level``/``lo``/``hi`` are flat ``array('q')`` int64
  vectors: three contiguous machine-word tables instead of three pointer
  arrays into heap-allocated ints.
* Slots are handed out by a bump index ``_top``: a new node takes the last
  free-listed slot (``_free`` holds only the holes GC left), or else slot
  ``_top``.  Slots from ``_top`` on are *spare*: never used, free-level and
  childless.  When none is left, :meth:`BddManager._grow` extends the
  vectors in one step — they double, by at least 1024 slots and up to the
  packed-key bound — so both kernels allocate with no call per node.
* The unique table and every per-op apply cache are keyed on *packed
  integer keys* (a single small int per probe instead of a tuple object);
  quantifier cubes and rename/restrict maps are interned to per-manager
  integer ``uid``\\ s so they pack too.  Which container holds them depends
  on the kernel (see "Native kernel" below).

Packed-key capacity bounds (per manager): at most :data:`MAX_NODE_INDEX`
node slots (edges fit 24 bits) and :data:`MAX_LEVEL` variables (levels fit
the remaining key bits).  A full node table raises
:class:`~repro.errors.NodeBudgetExceeded`, so it takes the same resource
path as an exhausted node budget; one variable too many raises
:class:`BddError`.

Garbage collection
------------------
Nodes are reclaimed by an explicit mark-and-sweep collector.  External roots
are tracked by reference counts (:meth:`ref` / :meth:`deref`);
:meth:`collect_garbage` marks from those roots plus any *extra
roots* the caller passes (e.g. the fixed-point evaluator's current
interpretations), frees every unmarked node into a free list for reuse, and
drops all operation caches so no cache entry can resurrect a dead node.
The sweep works run by run: each run of dead slots between live ones is
cleared with one slice assignment per vector, the unique table is rebuilt
from the live slots when at least half of it died (and has its dead keys
deleted otherwise), and the trailing run of free slots is trimmed back into
the spare slots: ``_top`` drops to just past the last live slot, so
capacity tracks the live high-water mark.  The sweep covers only the used
slots below ``_top``; the vectors themselves never shrink.  Registered GC
hooks let consumers (the symbolic backend's plan memos) invalidate their
own node-keyed caches in the same sweep.

Collection only runs at *safe points*: callers invoke
:meth:`maybe_collect` (cheap check against a configurable, geometrically
growing node-table trigger, plus an optional operation-cache size trigger)
when every live edge is enumerable — the evaluator does so between outer
fixed-point iterations.  Nothing collects implicitly during an apply
recursion, so intermediate results never need protection.

Native kernel
-------------
``_native.c`` is a CPython extension that runs ``and_``/``or_``,
``exists``/``forall``, ``and_exists``, ``rename``'s structural rebuild and
``restrict`` — with the node allocation they do — in C.  It works on this
manager's own vectors, tables, caches and counters and visits, caches and
allocates in the same order as the Python methods, so both kernels leave
identical edges, node tables and statistics; the node budget, the
table-full bound and the deadline countdown raise the same typed errors.
A manager that runs the native loop keeps its unique table and its
``and``/``exists``/``and_exists``/``rename``/``restrict`` caches in
``_native.Table``, an exact open-addressing hash table from packed keys
(any width below 2**111) to int64 values, whose slots the loop reads and
writes without a ``PyLong`` or a dict probe per step.  To Python it is a
mapping with the dict operations GC and the sanitizer use, equal to a
dict with the same entries, and its ``clear()`` frees its slots as
``dict.clear()`` does.  The loop walks a key's probe run once per access:
a missed lookup remembers the free slot that ended its walk, and the
insert after it (a new node in ``_mk``, a result after the recursion)
writes there if the table kept its size and the slot is still free, and
looks the key up again otherwise.  That is sound because a
table only receives inserts during a native call (GC and deletion run at
safe points), so every table's layout equals a fresh insert's; its
``validate()`` checks the probe runs for the sanitizer.  The Python kernel
keeps plain dicts, as do the ``xor``/``ite`` caches.
The module is compiled at first import (:func:`_load_native`) and cached
in ``__pycache__/``; when it cannot be built or loaded the Python methods
run instead, and they stay the oracle the native loop is tested against
(``tests/test_bdd_native.py``).  ``stats()["kernel"]`` says which kernel a
manager uses.  ``ite``, ``xor``, counting, cube picking and GC
are Python only.

Recursion depth
---------------
The apply recursions descend one frame per variable level.  The deepest
nestings stack two of them — ``rename``'s ``ite`` rebuild, and the ``or_``
inside ``exists`` / ``and_exists`` — so :meth:`BddManager.add_var` raises
the interpreter's recursion limit (it never lowers it) to two frames per
declared level plus headroom for the caller's own stack.  The native loop
recurses on the C stack, under 100 bytes a frame.

Every operation family maintains hit/miss counters; :meth:`BddManager.stats`
exposes them together with cache sizes, live/peak node counts and GC
counters.  :meth:`clear_caches` resets caches, statistics *and* the GC
bookkeeping in one step so per-run statistics do not leak across runs.
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from array import array
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import AnalysisTimeout, NodeBudgetExceeded

__all__ = ["BddManager", "BddError", "QuantCube"]

#: Signed edges are packed into 24-bit fields: node index < 2**23.
EDGE_BITS = 24
#: Highest representable node index (23-bit index, sign bit makes 24).
MAX_NODE_INDEX = (1 << (EDGE_BITS - 1)) - 1
#: Unique keys pack ``(level << 48) | (lo << 24) | hi`` into an int64.
LEVEL_SHIFT = 2 * EDGE_BITS
#: Levels must fit the remaining 15 key bits of a non-negative int64.
MAX_LEVEL = (1 << 15) - 1

#: Python frames the kernel may stack per variable level (see "Recursion
#: depth" above), and the frames left over for the caller's own stack.
_FRAMES_PER_LEVEL = 2
_RECURSION_HEADROOM = 1000


def _node_table_full(index: int) -> NodeBudgetExceeded:
    """The typed error for an allocation past the packed-key slot bound."""
    return NodeBudgetExceeded(
        f"BDD node table full: slot {index} is past the packed-key bound of "
        f"{MAX_NODE_INDEX} node slots",
        consumed=index,
        budget=MAX_NODE_INDEX,
    )


class BddError(Exception):
    """Raised for invalid uses of the BDD manager (unknown variables, ...)."""


class QuantCube:
    """An interned quantification variable set.

    ``levels`` is the sorted tuple of variable indices, ``mask`` one byte
    per level up to ``last`` (1 for quantified levels) for O(1) membership
    tests in both kernels, and ``last`` the deepest (largest) quantified
    level — the point below which quantification is the identity.  Cubes
    are interned per manager (see :meth:`BddManager.quant_cube`), so
    identity comparison and the default object hash make them cheap
    cache-key components.  The constructor normalises (sorts, dedups) its
    input and rejects empty sets, so a hand-built cube behaves like an
    interned one.
    """

    __slots__ = ("levels", "mask", "last", "uid")

    def __init__(self, levels: Iterable[int]) -> None:
        ordered = tuple(sorted(set(levels)))
        if not ordered:
            raise BddError("a quantifier cube needs at least one variable")
        self.levels = ordered
        self.last = ordered[-1]
        mask = bytearray(self.last + 1)
        for level in ordered:
            mask[level] = 1
        self.mask = bytes(mask)
        # Small per-manager integer, assigned when a manager interns the
        # cube (:meth:`BddManager.quant_cube`); it packs into cache keys.
        self.uid: Optional[int] = None

    def __repr__(self) -> str:
        return f"QuantCube{self.levels}"


#: Things accepted wherever a set of quantification variables is expected.
QuantVars = Union[QuantCube, Iterable[Union[int, str]]]


class BddManager:
    """A manager owning a shared multi-rooted ROBDD forest (signed edges).

    Parameters
    ----------
    var_names:
        Optional initial variable names, in order.  The position of a name in
        this sequence is its *level*: variables earlier in the sequence are
        tested closer to the root.  More variables can be added later with
        :meth:`add_var`, which appends them below all existing levels.
    gc_threshold:
        Live-node count above which :meth:`maybe_collect` triggers a
        collection.  After each collection the trigger grows to
        ``live * gc_growth`` (never below the configured floor), so a table
        that is mostly live does not thrash.
    gc_growth:
        Geometric growth factor of the collection trigger.
    debug_checks:
        Kernel sanitizer.  When True, :meth:`_debug_validate` runs at every
        GC safe point (each :meth:`maybe_collect` call and the end of each
        :meth:`collect_garbage` sweep) and cross-checks the node-store
        invariants — live counter vs non-free slots, unique table vs node
        vectors, free-list purity, operation-cache edge liveness, external
        reference validity — raising :class:`BddError` on the first
        violation.  ``None`` (the default) consults the
        ``REPRO_DEBUG_CHECKS`` environment variable.  Validation is
        O(nodes + cache entries) per safe point: a debugging tool, not a
        production mode.
    """

    FALSE = 0
    TRUE = 1

    #: Node-store layout name, reported by :meth:`stats`.
    STORE = "array"

    #: Sentinel level used for the terminal node; greater than any variable.
    _TERMINAL_LEVEL = 1 << 60
    #: Sentinel level marking a reclaimed (free-listed) node slot.
    _FREE_LEVEL = -1

    def __init__(
        self,
        var_names: Optional[Sequence[str]] = None,
        gc_threshold: int = 65_536,
        gc_growth: float = 2.0,
        debug_checks: Optional[bool] = None,
    ) -> None:
        if debug_checks is None:
            debug_checks = os.environ.get("REPRO_DEBUG_CHECKS", "") not in ("", "0")
        self._debug_checks = bool(debug_checks)
        # The compiled apply loop (see "Native kernel" above), or None to run
        # the Python recursions.
        self._native = _native
        # The native loop keeps the tables it works on in its own exact hash
        # table; the Python kernel keeps plain dicts.
        table = dict if self._native is None else self._native.Table
        # Parallel node vectors.  Index 0 is the sole terminal; a signed edge
        # is (index << 1) | complement, so FALSE = 0 and TRUE = 1.
        self._level = array("q", [self._TERMINAL_LEVEL])
        self._lo = array("q", [0])
        self._hi = array("q", [0])
        # Slots at or above `_top` have never held a node (see `_grow`).
        self._top = 1
        # Unique table: packed (level, lo_edge, hi_edge) key -> node index.
        self._unique: MutableMapping[int, int] = table()
        # Operation caches, one per operation family so one workload cannot
        # evict another's entries.  `or` rides the `and` cache (De Morgan),
        # `iff` rides `xor`, `forall` rides `exists`.  The five the native
        # loop runs use its table; `xor` and `ite` are Python only, so dicts.
        self._and_cache: MutableMapping[int, int] = table()
        self._xor_cache: Dict[int, int] = {}
        self._ite_cache: Dict[int, int] = {}
        self._exists_cache: MutableMapping[int, int] = table()
        self._and_exists_cache: MutableMapping[int, int] = table()
        self._rename_cache: MutableMapping[int, int] = table()
        self._restrict_cache: MutableMapping[int, int] = table()
        # Interning tables for quantifier cubes and rename/restrict maps; each
        # interned object gets a per-manager uid that packs into cache keys.
        self._cube_table: Dict[Tuple[int, ...], QuantCube] = {}
        self._rename_table: Dict[Tuple[Tuple[int, int], ...], "_RenameMap"] = {}
        self._restrict_table: Dict[Tuple[Tuple[int, bool], ...], "_RenameMap"] = {}
        self._next_uid = 0
        # Hit/miss counters, keyed like the caches.
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        for op in ("and", "xor", "ite", "exists", "and_exists", "rename", "restrict"):
            self._hits[op] = 0
            self._misses[op] = 0
        self._rename_fast = 0
        self._rename_slow = 0
        # Garbage collection state.
        self._free: List[int] = []
        self._live = 1  # the terminal
        self._peak_live = 1
        self._extref: Dict[int, int] = {}
        self._gc_hooks: List[Callable[[], None]] = []
        self._gc_floor = int(gc_threshold)
        self._gc_threshold = int(gc_threshold)
        self._gc_growth = float(gc_growth)
        self._gc_collections = 0
        self._gc_reclaimed = 0
        # Cooperative resource limits (see set_node_budget / set_deadline).
        # The deadline is checked at GC safe points and, via a countdown, at
        # node-allocation checkpoints so runaway apply loops stay bounded
        # without paying a clock read per node.
        self._node_budget: Optional[int] = None
        self._deadline: Optional[float] = None
        self._deadline_budget: Optional[float] = None
        self._deadline_started: Optional[float] = None
        self._deadline_interval = 1024
        self._deadline_countdown = self._deadline_interval
        # Variable bookkeeping.
        self._var_names: List[str] = []
        self._name_to_var: Dict[str, int] = {}
        if var_names is not None:
            for name in var_names:
                self.add_var(name)

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------
    def add_var(self, name: str) -> int:
        """Declare a new variable below all existing levels; return its index.

        Also makes sure the interpreter's recursion limit covers the apply
        recursions over the grown order (raised, never lowered).
        """
        if name in self._name_to_var:
            raise BddError(f"variable {name!r} already declared")
        index = len(self._var_names)
        if index >= MAX_LEVEL:
            raise BddError(
                f"a manager supports at most {MAX_LEVEL} variables "
                "(packed-key level bound)"
            )
        self._var_names.append(name)
        self._name_to_var[name] = index
        needed = _FRAMES_PER_LEVEL * (index + 1) + _RECURSION_HEADROOM
        if needed > sys.getrecursionlimit():
            sys.setrecursionlimit(needed)
        return index

    def var_index(self, name: str) -> int:
        """Return the level/index of a declared variable name."""
        try:
            return self._name_to_var[name]
        except KeyError:
            raise BddError(f"unknown variable {name!r}") from None

    def has_var(self, name: str) -> bool:
        """True iff a variable of that name is declared."""
        return name in self._name_to_var

    def _level_index(self, var: int | str) -> int:
        """The level of a variable given by name or index, range-checked."""
        index = self.var_index(var) if isinstance(var, str) else var
        if not 0 <= index < len(self._var_names):
            raise BddError(f"variable index {index} out of range")
        return index

    def _check_range(self, low: int, high: int) -> None:
        """Raise unless the levels ``low`` and ``high`` (and all between) exist."""
        if low < 0 or high >= len(self._var_names):
            raise BddError(f"variable index {low if low < 0 else high} out of range")

    def var_name(self, index: int) -> str:
        """Return the name of the variable at ``index``."""
        return self._var_names[index]

    @property
    def var_names(self) -> Tuple[str, ...]:
        """All declared variable names, in level order."""
        return tuple(self._var_names)

    @property
    def num_vars(self) -> int:
        """Number of declared variables."""
        return len(self._var_names)

    def var(self, var: int | str) -> int:
        """Return the BDD edge for a single variable (``x``)."""
        return self._mk(self._level_index(var), self.FALSE, self.TRUE)

    def nvar(self, var: int | str) -> int:
        """Return the BDD edge for a negated variable (``not x``)."""
        return self.var(var) ^ 1

    # ------------------------------------------------------------------
    # Node creation
    # ------------------------------------------------------------------
    def _mk(self, level: int, lo: int, hi: int) -> int:
        """Find-or-create the node ``(level, lo, hi)``; returns a signed edge.

        Enforces both reduction (``lo == hi`` collapses) and the complement
        canonical form (the stored then-edge is regular).
        """
        if lo == hi:
            return lo
        sign = hi & 1
        if sign:
            lo ^= 1
            hi ^= 1
        key = (level << LEVEL_SHIFT) | (lo << EDGE_BITS) | hi
        index = self._unique.get(key)
        if index is None:
            free = self._free
            if free:
                index = free.pop()
            else:
                index = self._top
                if index > MAX_NODE_INDEX:
                    raise _node_table_full(index)
                if index == len(self._level):
                    self._grow()
                self._top = index + 1
            self._level[index] = level
            self._lo[index] = lo
            self._hi[index] = hi
            self._unique[key] = index
            self._live += 1
            if self._live > self._peak_live:
                self._peak_live = self._live
            # Apply-loop checkpoints: every allocation is a consistent point
            # (the new node is valid, caches untouched), so raising here
            # leaves the manager releasable.  Budget accounting is over
            # *live* nodes, never array capacity: `_live` excludes
            # free-listed slots and the sweep trims the tail.
            if self._node_budget is not None and self._live > self._node_budget:
                raise NodeBudgetExceeded(consumed=self._live, budget=self._node_budget)
            if self._deadline is not None:
                self._deadline_countdown -= 1
                if self._deadline_countdown <= 0:
                    self._deadline_countdown = self._deadline_interval
                    self._check_deadline()
        return (index << 1) | sign

    def _grow(self) -> None:
        """Extend the node vectors by spare slots: the store's one growth step.

        The vectors double, by at least 1024 slots and up to the packed-key
        bound.  Spare slots are free-level and childless, sit at or above
        ``_top`` and are never on the free list.
        """
        size = len(self._level)
        extra = min(max(size, 1024), MAX_NODE_INDEX + 1 - size)
        zeros = array("q", bytes(8 * extra))
        self._level.extend(array("q", [self._FREE_LEVEL]) * extra)
        self._lo.extend(zeros)
        self._hi.extend(zeros)

    def __len__(self) -> int:
        """Number of *live* nodes owned by this manager (incl. the terminal)."""
        return self._live

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def not_(self, f: int) -> int:
        """Boolean negation: an O(1) complement-edge flip (no allocation)."""
        return f ^ 1

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f and g) or (not f and h)``.

        Two-operand shapes are delegated to the ``and``/``xor`` caches; only
        genuinely three-operand calls use the ``ite`` cache, with the first
        operand made regular (by swapping the branches) and the result sign
        normalised on the then-branch.
        """
        return self._ite(f, g, h)

    def _ite_norm(self, f: int, g: int, h: int):
        """``ite`` normalisation: terminal cases and 2-operand
        delegations resolve to ``(result, None)``; genuinely 3-operand calls
        resolve to ``(None, (f, g, h, sign))`` with f and g regular."""
        if f == self.TRUE:
            return g, None
        if f == self.FALSE:
            return h, None
        if g == h:
            return g, None
        if f & 1:
            f ^= 1
            g, h = h, g
        if g == f:
            g = 1
        elif g == f ^ 1:
            g = 0
        if h == f:
            h = 0
        elif h == f ^ 1:
            h = 1
        if g == h:
            return g, None
        if g == 1 and h == 0:
            return f, None
        if g == 0 and h == 1:
            return f ^ 1, None
        if g == 1:  # f or h
            return self.or_(f, h), None
        if g == 0:  # not f and h
            return self.and_(f ^ 1, h), None
        if h == 0:  # f and g
            return self.and_(f, g), None
        if h == 1:  # f implies g
            return self.and_(f, g ^ 1) ^ 1, None
        if g == h ^ 1:  # f iff g
            return self.xor(f, h), None
        sign = g & 1
        if sign:
            g ^= 1
            h ^= 1
        return None, (f, g, h, sign)

    def _ite(self, f: int, g: int, h: int) -> int:
        done, triple = self._ite_norm(f, g, h)
        if triple is None:
            return done
        f, g, h, sign = triple
        key = (((f << EDGE_BITS) | g) << EDGE_BITS) | h
        cached = self._ite_cache.get(key)
        if cached is not None:
            self._hits["ite"] += 1
            return cached ^ sign
        self._misses["ite"] += 1
        level = min(self._level[f >> 1], self._level[g >> 1], self._level[h >> 1])
        f_lo, f_hi = self._cofactors(f, level)
        g_lo, g_hi = self._cofactors(g, level)
        h_lo, h_hi = self._cofactors(h, level)
        lo = self._ite(f_lo, g_lo, h_lo)
        hi = self._ite(f_hi, g_hi, h_hi)
        result = self._mk(level, lo, hi)
        self._ite_cache[key] = result
        return result ^ sign

    def _cofactors(self, edge: int, level: int) -> Tuple[int, int]:
        index = edge >> 1
        if self._level[index] == level:
            sign = edge & 1
            return self._lo[index] ^ sign, self._hi[index] ^ sign
        return edge, edge

    def and_(self, f: int, g: int) -> int:
        """Boolean conjunction (dedicated apply recursion, own cache)."""
        if self._native is not None:
            return self._native.and_(self, f, g)
        return self._and(f, g)

    def _and(self, f: int, g: int) -> int:
        if f == g or g == 1:
            return f
        if f == 1:
            return g
        if f == 0 or g == 0 or f == g ^ 1:
            return 0
        if f > g:
            f, g = g, f
        key = (f << EDGE_BITS) | g
        cached = self._and_cache.get(key)
        if cached is not None:
            self._hits["and"] += 1
            return cached
        self._misses["and"] += 1
        f_index = f >> 1
        g_index = g >> 1
        level_f = self._level[f_index]
        level_g = self._level[g_index]
        if level_f == level_g:
            level = level_f
            f_sign = f & 1
            g_sign = g & 1
            lo = self._and(self._lo[f_index] ^ f_sign, self._lo[g_index] ^ g_sign)
            hi = self._and(self._hi[f_index] ^ f_sign, self._hi[g_index] ^ g_sign)
        elif level_f < level_g:
            level = level_f
            f_sign = f & 1
            lo = self._and(self._lo[f_index] ^ f_sign, g)
            hi = self._and(self._hi[f_index] ^ f_sign, g)
        else:
            level = level_g
            g_sign = g & 1
            lo = self._and(f, self._lo[g_index] ^ g_sign)
            hi = self._and(f, self._hi[g_index] ^ g_sign)
        result = lo if lo == hi else self._mk(level, lo, hi)
        self._and_cache[key] = result
        return result

    def or_(self, f: int, g: int) -> int:
        """Boolean disjunction: De Morgan over the ``and_`` cache."""
        if self._native is not None:
            return self._native.and_(self, f ^ 1, g ^ 1) ^ 1
        return self._and(f ^ 1, g ^ 1) ^ 1

    def xor(self, f: int, g: int) -> int:
        """Boolean exclusive or.

        Operand signs cancel into the result sign (``¬f ⊕ g = ¬(f ⊕ g)``), so
        the cache only ever holds regular operand pairs.
        """
        return self._xor(f, g)

    def _xor(self, f: int, g: int) -> int:
        sign = (f ^ g) & 1
        f &= ~1
        g &= ~1
        if f == g:
            return sign
        if f == 0:
            return g ^ sign
        if g == 0:
            return f ^ sign
        if f > g:
            f, g = g, f
        key = (f << EDGE_BITS) | g
        cached = self._xor_cache.get(key)
        if cached is not None:
            self._hits["xor"] += 1
            return cached ^ sign
        self._misses["xor"] += 1
        f_index = f >> 1
        g_index = g >> 1
        level_f = self._level[f_index]
        level_g = self._level[g_index]
        if level_f == level_g:
            level = level_f
            lo = self._xor(self._lo[f_index], self._lo[g_index])
            hi = self._xor(self._hi[f_index], self._hi[g_index])
        elif level_f < level_g:
            level = level_f
            lo = self._xor(self._lo[f_index], g)
            hi = self._xor(self._hi[f_index], g)
        else:
            level = level_g
            lo = self._xor(f, self._lo[g_index])
            hi = self._xor(f, self._hi[g_index])
        result = lo if lo == hi else self._mk(level, lo, hi)
        self._xor_cache[key] = result
        return result ^ sign

    # ------------------------------------------------------------------
    # Derived connectives
    # ------------------------------------------------------------------
    def iff(self, f: int, g: int) -> int:
        """Boolean biconditional (the complement of ``xor``)."""
        return self.xor(f, g) ^ 1

    def implies(self, f: int, g: int) -> int:
        """Boolean implication ``f -> g``."""
        return self.and_(f, g ^ 1) ^ 1

    def conjoin(self, nodes: Iterable[int]) -> int:
        """Conjunction of an iterable of edges (TRUE for the empty iterable)."""
        result = self.TRUE
        for node in nodes:
            result = self.and_(result, node)
            if result == self.FALSE:
                return result
        return result

    def disjoin(self, nodes: Iterable[int]) -> int:
        """Disjunction of an iterable of edges (FALSE for the empty iterable)."""
        result = self.FALSE
        for node in nodes:
            result = self.or_(result, node)
            if result == self.TRUE:
                return result
        return result

    # ------------------------------------------------------------------
    # Quantification
    # ------------------------------------------------------------------
    def quant_cube(self, variables: QuantVars) -> Optional[QuantCube]:
        """Intern a set of quantification variables as a :class:`QuantCube`.

        Returns None for the empty set.  Callers that quantify over the same
        variable set repeatedly (the symbolic backend's compiled plans, for
        example) can intern the cube once and pass it to :meth:`exists` /
        :meth:`forall` / :meth:`and_exists` directly.
        """
        if isinstance(variables, QuantCube):
            levels = variables.levels
        else:
            levels = tuple(sorted(self._var_set(variables)))
            if not levels:
                return None
        cube = self._cube_table.get(levels)
        if cube is None:
            # A hand-built cube whose uid another manager already assigned
            # must not be adopted — uids are manager-local key components.
            if isinstance(variables, QuantCube) and variables.uid is None:
                cube = variables
            else:
                cube = QuantCube(levels)
            cube.uid = self._next_uid
            self._next_uid += 1
            self._cube_table[levels] = cube
        return cube

    def exists(self, f: int, variables: QuantVars) -> int:
        """Existentially quantify ``variables`` out of ``f``."""
        cube = self.quant_cube(variables)
        if cube is None:
            return f
        if self._native is not None:
            return self._native.exists(self, f, cube)
        return self._exists(f, cube)

    def _exists(self, f: int, cube: QuantCube) -> int:
        if f <= 1:
            return f
        index = f >> 1
        level = self._level[index]
        if level > cube.last:
            return f
        key = (cube.uid << EDGE_BITS) | f
        cached = self._exists_cache.get(key)
        if cached is not None:
            self._hits["exists"] += 1
            return cached
        self._misses["exists"] += 1
        sign = f & 1
        lo = self._lo[index] ^ sign
        hi = self._hi[index] ^ sign
        if cube.mask[level]:
            r_lo = self._exists(lo, cube)
            if r_lo == self.TRUE:
                result = self.TRUE
            else:
                result = self.or_(r_lo, self._exists(hi, cube))
        else:
            result = self._mk(level, self._exists(lo, cube), self._exists(hi, cube))
        self._exists_cache[key] = result
        return result

    def forall(self, f: int, variables: QuantVars) -> int:
        """Universally quantify: the dual of ``exists`` (``¬∃.¬f``)."""
        cube = self.quant_cube(variables)
        if cube is None:
            return f
        if self._native is not None:
            return self._native.exists(self, f ^ 1, cube) ^ 1
        return self._exists(f ^ 1, cube) ^ 1

    def and_exists(self, f: int, g: int, variables: QuantVars) -> int:
        """Relational product: ``exists variables. (f and g)`` in one pass."""
        cube = self.quant_cube(variables)
        if cube is None:
            return self.and_(f, g)
        if self._native is not None:
            return self._native.and_exists(self, f, g, cube)
        return self._and_exists(f, g, cube)

    def _and_exists(self, f: int, g: int, cube: QuantCube) -> int:
        if f == 0 or g == 0 or f == g ^ 1:
            return 0
        if f == 1 and g == 1:
            return 1
        if f == 1:
            return self._exists(g, cube)
        if g == 1 or f == g:
            return self._exists(f, cube)
        if f > g:
            f, g = g, f
        level_f = self._level[f >> 1]
        level_g = self._level[g >> 1]
        level = level_f if level_f < level_g else level_g
        if level > cube.last:
            return self._and(f, g)
        key = (((cube.uid << EDGE_BITS) | f) << EDGE_BITS) | g
        cached = self._and_exists_cache.get(key)
        if cached is not None:
            self._hits["and_exists"] += 1
            return cached
        self._misses["and_exists"] += 1
        f_lo, f_hi = self._cofactors(f, level)
        g_lo, g_hi = self._cofactors(g, level)
        if cube.mask[level]:
            lo = self._and_exists(f_lo, g_lo, cube)
            if lo == self.TRUE:
                result = self.TRUE
            else:
                hi = self._and_exists(f_hi, g_hi, cube)
                result = self.or_(lo, hi)
        else:
            lo = self._and_exists(f_lo, g_lo, cube)
            hi = self._and_exists(f_hi, g_hi, cube)
            result = self._mk(level, lo, hi)
        self._and_exists_cache[key] = result
        return result

    def _var_set(self, variables: Iterable[int | str]) -> frozenset:
        indices = set()
        for var in variables:
            indices.add(self.var_index(var) if isinstance(var, str) else var)
        for index in indices:
            if not 0 <= index < len(self._var_names):
                raise BddError(f"variable index {index} out of range")
        return frozenset(indices)

    # ------------------------------------------------------------------
    # Substitution / renaming / restriction
    # ------------------------------------------------------------------
    def rename_map(self, mapping: Dict[int | str, int | str]) -> Optional["_RenameMap"]:
        """Intern a rename mapping (var -> var) for :meth:`rename`.

        Returns None when the mapping moves no variable, and raises
        :class:`BddError` when it is not injective on the variables it
        moves.  Callers that apply the same renaming repeatedly (the
        symbolic backend's compiled relation plans) intern it once and pass
        the map to :meth:`rename`, as :meth:`exists` accepts a
        :class:`QuantCube`.
        """
        normalised: Dict[int, int] = {}
        for src, dst in mapping.items():
            if isinstance(src, str):
                src = self.var_index(src)
            if isinstance(dst, str):
                dst = self.var_index(dst)
            if src != dst:
                normalised[src] = dst
        if not normalised:
            return None
        indices = normalised.keys() | normalised.values()
        self._check_range(min(indices), max(indices))
        key = tuple(sorted(normalised.items()))
        rmap = self._rename_table.get(key)
        if rmap is None:
            if len(set(normalised.values())) != len(normalised):
                raise BddError("rename mapping must be injective")
            rmap = _RenameMap.for_rename(normalised, self._next_uid)
            self._next_uid += 1
            self._rename_table[key] = rmap
        return rmap

    def rename(self, f: int, mapping: Union["_RenameMap", Dict[int | str, int | str]]) -> int:
        """Rename variables of ``f`` according to ``mapping`` (var -> var).

        The substitution is simultaneous and order-insensitive.  The BDD is
        first rebuilt structurally, node by node; that is right whenever
        each rebuilt node's target level stays above its rebuilt children's
        levels, as under the common prime/unprime shift produced by the
        template encoders.  The rebuild checks that at every node it makes
        and, on the first node that breaks it, gives up; each renamed node
        is then re-inserted with ``ite`` on the target variable instead.
        The mapping must be injective on the variables it moves (checked
        once, when the map is interned; see :meth:`rename_map`, whose
        result ``mapping`` may also be) and no target variable may also
        appear in the support of ``f`` unless it is itself renamed away (a
        node at such a level also stops the rebuild, and the ``ite`` path
        names every clashing variable).

        Renaming commutes with complementation, so results are cached per
        (regular edge, interned mapping) and the sign is re-applied on the
        way out; repeated renames of the same function — every fixed-point
        iteration applies the same relation arguments — are constant-time
        after the first.
        """
        rmap = mapping if isinstance(mapping, _RenameMap) else self.rename_map(mapping)
        if rmap is None:
            return f
        cached = self._rename_cache.get((rmap.uid << EDGE_BITS) | (f & ~1))
        if cached is not None:
            self._hits["rename"] += 1
            return cached ^ (f & 1)
        if self._native is not None:
            result = self._native.rename_shift(self, f, rmap)
        else:
            result = self._rename_shift(f, rmap)
        if result >= 0:
            self._rename_fast += 1
            return result
        table = rmap.table
        clashes = [i for i in self.support(f) if i < len(table) and table[i] < 0]
        if clashes:
            names = sorted(self._var_names[i] for i in clashes)
            raise BddError(f"rename targets already in support: {names}")
        self._rename_slow += 1
        return self._rename_ite(f, rmap)

    def _rename_shift(self, f: int, rmap: "_RenameMap") -> int:
        """Structural rebuild of ``f`` under ``rmap``; -1 if a node below
        sits at a clash level or would land at or below a rebuilt child."""
        if f <= 1:
            return f
        sign = f & 1
        f ^= sign
        key = (rmap.uid << EDGE_BITS) | f
        cached = self._rename_cache.get(key)
        if cached is not None:
            self._hits["rename"] += 1
            return cached ^ sign
        self._misses["rename"] += 1
        index = f >> 1
        level = self._level[index]
        table = rmap.table
        target = table[level] if level < len(table) else level
        if target < 0:
            return -1
        lo = self._rename_shift(self._lo[index], rmap)
        if lo < 0:
            return lo
        hi = self._rename_shift(self._hi[index], rmap)
        if hi < 0:
            return hi
        if target >= self._level[lo >> 1] or target >= self._level[hi >> 1]:
            return -1
        result = self._mk(target, lo, hi)
        self._rename_cache[key] = result
        return result ^ sign

    def _rename_ite(self, f: int, rmap: "_RenameMap") -> int:
        if f <= 1:
            return f
        sign = f & 1
        f ^= sign
        key = (rmap.uid << EDGE_BITS) | f
        cached = self._rename_cache.get(key)
        if cached is not None:
            self._hits["rename"] += 1
            return cached ^ sign
        self._misses["rename"] += 1
        index = f >> 1
        lo = self._rename_ite(self._lo[index], rmap)
        hi = self._rename_ite(self._hi[index], rmap)
        level = self._level[index]
        table = rmap.table
        target = table[level] if level < len(table) else level
        result = self.ite(self.var(target), hi, lo)
        self._rename_cache[key] = result
        return result ^ sign

    def restrict_map(self, assignment: Dict[int | str, bool]) -> Optional["_RenameMap"]:
        """Intern a restrict assignment (var -> constant) for :meth:`restrict`.

        Returns None for the empty assignment.  Like :meth:`rename_map`, it
        lets a caller that restricts by the same constants repeatedly intern
        them once.
        """
        fixed = {
            (self.var_index(var) if isinstance(var, str) else var): bool(value)
            for var, value in assignment.items()
        }
        if not fixed:
            return None
        key = tuple(sorted(fixed.items()))
        self._check_range(key[0][0], key[-1][0])
        fmap = self._restrict_table.get(key)
        if fmap is None:
            fmap = _RenameMap.for_restrict(fixed, self._next_uid)
            self._next_uid += 1
            self._restrict_table[key] = fmap
        return fmap

    def restrict(self, f: int, assignment: Union["_RenameMap", Dict[int | str, bool]]) -> int:
        """Cofactor ``f`` by fixing the given variables to constants.

        Like :meth:`rename`, restriction commutes with complementation and
        the assignment maps are interned (``assignment`` may be a map from
        :meth:`restrict_map`), so results live in a cross-call cache keyed
        (regular edge, interned map) — the compiled relation plans restrict
        the same interpretations with the same constant arguments on every
        fixed-point iteration.
        """
        fmap = assignment if isinstance(assignment, _RenameMap) else self.restrict_map(assignment)
        if fmap is None:
            return f
        if self._native is not None:
            return self._native.restrict(self, f, fmap)
        return self._restrict(f, fmap)

    def _restrict(self, f: int, fmap: "_RenameMap") -> int:
        if f <= 1:
            return f
        sign = f & 1
        f ^= sign
        key = (fmap.uid << EDGE_BITS) | f
        cached = self._restrict_cache.get(key)
        if cached is not None:
            self._hits["restrict"] += 1
            return cached ^ sign
        self._misses["restrict"] += 1
        index = f >> 1
        level = self._level[index]
        table = fmap.table
        value = table[level] if level < len(table) else -1
        if value >= 0:
            branch = self._hi[index] if value else self._lo[index]
            result = self._restrict(branch, fmap)
        else:
            lo = self._restrict(self._lo[index], fmap)
            hi = self._restrict(self._hi[index], fmap)
            result = self._mk(level, lo, hi)
        self._restrict_cache[key] = result
        return result ^ sign

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def support(self, f: int) -> set:
        """Set of variable indices the function ``f`` depends on."""
        seen: set = set()
        result: set = set()
        stack = [f >> 1]
        while stack:
            index = stack.pop()
            if index == 0 or index in seen:
                continue
            seen.add(index)
            result.add(self._level[index])
            stack.append(self._lo[index] >> 1)
            stack.append(self._hi[index] >> 1)
        return result

    def support_names(self, f: int) -> set:
        """Set of variable *names* the function ``f`` depends on."""
        return {self._var_names[index] for index in self.support(f)}

    def node_count(self, f: int) -> int:
        """Number of distinct decision nodes reachable from ``f`` (excl. terminals).

        ``f`` and ``not f`` share every node under complement edges, so their
        counts are identical.
        """
        seen: set = set()
        stack = [f >> 1]
        while stack:
            index = stack.pop()
            if index == 0 or index in seen:
                continue
            seen.add(index)
            stack.append(self._lo[index] >> 1)
            stack.append(self._hi[index] >> 1)
        return len(seen)

    def count_sat(self, f: int, variables: Optional[Iterable[int | str]] = None) -> int:
        """Number of satisfying assignments of ``f`` over ``variables``.

        When ``variables`` is omitted, all declared variables are used;
        otherwise they must cover the support of ``f``.  The count is exact
        at any width: a memoised big-int recursion over the node vectors.
        """
        if variables is None:
            order = list(range(len(self._var_names)))
        else:
            var_set = self._var_set(variables)
            missing = self.support(f) - var_set
            if missing:
                names = sorted(self._var_names[i] for i in missing)
                raise BddError(f"count_sat variables must cover the support; missing {names}")
            order = sorted(var_set)
        if f == self.FALSE:
            return 0
        if f == self.TRUE:
            return 1 << len(order)
        return self._count_sat_exact(f, order)

    def _count_sat_exact(self, f: int, order: List[int]) -> int:
        """Exact count by a memoised big-int recursion over the node vectors."""
        position = {index: pos for pos, index in enumerate(order)}
        total_levels = len(order)
        below_cache: Dict[Tuple[int, int], int] = {}

        def count_below(edge: int, from_pos: int) -> int:
            """Assignments over variables at positions >= from_pos satisfying edge."""
            if edge == self.FALSE:
                return 0
            if edge == self.TRUE:
                return 1 << (total_levels - from_pos)
            # The memo is keyed on the *signed* edge: a complemented arrival
            # must hit the cache too, or every visit to a signed edge redoes
            # the complement-space subtraction walk.
            key = (edge, from_pos)
            cached = below_cache.get(key)
            if cached is not None:
                return cached
            if edge & 1:
                # Complemented edge: count the complement space.
                result = (1 << (total_levels - from_pos)) - count_below(edge ^ 1, from_pos)
            else:
                index = edge >> 1
                level = self._level[index]
                pos = position[level]
                gap = pos - from_pos
                sub = count_below(self._lo[index], pos + 1) + count_below(self._hi[index], pos + 1)
                result = sub << gap
            below_cache[key] = result
            return result

        try:
            return count_below(f, 0)
        finally:
            # The recursive closure refers to itself through its cell; drop
            # it so the cycle (and this manager) does not wait for the
            # cyclic collector.
            del count_below

    def sat_one(self, f: int) -> Optional[Dict[int, bool]]:
        """One satisfying assignment (over the support only), or None if UNSAT."""
        if f == self.FALSE:
            return None
        assignment: Dict[int, bool] = {}
        edge = f
        while edge > 1:
            index = edge >> 1
            sign = edge & 1
            lo = self._lo[index] ^ sign
            if lo != self.FALSE:
                assignment[self._level[index]] = False
                edge = lo
            else:
                assignment[self._level[index]] = True
                edge = self._hi[index] ^ sign
        return assignment

    def pick_cube(
        self, f: int, variables: Optional[Iterable[int | str]] = None
    ) -> Optional[Dict[int, bool]]:
        """The lowest-index satisfying cube of ``f``, total over ``variables``.

        Deterministic counterpart of :meth:`sat_one`: among all satisfying
        assignments the one that is lexicographically smallest in variable
        order (preferring ``False`` at every level, which the prefer-low walk
        realises on signed edges).  Variables in ``variables`` but outside the
        support are filled with ``False``.  Because the walk only consults the
        canonical ``(level, lo, hi)`` node data, the picked cube depends on
        the function alone, never on slot numbering.

        When ``variables`` is omitted the cube is total over the support.
        Returns ``None`` iff ``f`` is unsatisfiable.
        """
        if f == self.FALSE:
            return None
        if variables is None:
            var_set = self.support(f)
        else:
            var_set = self._var_set(variables)
            missing = self.support(f) - var_set
            if missing:
                names = sorted(self._var_names[i] for i in missing)
                raise BddError(
                    f"pick_cube variables must cover the support; missing {names}"
                )
        assignment = self.sat_one(f)
        assert assignment is not None
        return {index: assignment.get(index, False) for index in sorted(var_set)}

    def sat_all(self, f: int, variables: Iterable[int | str]) -> Iterator[Dict[int, bool]]:
        """Iterate over all satisfying assignments restricted to ``variables``.

        Every yielded dictionary assigns a Boolean to *each* variable in
        ``variables`` (variables not in the support are enumerated both ways).
        The function must not depend on variables outside ``variables``.
        """
        var_list = sorted(self._var_set(variables))
        missing = self.support(f) - set(var_list)
        if missing:
            names = sorted(self._var_names[i] for i in missing)
            raise BddError(f"sat_all variables must cover the support; missing {names}")

        def recurse(edge: int, pos: int, partial: Dict[int, bool]) -> Iterator[Dict[int, bool]]:
            if edge == self.FALSE:
                return
            if pos == len(var_list):
                yield dict(partial)
                return
            index = var_list[pos]
            level = self._level[edge >> 1] if edge > 1 else self._TERMINAL_LEVEL
            if level == index:
                sign = edge & 1
                node = edge >> 1
                children = (
                    (False, self._lo[node] ^ sign),
                    (True, self._hi[node] ^ sign),
                )
                for value, child in children:
                    partial[index] = value
                    yield from recurse(child, pos + 1, partial)
                del partial[index]
            else:
                for value in (False, True):
                    partial[index] = value
                    yield from recurse(edge, pos + 1, partial)
                del partial[index]

        yield from recurse(f, 0, {})

    def cube(self, assignment: Dict[int | str, bool]) -> int:
        """The conjunction of literals described by ``assignment``.

        Keys are variable names or indices; a variable given twice with
        opposite values makes the cube FALSE.  The cube is a single path,
        so it is built bottom-up in level order with one :meth:`_mk` per
        literal and no apply call.
        """
        literals: Dict[int, bool] = {}
        conflict = False
        for var, value in assignment.items():
            if isinstance(var, str):
                var = self.var_index(var)
            value = bool(value)
            conflict |= literals.setdefault(var, value) != value
        levels = sorted(literals, reverse=True)
        if levels:
            self._check_range(levels[-1], levels[0])
        if conflict:
            return self.FALSE
        node = self.TRUE
        for level in levels:
            if literals[level]:
                node = self._mk(level, self.FALSE, node)
            else:
                node = self._mk(level, node, self.FALSE)
        return node

    def at_most(self, variables: Sequence[int | str], bound: int) -> int:
        """The unsigned number with bit ``i`` at ``variables[i]`` is ``<= bound``.

        Built bottom-up with :meth:`_mk`, whatever the levels of the bits.
        The comparison is decided by the most significant bit where the
        number and ``bound`` differ, so the function below a level depends
        only on how many of the bits still to come are more significant
        than the highest difference seen above, and on that difference's
        verdict: at most ``width * (width + 1)`` nodes, and ``2 * width``
        when the bits run least significant first, as in the default order.
        """
        levels = [self._level_index(var) for var in variables]
        if len(set(levels)) != len(levels):
            raise BddError("at_most needs distinct variables")
        if bound < 0:
            return self.FALSE
        if bound >= (1 << len(levels)) - 1:
            return self.TRUE
        # Bit significances in level order, and for each position how many
        # of the later positions hold a more significant bit.
        order = sorted(range(len(levels)), key=levels.__getitem__)
        above = [
            sum(1 for later in order[k + 1 :] if later > sig)
            for k, sig in enumerate(order)
        ]
        memo: Dict[Tuple[int, int, bool], int] = {}

        def below(k: int, relevant: int, verdict: bool) -> int:
            # Bits at positions >= k; only the `relevant` most significant of
            # them can still overturn `verdict`.
            if relevant == 0:
                return self.TRUE if verdict else self.FALSE
            key = (k, relevant, verdict)
            node = memo.get(key)
            if node is None:
                if above[k] >= relevant:
                    node = below(k + 1, relevant, verdict)
                else:
                    sig = order[k]
                    bit = (bound >> sig) & 1
                    same = below(k + 1, relevant - 1, verdict)
                    differs = below(k + 1, above[k], bool(bit))
                    if bit:
                        node = self._mk(levels[sig], differs, same)
                    else:
                        node = self._mk(levels[sig], same, differs)
                memo[key] = node
            return node

        try:
            return below(0, len(levels), True)
        finally:
            del below  # the recursive closure's self-reference, as in count_sat

    def eval(self, f: int, assignment: Dict[int | str, bool]) -> bool:
        """Evaluate ``f`` under a total assignment of its support.

        Keys are variable names or levels.  An assignment keyed by levels
        only is read as it is, so callers that evaluate many functions under
        one level-keyed assignment pay for no normalised copy per call.
        """
        fixed = assignment
        if not {int}.issuperset(map(type, assignment)):
            fixed = {
                (self.var_index(var) if isinstance(var, str) else var): bool(value)
                for var, value in assignment.items()
            }
        level, lo, hi = self._level, self._lo, self._hi
        edge = f
        try:
            while edge > 1:
                index = edge >> 1
                edge = (hi[index] if fixed[level[index]] else lo[index]) ^ (edge & 1)
        except KeyError:
            raise BddError(
                f"assignment does not cover variable {self._var_names[level[index]]!r}"
            ) from None
        return edge == self.TRUE

    # ------------------------------------------------------------------
    # External references / garbage collection
    # ------------------------------------------------------------------
    def ref(self, edge: int) -> int:
        """Register an external reference to ``edge``; returns the edge.

        Referenced nodes (and everything below them) survive
        :meth:`collect_garbage` until a matching :meth:`deref`.
        """
        index = edge >> 1
        if index:
            self._extref[index] = self._extref.get(index, 0) + 1
        return edge

    def deref(self, edge: int) -> None:
        """Drop one external reference to ``edge`` (no-op when not referenced)."""
        index = edge >> 1
        count = self._extref.get(index)
        if count is None:
            return
        if count <= 1:
            del self._extref[index]
        else:
            self._extref[index] = count - 1

    def external_references(self) -> int:
        """Number of distinct externally referenced nodes."""
        return len(self._extref)

    def add_gc_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback run after every sweep that reclaimed nodes.

        Consumers that key their own caches on node edges (the symbolic
        backend's plan memos) use this to invalidate them in the same sweep,
        so no external cache can resurrect a dead node.
        """
        self._gc_hooks.append(hook)

    def remove_gc_hook(self, hook: Callable[[], None]) -> None:
        """Unregister a GC hook (no-op if not registered).

        Consumers with a shorter lifetime than the manager (e.g. a symbolic
        backend sharing a long-lived context) must remove their hook when
        they are done, or the manager keeps them alive and keeps running
        their invalidation on every sweep.
        """
        try:
            self._gc_hooks.remove(hook)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Cooperative resource limits
    # ------------------------------------------------------------------
    def set_node_budget(self, budget: Optional[int]) -> None:
        """Bound the live-node count; ``None`` removes the bound.

        Crossing the budget at an allocation checkpoint or a GC safe point
        raises :class:`repro.errors.NodeBudgetExceeded`.  Setting a budget
        also pulls the GC trigger below it so a sweep gets a chance to
        reclaim garbage before the hard bound is hit.
        """
        self._node_budget = budget
        if budget is not None:
            self._gc_threshold = min(self._gc_threshold, max(1024, budget // 2))

    def set_deadline(self, seconds: float) -> None:
        """Arm a wall-clock deadline ``seconds`` from now for this manager.

        Expiry raises :class:`repro.errors.AnalysisTimeout` at the next
        checkpoint: unconditionally at GC safe points, and every
        ``_deadline_interval`` node allocations inside apply loops (the
        first allocation after arming always checks, so an already-expired
        deadline trips immediately).  Call :meth:`clear_deadline` when the
        governed query finishes.
        """
        self._deadline_started = time.monotonic()
        self._deadline_budget = float(seconds)
        self._deadline = self._deadline_started + float(seconds)
        self._deadline_countdown = 1

    def clear_deadline(self) -> None:
        """Disarm the wall-clock deadline (idempotent)."""
        self._deadline = None
        self._deadline_budget = None
        self._deadline_started = None
        self._deadline_countdown = self._deadline_interval

    def _check_deadline(self) -> None:
        now = time.monotonic()
        if self._deadline is not None and now >= self._deadline:
            started = self._deadline_started if self._deadline_started is not None else now
            raise AnalysisTimeout(consumed=now - started, budget=self._deadline_budget)

    def collect_garbage(self, roots: Iterable[int] = ()) -> int:
        """Mark-and-sweep collection; returns the number of reclaimed nodes.

        Live nodes are those reachable from externally referenced nodes
        (:meth:`ref`) or from ``roots`` (extra edges the caller knows to be
        live, e.g. the evaluator's current interpretations).  Reclaimed slots
        go to a free list and are reused by :meth:`_mk`, except the trailing
        run of free slots, which is trimmed; all operation caches are dropped
        (their keys and values may mention dead edges) and GC hooks run so
        consumers drop node-keyed caches of their own.
        """
        level, lo, hi = self._level, self._lo, self._hi
        # Slots from ``_top`` on are spare.
        used = self._top
        marked = bytearray(used)
        marked[0] = 1  # the terminal
        live: List[int] = []
        stack: List[int] = list(self._extref)
        for edge in roots:
            stack.append(edge >> 1)
        while stack:
            i = stack.pop()
            if marked[i]:
                continue
            marked[i] = 1
            live.append(i)
            stack.append(lo[i] >> 1)
            stack.append(hi[i] >> 1)
        reclaimed = self._live - 1 - len(live)  # `_live` counts the terminal
        self._gc_collections += 1
        if reclaimed:
            free_level = self._FREE_LEVEL
            unique = self._unique
            rebuild = reclaimed * 2 >= len(unique)
            if rebuild:
                self._unique = type(unique)(
                    ((level[i] << LEVEL_SHIFT) | (lo[i] << EDGE_BITS) | hi[i], i)
                    for i in live
                )
            # Every run of unmarked slots is dead (or already free), and is
            # cleared with one slice assignment per vector.  Runs below the
            # last live slot are free-listed; the trailing run is trimmed
            # back into the spare slots.
            end = marked.rfind(1) + 1
            free: List[int] = []
            start = marked.find(0)
            while start >= 0:
                stop = marked.find(1, start)
                if stop < 0:
                    stop = used
                if not rebuild:
                    for node_level, node_lo, node_hi in zip(
                        level[start:stop], lo[start:stop], hi[start:stop]
                    ):
                        if node_level != free_level:
                            del unique[
                                (node_level << LEVEL_SHIFT) | (node_lo << EDGE_BITS) | node_hi
                            ]
                size = stop - start
                zeros = array("q", bytes(8 * size))
                level[start:stop] = array("q", [free_level]) * size
                lo[start:stop] = zeros
                hi[start:stop] = zeros
                if stop < end:
                    free.extend(range(start, stop))
                start = marked.find(0, stop)
            # Descending, so `pop()` hands out the lowest slot first.
            free.reverse()
            self._free = free
            self._top = end
            self._live -= reclaimed
            self._gc_reclaimed += reclaimed
            self._drop_op_caches()
            for hook in self._gc_hooks:
                hook()
        if self._debug_checks:
            self._debug_validate()
        return reclaimed

    def maybe_collect(self, roots: Iterable[int] = ()) -> bool:
        """Collect at a safe point if a growth trigger fired; True if collected.

        The node-table trigger compares the live count against
        ``gc_threshold`` and, after a collection, grows geometrically with
        the surviving live set so mostly-live tables do not thrash.

        Safe points also enforce the cooperative limits: an armed deadline
        is checked unconditionally, and a node budget that remains exceeded
        *after* a sweep (the retained live set alone is over budget) raises
        :class:`repro.errors.NodeBudgetExceeded`.
        """
        if self._deadline is not None:
            self._check_deadline()
        if self._live >= self._gc_threshold:
            self.collect_garbage(roots)
            self._gc_threshold = max(self._gc_floor, int(self._live * self._gc_growth))
            if self._node_budget is not None:
                self._gc_threshold = min(
                    self._gc_threshold, max(1024, self._node_budget // 2)
                )
                if self._live > self._node_budget:
                    raise NodeBudgetExceeded(
                        consumed=self._live, budget=self._node_budget
                    )
            return True
        if self._debug_checks:
            # No collection ran, but the caller still promised a safe point
            # (every live edge enumerable): the invariants must hold here.
            self._debug_validate()
        return False

    def _drop_op_caches(self) -> None:
        self._and_cache.clear()
        self._xor_cache.clear()
        self._ite_cache.clear()
        self._exists_cache.clear()
        self._and_exists_cache.clear()
        self._rename_cache.clear()
        self._restrict_cache.clear()

    # ------------------------------------------------------------------
    # Kernel sanitizer (debug_checks)
    # ------------------------------------------------------------------
    def _unique_key(self, index: int) -> int:
        """The packed unique-table key the node at ``index`` must be filed under."""
        return (
            (self._level[index] << LEVEL_SHIFT)
            | (self._lo[index] << EDGE_BITS)
            | self._hi[index]
        )

    def _debug_cache_edges(self):
        """Decode the packed cache keys back into their signed edges.

        The encodings mirror the cache writers exactly: ``and``/``xor`` pack
        ``(f << 24) | g``, ``ite`` packs the operand triple, the quantifier
        and rename/restrict caches pack the interned object's uid above the
        edge field.
        """
        mask = (1 << EDGE_BITS) - 1
        for key, result in self._and_cache.items():
            yield "and", key >> EDGE_BITS
            yield "and", key & mask
            yield "and", result
        for key, result in self._xor_cache.items():
            yield "xor", key >> EDGE_BITS
            yield "xor", key & mask
            yield "xor", result
        for key, result in self._ite_cache.items():
            yield "ite", key >> (2 * EDGE_BITS)
            yield "ite", (key >> EDGE_BITS) & mask
            yield "ite", key & mask
            yield "ite", result
        for key, result in self._exists_cache.items():
            yield "exists", key & mask
            yield "exists", result
        for key, result in self._and_exists_cache.items():
            yield "and_exists", (key >> EDGE_BITS) & mask
            yield "and_exists", key & mask
            yield "and_exists", result
        for key, result in self._rename_cache.items():
            yield "rename", key & mask
            yield "rename", result
        for key, result in self._restrict_cache.items():
            yield "restrict", key & mask
            yield "restrict", result

    def _debug_validate(self) -> None:
        """Cross-check every node-store invariant; raise :class:`BddError`.

        Run at GC safe points when the manager was constructed with
        ``debug_checks=True`` (or ``REPRO_DEBUG_CHECKS=1``).  Checks, in
        order: node-vector shape and spare slots, free-list purity
        (free-marked slots and the free list are the same set, free slots
        carry no children), the live counter against the non-free slot
        count, unique-table completeness and key/slot agreement, the probe
        runs of the native kernel's tables (``_native.Table.validate``),
        per-node structural invariants (regular then-edge, reduction, level
        order, live children), external-reference validity, and
        operation-cache edge liveness.
        """
        level = self._level
        lo = self._lo
        hi = self._hi
        size = len(level)
        if not (len(lo) == size and len(hi) == size):
            raise BddError(
                "sanitizer: node vectors disagree on capacity "
                f"(level={size}, lo={len(lo)}, hi={len(hi)})"
            )
        capacity = self._top
        if not 0 <= capacity <= size:
            raise BddError(
                f"sanitizer: _top {capacity} is past the node vectors ({size} slots)"
            )
        if max(self._free, default=0) >= capacity:
            raise BddError(f"sanitizer: a spare slot past _top {capacity} is on the free list")
        spare = size - capacity
        if (
            level[capacity:] != array("q", [self._FREE_LEVEL]) * spare
            or lo[capacity:].count(0) != spare
            or hi[capacity:].count(0) != spare
        ):
            raise BddError(
                f"sanitizer: a spare slot past _top {capacity} has a level or children"
            )
        if level[0] != self._TERMINAL_LEVEL or lo[0] or hi[0]:
            raise BddError("sanitizer: terminal slot 0 was overwritten")
        free_level = self._FREE_LEVEL
        free_slots = set()
        for index in range(1, capacity):
            if level[index] == free_level:
                if lo[index] or hi[index]:
                    raise BddError(
                        f"sanitizer: free slot {index} has dangling children"
                    )
                free_slots.add(index)
        if len(self._free) != len(set(self._free)):
            raise BddError("sanitizer: duplicate slots on the free list")
        if set(self._free) != free_slots:
            raise BddError(
                "sanitizer: free list does not match the free-marked "
                f"slots (listed={len(self._free)}, marked={len(free_slots)})"
            )
        # Slot 0, the terminal, counts as live.
        live = capacity - len(free_slots)
        if live != self._live:
            raise BddError(
                f"sanitizer: live counter {self._live} != {live} non-free slots"
            )
        # Each entry's key is its node's key, so the entries are distinct
        # nodes, and counting them checks completeness.
        for key, index in self._unique.items():
            if not 0 < index < capacity or level[index] == free_level:
                raise BddError(
                    f"sanitizer: unique table maps {key!r} to dead slot {index}"
                )
            if key != self._unique_key(index):
                raise BddError(
                    f"sanitizer: unique key {key!r} does not match node {index}"
                )
        filed = len(self._unique)
        if filed != live - 1:
            raise BddError(
                f"sanitizer: unique table holds {filed} entries "
                f"for {live - 1} live decision nodes"
            )
        if self._native is not None:
            for name, table in (
                ("unique", self._unique),
                ("and", self._and_cache),
                ("exists", self._exists_cache),
                ("and_exists", self._and_exists_cache),
                ("rename", self._rename_cache),
                ("restrict", self._restrict_cache),
            ):
                try:
                    table.validate()
                except ValueError as error:
                    raise BddError(f"sanitizer: {name} table: {error}") from None
        num_levels = len(self._var_names)
        for index in range(1, capacity):
            node_level = level[index]
            if node_level == free_level:
                continue
            if not 0 <= node_level < num_levels:
                raise BddError(
                    f"sanitizer: node {index} has out-of-range level {node_level}"
                )
            if hi[index] & 1:
                raise BddError(
                    f"sanitizer: node {index} stores a complemented then-edge"
                )
            if lo[index] == hi[index]:
                raise BddError(f"sanitizer: node {index} is unreduced (lo == hi)")
            for child in (lo[index], hi[index]):
                child_index = child >> 1
                if not 0 <= child_index < capacity or level[child_index] == free_level:
                    raise BddError(
                        f"sanitizer: node {index} points at dead child edge {child}"
                    )
                if child_index and level[child_index] <= node_level:
                    raise BddError(
                        f"sanitizer: node {index} (level {node_level}) violates "
                        f"the level order via child {child_index}"
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
                raise BddError(
                    f"sanitizer: {op} cache mentions dead edge {edge}"
                )

    # ------------------------------------------------------------------
    # Maintenance / statistics
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Reset the run's caches, statistics and GC bookkeeping.

        Drops all operation caches (the node table and external references
        are kept), zeroes the hit/miss and GC counters, restores the GC
        trigger to its configured floor and re-bases the peak-node watermark
        at the current live count — so statistics snapshots taken after a
        clear describe only the work since the clear.
        """
        self._drop_op_caches()
        self.reset_stats()
        self._gc_threshold = self._gc_floor
        self._gc_collections = 0
        self._gc_reclaimed = 0
        self._peak_live = self._live

    def reset_stats(self) -> None:
        """Zero every hit/miss counter (cache contents are untouched)."""
        for op in self._hits:
            self._hits[op] = 0
            self._misses[op] = 0
        self._rename_fast = 0
        self._rename_slow = 0

    def stats(self) -> Dict[str, object]:
        """Operation counters, cache hit rates, table sizes and GC counters.

        ``nodes`` is the current *live* node count, ``peak_nodes`` the
        watermark since construction or the last :meth:`clear_caches`, and
        ``capacity`` the used slot count ``_top`` (live + free-listed; the
        spare slots past it are not counted).
        """
        ops: Dict[str, Dict[str, float]] = {}
        for op in self._hits:
            hits = self._hits[op]
            misses = self._misses[op]
            total = hits + misses
            ops[op] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": (hits / total) if total else 0.0,
            }
        cache_sizes = {
            "and": len(self._and_cache),
            "xor": len(self._xor_cache),
            "ite": len(self._ite_cache),
            "exists": len(self._exists_cache),
            "and_exists": len(self._and_exists_cache),
            "rename": len(self._rename_cache),
            "restrict": len(self._restrict_cache),
        }
        return {
            "store": self.STORE,
            "kernel": "python" if self._native is None else "native",
            "nodes": self._live,
            "peak_nodes": self._peak_live,
            "capacity": self._top,
            "vars": len(self._var_names),
            "quant_cubes": len(self._cube_table),
            "rename_maps": len(self._rename_table),
            "rename_fast_path": self._rename_fast,
            "rename_fallback": self._rename_slow,
            "ops": ops,
            "cache_sizes": cache_sizes,
            "gc": {
                "threshold": self._gc_threshold,
                "collections": self._gc_collections,
                "reclaimed": self._gc_reclaimed,
                "external_roots": len(self._extref),
                "free_slots": len(self._free),
            },
            "limits": {
                "node_budget": self._node_budget,
                "deadline_armed": self._deadline is not None,
            },
            "debug_checks": self._debug_checks,
        }


class _RenameMap:
    """An interned variable mapping (identity-hashed cache key).

    Used both for rename maps (level -> level) and restrict assignments
    (level -> bool); interning makes the map a cheap cross-call cache-key
    component, and ``uid`` is the per-manager integer the owning manager
    assigns at intern time to pack it into integer cache keys.

    ``table`` holds the map as one flat int64 vector, which both kernels
    read: entry ``l`` is the image of level ``l`` — its rename target, or
    the fixed value (0/1) of a restricted level — and ``-1`` marks a rename
    *clash* level (a target that is not also a source) or a free restrict
    level.  Levels past the end are unmoved (rename) or free (restrict).
    """

    __slots__ = ("uid", "table")

    def __init__(self, uid: int, table: array) -> None:
        self.uid = uid
        self.table = table

    @classmethod
    def for_rename(cls, mapping: Dict[int, int], uid: int) -> "_RenameMap":
        clashes = set(mapping.values()) - mapping.keys()
        table = array("q", range(max(mapping.keys() | clashes) + 1))
        for src, dst in mapping.items():
            table[src] = dst
        for level in clashes:
            table[level] = -1
        return cls(uid, table)

    @classmethod
    def for_restrict(cls, fixed: Dict[int, bool], uid: int) -> "_RenameMap":
        table = array("q", [-1]) * (max(fixed) + 1)
        for level, value in fixed.items():
            table[level] = value
        return cls(uid, table)

    def __repr__(self) -> str:
        return f"_RenameMap({self.table.tolist()})"


def _build_native(source: str, target: str) -> None:
    """Compile ``source`` into the extension ``target``, atomically.

    Uses the interpreter's own compiler and flags (``sysconfig``) and
    renames the finished file into place, so a concurrent first import
    never loads a half-written one.
    """
    import subprocess
    import sysconfig
    import tempfile

    fd, partial = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".partial")
    os.close(fd)
    try:
        command = (
            sysconfig.get_config_var("LDSHARED").split()
            + sysconfig.get_config_var("CFLAGS").split()
            + sysconfig.get_config_var("CCSHARED").split()
            + ["-I", sysconfig.get_paths()["include"], source, "-o", partial]
        )
        subprocess.run(command, check=True, capture_output=True, timeout=300)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _load_native():
    """Import the native apply loop, building it first if needed.

    The build is cached in ``__pycache__/`` under a name that carries the
    source hash and the interpreter's extension suffix, so only the first
    import after an edit of ``_native.c`` compiles.  Returns None when the
    build or the load fails; the Python kernel then runs.
    """
    import hashlib
    import importlib.machinery
    import importlib.util

    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(here, "_native.c")
    try:
        with open(source, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()[:16]
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        target = os.path.join(here, "__pycache__", f"_native-{digest}{suffix}")
        if not os.path.exists(target):
            os.makedirs(os.path.dirname(target), exist_ok=True)
            _build_native(source, target)
        loader = importlib.machinery.ExtensionFileLoader(f"{__package__}._native", target)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(loader.name, loader, origin=target)
        )
        loader.exec_module(module)
        module.bind(globals())
        return module
    except Exception as error:  # any failure leaves the Python kernel running
        detail = getattr(error, "stderr", None) or b""
        warnings.warn(
            "native BDD apply loop unavailable, the Python kernel runs: "
            f"{error} {detail.decode(errors='replace')}".rstrip(),
            RuntimeWarning,
        )
        return None


#: The native apply loop, or None when it could not be built or loaded.
_native = _load_native()
