"""Tests for the BDD kernel sanitizer (``BddManager(debug_checks=True)``).

Two directions:

* **Clean paths stay clean** — formula construction, explicit and triggered
  collection and rename/restrict/quantify all pass validation at every GC
  safe point; verdict-bearing workloads behave identically with the
  sanitizer armed.
* **Corruption is caught** — each invariant the sanitizer guards (live
  counter, free-list purity, spare slots past ``_top``, unique-table/
  node-vector agreement, the native tables' probe runs, the regular
  then-edge canonical form,
  external-reference liveness, op-cache edge liveness) has a test that
  injects exactly that corruption and asserts :class:`BddError` names it.
"""

from __future__ import annotations

import pytest

from repro.bdd import BddManager
from repro.bdd import manager as bdd_manager
from repro.bdd.manager import EDGE_BITS, BddError

VARS = [f"v{i}" for i in range(8)]


def make_manager(**kwargs):
    kwargs.setdefault("debug_checks", True)
    return BddManager(VARS, **kwargs)


def churn(mgr, rounds=6):
    """Build and drop structure so sweeps have something to reclaim."""
    f = mgr.TRUE
    for i in range(rounds):
        f = mgr.and_(f, mgr.xor(mgr.var(i % 8), mgr.nvar((i + 3) % 8)))
        mgr.or_(f, mgr.var((i + 1) % 8))
    return f


# ----------------------------------------------------------------------
# Clean paths
# ----------------------------------------------------------------------
def test_clean_lifecycle_validates():
    mgr = make_manager(gc_threshold=8)
    kept = mgr.ref(churn(mgr))
    assert mgr.collect_garbage([]) >= 0  # validates at the safe point
    assert not mgr.maybe_collect([kept]) or True  # either branch validates
    g = mgr.exists(kept, [0, 1])
    mgr.restrict(g, {2: True})
    mgr.collect_garbage([kept])
    mgr.deref(kept)
    mgr.collect_garbage([])
    assert mgr.stats()["debug_checks"] is True


def test_triggered_collection_validates():
    mgr = make_manager(gc_threshold=4, gc_growth=1.0)
    for _ in range(4):
        churn(mgr)
        assert mgr.maybe_collect([]) in (True, False)


def test_env_variable_enables_checks(monkeypatch):
    monkeypatch.setenv("REPRO_DEBUG_CHECKS", "1")
    assert BddManager(["a"])._debug_checks is True
    monkeypatch.setenv("REPRO_DEBUG_CHECKS", "0")
    assert BddManager(["a"])._debug_checks is False
    monkeypatch.delenv("REPRO_DEBUG_CHECKS")
    assert BddManager(["a"])._debug_checks is False
    # An explicit argument wins over the environment.
    monkeypatch.setenv("REPRO_DEBUG_CHECKS", "1")
    assert BddManager(["a"], debug_checks=False)._debug_checks is False


# ----------------------------------------------------------------------
# Corruption detection
# ----------------------------------------------------------------------
def test_detects_free_list_corruption():
    mgr = make_manager()
    node = mgr.and_(mgr.var(0), mgr.var(1))
    mgr._free.append(node >> 1)  # a live slot on the free list
    with pytest.raises(BddError, match="free list"):
        mgr._debug_validate()


def test_detects_the_terminal_on_the_free_list():
    mgr = make_manager()
    kept = mgr.ref(churn(mgr))
    mgr.collect_garbage([])  # a swept table with holes validates clean
    assert mgr._free
    mgr._free.append(0)  # the terminal slot can never be free
    with pytest.raises(BddError, match="free list does not match"):
        mgr._debug_validate()
    mgr._free.pop()
    mgr.deref(kept)
    mgr.collect_garbage([])


def test_detects_an_overwritten_terminal():
    mgr = make_manager()
    mgr.and_(mgr.var(0), mgr.var(1))
    mgr._level[0] = 0
    with pytest.raises(BddError, match="terminal slot 0 was overwritten"):
        mgr._debug_validate()


def test_detects_live_counter_drift():
    mgr = make_manager()
    mgr.and_(mgr.var(0), mgr.var(1))
    mgr._live += 1
    with pytest.raises(BddError, match="live counter"):
        mgr._debug_validate()


def test_detects_unique_table_mismatch():
    mgr = make_manager()
    mgr.and_(mgr.var(0), mgr.var(1))
    key = next(iter(mgr._unique))
    mgr._unique[key] = mgr._unique[key] + 1 if len(mgr._level) > 2 else 1
    with pytest.raises(BddError, match="unique"):
        mgr._debug_validate()


def test_detects_complemented_then_edge():
    mgr = make_manager()
    node = mgr.and_(mgr.var(0), mgr.var(1))
    mgr._hi[node >> 1] ^= 1  # break the attributed-edge canonical form
    with pytest.raises(BddError):
        mgr._debug_validate()


def test_detects_spare_slot_with_a_level_or_children():
    for vector, value in (("_level", 0), ("_lo", 2), ("_hi", 2)):
        mgr = make_manager()
        mgr.and_(mgr.var(0), mgr.var(1))
        assert mgr._top < len(mgr._level)
        getattr(mgr, vector)[mgr._top] = value
        with pytest.raises(BddError, match="spare slot .* has a level or children"):
            mgr._debug_validate()


def test_detects_spare_slot_on_the_free_list():
    mgr = make_manager()
    mgr.and_(mgr.var(0), mgr.var(1))
    mgr._free.append(len(mgr._level) - 1)
    with pytest.raises(BddError, match="spare slot .* is on the free list"):
        mgr._debug_validate()


def test_detects_top_past_the_vectors():
    mgr = make_manager()
    mgr.and_(mgr.var(0), mgr.var(1))
    mgr._top = len(mgr._level) + 1
    with pytest.raises(BddError, match="_top .* is past the node vectors"):
        mgr._debug_validate()


def test_detects_dangling_external_reference():
    mgr = make_manager()
    mgr._extref[len(mgr._level) + 3] = 1
    with pytest.raises(BddError, match="external reference"):
        mgr._debug_validate()


def test_detects_stale_cache_edge():
    mgr = make_manager(debug_checks=False)
    keep = mgr.ref(mgr.var(2))
    dead = mgr.and_(mgr.var(0), mgr.var(1))
    mgr.collect_garbage([])  # reclaims `dead`; `keep` pins its own slot
    mgr._and_cache[(dead << EDGE_BITS) | keep] = keep
    mgr._debug_checks = True
    with pytest.raises(BddError, match="cache mentions dead edge"):
        mgr._debug_validate()


@pytest.mark.skipif(bdd_manager._native is None, reason="no native kernel")
@pytest.mark.parametrize(
    "attr", ["_unique", "_and_cache", "_exists_cache", "_and_exists_cache",
             "_rename_cache", "_restrict_cache"]
)
def test_detects_a_native_table_entry_past_a_free_slot(attr):
    # The dict API cannot misplace an entry in a Table, so a dict copy whose
    # validate() fails as Table.validate() would stands in for a broken one.
    class Misplaced(dict):
        def validate(self):
            raise ValueError("Table entry in slot 3 lies 5 slots from its home, past a free slot")

    mgr = make_manager()
    kept = mgr.ref(mgr.and_exists(mgr.var(0), mgr.var(1), [0]))
    mgr.rename(mgr.restrict(kept, {2: True}), {"v1": "v7"})
    setattr(mgr, attr, Misplaced(getattr(mgr, attr).items()))
    name = attr.strip("_").removesuffix("_cache")
    with pytest.raises(BddError, match=f"{name} table: .* past a free slot"):
        mgr._debug_validate()
