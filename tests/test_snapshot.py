"""Tests for shared-memory snapshots of solved BDD node tables.

The load-bearing properties:

* **Canonicity across the boundary** — rebuilding a frozen function inside a
  :class:`SnapshotOverlayManager` yields the *identical signed edge*: the
  overlay's ``_mk`` probes the frozen unique table before allocating, so
  base hits never materialise as fresh tail nodes and ``result == TRUE``
  stays a sound verdict check.
* **Differential identity** — verdicts, iteration counts and model counts
  answered through a snapshot attach equal the live session's, on every
  sequential algorithm, with the handle round-tripped through pickle (it
  crosses process boundaries in the service path).
* **Lifecycle** — attachers never unlink, owners always do: the daemon's
  drain and a worker SIGKILL must all
  leave ``/dev/shm`` free of ``repro-snap-*`` segments; ``unlink`` is
  idempotent.
* **Budget equivalence** — ``NodeBudgetExceeded`` fires on *live* nodes: a
  post-GC table with large capacity but few live slots must not trip a
  budget its live set fits in.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import signal
import time

import pytest

from repro.api import AnalysisSession
from repro.algorithms import SEQUENTIAL_ALGORITHMS
from repro.bdd import BddManager, SnapshotOverlayManager, SnapshotView
from repro.bdd import snapshot as bdd_snapshot
from repro.bdd.manager import BddError
from repro.boolprog import parse_program
from repro.errors import NodeBudgetExceeded
from repro.frontends import resolve_target
from repro.service import AnalysisDaemon, DaemonConfig
from repro.testing import faults

ALGORITHMS = sorted(SEQUENTIAL_ALGORITHMS)

PROGRAM = """
decl g;
main() begin
  decl x;
  x := *;
  call set_flag(x);
  if (g) then yes: skip; fi
  if (!g) then no_g: skip; fi
  if (g & !g) then never: skip; fi
  done: skip;
end
set_flag(v) begin
  g := v;
  if (!v) then cold: skip; fi
end
"""

TARGETS = ["main:yes", "main:no_g", "main:never", "set_flag:cold", "main:done"]
EXPECTED = [True, True, False, True, True]


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    """Every test must leave /dev/shm exactly as it found it."""
    before = set(bdd_snapshot.list_segments())
    yield
    faults.clear()
    leaked = set(bdd_snapshot.list_segments()) - before
    for name in leaked:  # clean up so one failure doesn't cascade
        bdd_snapshot.unlink(name)
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _ripple(mgr, bits=6):
    """A mid-sized function with shared structure: sum-parity of two words."""
    node = mgr.TRUE
    carry = mgr.FALSE
    for i in range(bits):
        a = mgr.var(f"a{i}")
        b = mgr.var(f"b{i}")
        node = mgr.and_(node, mgr.xor(mgr.xor(a, b), carry))
        carry = mgr.or_(mgr.and_(a, b), mgr.and_(carry, mgr.xor(a, b)))
    return mgr.and_(node, mgr.not_(carry))


class TestKernelSnapshot:
    def _frozen(self, bits=6):
        names = [f"a{i}" for i in range(bits)] + [f"b{i}" for i in range(bits)]
        mgr = BddManager(names)
        f = mgr.ref(_ripple(mgr, bits))
        mgr.collect_garbage()
        expected_count = mgr.count_sat(f)
        name = bdd_snapshot.freeze(mgr)
        return mgr, f, expected_count, name

    def test_canonical_rebuild_yields_identical_edges(self):
        mgr, f, expected_count, name = self._frozen()
        try:
            with SnapshotView(name) as view:
                overlay = SnapshotOverlayManager(view)
                # The chained base/tail store always runs the Python kernel.
                assert overlay.stats()["kernel"] == "python"
                baseline = overlay.stats()["snapshot"]["overlay_nodes"]
                f2 = _ripple(overlay)
                # Intermediates (swept out of the frozen image) re-allocate
                # in the tail, but the result is found in the frozen unique
                # table: the identical signed edge, across the boundary.
                assert f2 == f
                assert (f2 >> 1) < view.capacity
                assert overlay.count_sat(f2) == expected_count
                # A sweep rooted at the result drops every tail residue.
                overlay.collect_garbage(roots=(f2,))
                assert overlay.stats()["snapshot"]["overlay_nodes"] == baseline
        finally:
            assert bdd_snapshot.unlink(name) is True

    def test_count_on_frozen_root_matches_freezer(self):
        mgr, f, expected_count, name = self._frozen()
        try:
            with SnapshotView(name) as view:
                overlay = SnapshotOverlayManager(view)
                # Base-rooted: the count walks the shared image.
                assert overlay.count_sat(f) == expected_count
                # Complement edge and restricted-variable counts too.
                assert overlay.count_sat(f ^ 1) == (1 << mgr.num_vars) - expected_count
                support = overlay.support(f)
                assert overlay.count_sat(f, sorted(support)) == mgr.count_sat(
                    f, sorted(mgr.support(f))
                )
        finally:
            bdd_snapshot.unlink(name)

    def test_overlay_gc_is_tail_only(self):
        mgr, f, _, name = self._frozen()
        try:
            with SnapshotView(name) as view:
                overlay = SnapshotOverlayManager(view)
                baseline = overlay.stats()["snapshot"]["overlay_nodes"]
                base_image = (bytes(view.level), bytes(view.lo), bytes(view.hi))
                # Allocate overlay-only garbage: a fresh variable ordering
                # pattern the base never built.
                junk = overlay.conjoin(
                    overlay.xor(overlay.var(f"a{i}"), overlay.var(f"b{(i + 3) % 6}"))
                    for i in range(6)
                )
                assert overlay.stats()["snapshot"]["overlay_nodes"] > baseline
                reclaimed = overlay.collect_garbage(roots=(f,))
                assert reclaimed > 0
                assert overlay.stats()["snapshot"]["overlay_nodes"] == baseline
                # The frozen image is untouched — tail-only sweep.
                assert (bytes(view.level), bytes(view.lo), bytes(view.hi)) == base_image
                # The manager still answers from the (immortal) base.
                assert overlay.count_sat(f) == mgr.count_sat(f)
                del junk
        finally:
            bdd_snapshot.unlink(name)

    def test_freeze_copies_only_used_slots(self):
        # A swept manager keeps the spare slots past `_top`; the image holds
        # exactly the used ones and every frozen edge resolves through it.
        mgr, f, expected_count, name = self._frozen()
        try:
            capacity = mgr.stats()["capacity"]
            assert capacity == mgr._top < len(mgr._level)
            with SnapshotView(name) as view:
                assert view.capacity == capacity
                assert len(view.level) == len(view.lo) == len(view.hi) == capacity
                assert view.level.tolist() == mgr._level[:capacity].tolist()
                overlay = SnapshotOverlayManager(view, debug_checks=True)
                for index in range(1, capacity):
                    level = mgr._level[index]
                    if level == mgr._FREE_LEVEL:
                        continue
                    edge = overlay._mk(level, mgr._lo[index], mgr._hi[index])
                    assert edge == index << 1
                assert overlay.stats()["capacity"] == capacity
                assert overlay.count_sat(f) == expected_count
                overlay.collect_garbage([])
        finally:
            bdd_snapshot.unlink(name)

    def test_overlay_tail_grows_by_the_shared_rule(self):
        _, _, _, name = self._frozen()
        try:
            with SnapshotView(name) as view:
                overlay = SnapshotOverlayManager(view, debug_checks=True)
                sizes = []
                grow = overlay._grow

                def spy():
                    sizes.append(len(overlay._level.tail))
                    grow()

                overlay._grow = spy
                junk = overlay.ref(
                    overlay.conjoin(
                        overlay.xor(overlay.var(f"a{i}"), overlay.var(f"b{5 - i}"))
                        for i in range(6)
                    )
                )
                # The first tail node grows the empty tail once, by 1024.
                assert sizes == [0]
                assert len(overlay._level.tail) == 1024
                assert overlay._top == view.capacity + overlay._live - 1
                overlay.deref(junk)
                overlay.collect_garbage([])
                assert overlay._top == view.capacity
        finally:
            bdd_snapshot.unlink(name)

    def test_freeze_rejects_overlays(self):
        _, f, _, name = self._frozen()
        try:
            with SnapshotView(name) as view:
                overlay = SnapshotOverlayManager(view)
                with pytest.raises(BddError, match="overlay"):
                    bdd_snapshot.freeze(overlay)
        finally:
            bdd_snapshot.unlink(name)

    def test_unlink_is_idempotent(self):
        _, _, _, name = self._frozen()
        assert bdd_snapshot.unlink(name) is True
        assert bdd_snapshot.unlink(name) is False

    def test_view_rejects_incompatible_segment(self):
        from multiprocessing import shared_memory

        name = bdd_snapshot.segment_name()
        shm = shared_memory.SharedMemory(create=True, size=256, name=name)
        try:
            shm.buf[:8] = b"\x00" * 8
            with pytest.raises(BddError, match="not a compatible snapshot"):
                SnapshotView(name)
        finally:
            shm.close()
            shm.unlink()


class TestSessionSnapshot:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_round_trip_verdicts_through_pickle(self, algorithm):
        program = parse_program(PROGRAM)
        locations = [resolve_target(program, target) for target in TARGETS]
        with AnalysisSession(program, default_algorithm=algorithm) as session:
            session.solve(algorithm)
            live = session.check_all(locations, algorithm=algorithm)
            handle = session.freeze(algorithm)
        try:
            # The handle crosses process boundaries as plain data; the node
            # table never leaves the segment.
            handle = pickle.loads(pickle.dumps(handle))
            attached = AnalysisSession.from_snapshot(handle)
            try:
                reused = attached.check_all(locations, algorithm=algorithm)
            finally:
                attached.close()
        finally:
            assert handle.unlink() is True
        assert [r.reachable for r in live] == EXPECTED
        for live_result, snap_result in zip(live, reused):
            assert snap_result.reachable == live_result.reachable
            assert snap_result.iterations == live_result.iterations
            assert snap_result.details["reused_solve"]
            assert snap_result.summary_states == live_result.summary_states

    def test_attach_survives_nondet_choice_bits(self):
        # A `*` expression lazily allocates auxiliary __choice bits in the
        # freezer's manager; the frozen order therefore mentions levels the
        # re-encoded system never declares.  Attach must tolerate them
        # (regression: the overlay backend rejected the order outright and
        # the worker silently fell back to a cold re-solve).
        source = """\
decl g;
main() begin
    g := *;
    if (g) then maybe: skip; fi
end
"""
        program = parse_program(source)
        location = resolve_target(program, "main:maybe")
        with AnalysisSession(program) as session:
            session.solve("summary")
            live = session.check(location, algorithm="summary")
            handle = session.freeze("summary")
        try:
            attached = AnalysisSession.from_snapshot(handle)
            try:
                reused = attached.check(location, algorithm="summary")
            finally:
                attached.close()
        finally:
            assert handle.unlink() is True
        assert reused.reachable == live.reachable
        assert reused.details["reused_solve"]

    def test_freeze_requires_a_solved_state(self):
        with AnalysisSession(parse_program(PROGRAM)) as session:
            with pytest.raises(RuntimeError, match="solve"):
                session.freeze("summary")


class TestServiceSnapshot:
    def test_catalog_survives_worker_kill_without_resolving(self):
        async def scenario():
            daemon = AnalysisDaemon(
                DaemonConfig(workers=1, snapshots=True, retry_backoff=0.01)
            )
            await daemon.start()
            try:
                request = {
                    "op": "query",
                    "name": "snap",
                    "program": PROGRAM,
                    "target": "main:yes",
                }
                first = await daemon.handle_request(dict(request))
                published = daemon.metrics()
                victim = daemon._pool._handles[0].pid
                os.kill(victim, signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while daemon._pool._handles[0].pid == victim:
                    if time.monotonic() > deadline:
                        break
                    await asyncio.sleep(0.02)
                second = await daemon.handle_request(
                    {**request, "id": "after-kill", "target": "main:no_g"}
                )
                return first, published, second, daemon.metrics()
            finally:
                await daemon.shutdown(drain=False)

        first, published, second, metrics = asyncio.run(scenario())
        assert first["ok"] and first["reachable"] is True
        assert published["counters"]["snapshots_published"] == 1
        assert published["snapshots"]["catalog"] == 1
        # The rebuilt worker attached the catalogued segment: the verdict
        # arrives as a warm post-pass with the solve count unchanged.
        assert second["ok"] and second["reachable"] is True
        assert second.get("warm") is True
        assert second.get("snapshot_attached") is True
        assert metrics["counters"]["snapshot_attaches"] == 1
        assert metrics["counters"]["solves"] == 1
        # The drain (the autouse fixture asserts /dev/shm is clean) ran in
        # scenario's finally; the catalog must be empty afterwards.
        assert not bdd_snapshot.list_segments()

    def test_snapshots_disabled_by_default(self):
        async def scenario():
            daemon = AnalysisDaemon(DaemonConfig(workers=0))
            await daemon.start()
            try:
                response = await daemon.handle_request(
                    {"op": "query", "program": PROGRAM, "target": "main:yes"}
                )
                return response, daemon.metrics()
            finally:
                await daemon.shutdown(drain=False)

        response, metrics = asyncio.run(scenario())
        assert response["ok"] and response["reachable"] is True
        assert metrics["counters"]["snapshots_published"] == 0
        assert metrics["snapshots"]["enabled"] is False


class TestBudgetEquivalence:
    def _churn(self, mgr, rounds=40, bits=8):
        """Allocate then abandon BDDs so capacity outgrows live nodes."""
        for round_ in range(rounds):
            acc = mgr.FALSE
            for i in range(bits):
                term = mgr.and_(
                    mgr.var(f"a{i}"),
                    mgr.xor(mgr.var(f"b{i}"), mgr.var(f"a{(i + round_) % bits}")),
                )
                acc = mgr.or_(acc, term)
        return acc

    def test_budget_counts_live_slots_not_capacity(self):
        names = [f"a{i}" for i in range(8)] + [f"b{i}" for i in range(8)]
        mgr = BddManager(names)
        self._churn(mgr)
        mgr.collect_garbage()
        live = mgr.stats()["nodes"]
        peak = mgr.stats()["peak_nodes"]
        assert peak > live  # the churn left real headroom to misaccount
        # A budget between live and peak must NOT trip: only live slots
        # count, never the high-water table capacity.
        mgr.set_node_budget(live + 16)
        small = mgr.and_(mgr.var("a0"), mgr.var("b0"))
        assert small != mgr.FALSE
        # And it must still trip once live genuinely exceeds it.
        with pytest.raises(NodeBudgetExceeded) as excinfo:
            self._churn(mgr, rounds=80)
        assert excinfo.value.consumed > excinfo.value.budget

    def test_trip_point_is_the_first_allocation_past_the_budget(self):
        names = [f"a{i}" for i in range(8)] + [f"b{i}" for i in range(8)]
        mgr = BddManager(names)
        mgr.set_node_budget(64)
        with pytest.raises(NodeBudgetExceeded) as excinfo:
            self._churn(mgr)
        assert (excinfo.value.consumed, excinfo.value.budget) == (65, 64)
