"""Fault-injection tests for the batch path's recovery rules.

Each test drives one production failure surface with a deterministic
:class:`~repro.testing.faults.FaultPlan`:

* a pool worker killed mid-batch (transient → the query re-runs once on a
  rebuilt worker; persistent → ``crashed`` after the second death, with
  innocent queries still answered),
* a query overrunning the driver-side timeout (stuck worker replaced),
* an injected raise at a GC safe point (typed resource error),
* kills reaching the driver's sequential path (must be inert).

The invariant throughout: verdicts of the surviving/retried shards are
identical to a clean run — fault tolerance must never change answers.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.algorithms import run_batch
from repro.errors import NodeBudgetExceeded, ResourceExhausted
from repro.frontends import check_reachability
from repro.parallel import BatchQuery, run_shards
from repro.testing import FaultPlan, faults

POSITIVE = """
decl g;
main() begin
  g := T;
  if (g) then target: skip; fi
end
"""

NEGATIVE = """
decl g;
main() begin
  g := F;
  if (g) then target: skip; fi
end
"""


def two_program_batch():
    """Two groups (distinct programs), so one can fail while the other runs."""
    return [
        BatchQuery(name="p", program=POSITIVE, target="main:target", expected=True),
        BatchQuery(name="n", program=NEGATIVE, target="main:target", expected=False),
    ]


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    faults.clear()


class TestFaultPlan:
    def test_plan_is_picklable(self):
        # Plans cross the pool boundary inside the worker entry call.
        plan = FaultPlan(kill_query="p", once_token="/tmp/t", exhaust_algorithms=("ef",))
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_hooks_are_noops_without_a_plan(self):
        faults.clear()
        faults.on_shard(["anything"])
        faults.on_safe_point()
        faults.on_query("ef-opt")


class TestWorkerKill:
    def test_transient_kill_is_retried_with_identical_verdicts(self, tmp_path):
        queries = two_program_batch()
        clean = run_batch(queries, jobs=2)
        assert not clean.failures()
        plan = FaultPlan(kill_query="p", once_token=str(tmp_path / "latch"))
        results, mode, _ = run_shards(queries, jobs=2, fault_plan=plan)
        assert mode == "process-pool"
        by_name = {shard.name: shard for shard in results}
        # The killed shard was re-run on a rebuilt worker, not lost: its
        # verdict matches the clean run and its status records the retry.
        assert by_name["p"].status == "retried"
        assert by_name["p"].retries >= 1
        verdicts = {shard.name: shard.result.reachable for shard in results}
        assert verdicts == clean.verdicts()
        assert not any(shard.mismatch for shard in results)

    def test_persistent_crasher_is_quarantined_not_fatal(self):
        queries = two_program_batch()
        plan = FaultPlan(kill_query="p")  # no latch: crashes on every attempt
        results, mode, _ = run_shards(queries, jobs=2, fault_plan=plan)
        assert mode == "process-pool"
        by_name = {shard.name: shard for shard in results}
        # Retry-once: the first death re-runs the query, the second convicts.
        assert by_name["p"].status == "crashed"
        assert "WorkerCrashed" in by_name["p"].error
        assert by_name["p"].retries == 1
        # The innocent shard still produced its verdict.
        assert by_name["n"].ok and by_name["n"].result.reachable is False

    def test_kill_is_inert_in_the_driver(self):
        # The same plan on the sequential path must not take the driver down:
        # kills only fire in processes installed as pool workers.
        queries = two_program_batch()
        results, mode, _ = run_shards(queries, jobs=1, fault_plan=FaultPlan(kill_query="p"))
        assert mode == "sequential"
        assert [shard.result.reachable for shard in results] == [True, False]
        assert all(shard.pid == os.getpid() for shard in results)


class TestShardTimeout:
    def test_stuck_shard_is_quarantined_as_timeout(self):
        queries = two_program_batch()
        plan = FaultPlan(delay_query="p", delay_seconds=30.0)
        started = time.perf_counter()
        results, mode, _ = run_shards(
            queries, jobs=2, shard_timeout=0.5, fault_plan=plan
        )
        elapsed = time.perf_counter() - started
        assert mode == "process-pool"
        by_name = {shard.name: shard for shard in results}
        assert by_name["p"].status == "timeout"
        assert by_name["p"].error_detail["resource"] == "wall-clock"
        assert by_name["n"].ok and by_name["n"].result.reachable is False
        # The stuck worker was terminated, not joined: the batch returns in
        # driver-timeout time, nowhere near the injected 30s delay.
        assert elapsed < 15.0

    def test_timeout_statuses_surface_in_the_report(self):
        report = run_batch(
            two_program_batch(),
            jobs=2,
            shard_timeout=0.5,
            fault_plan=FaultPlan(delay_query="p", delay_seconds=30.0),
        )
        assert [shard.name for shard in report.resource_failures()] == ["p"]
        assert report.status_counts()["timeout"] == 1
        assert "ERROR[timeout]" in report.format_table()


class TestInjectedFailures:
    def test_injected_raise_fails_only_its_group(self):
        queries = two_program_batch()
        results, _, _ = run_shards(queries, jobs=1, fault_plan=FaultPlan(fail_query="p"))
        by_name = {shard.name: shard for shard in results}
        assert by_name["p"].status == "crashed"
        assert "injected shard failure" in by_name["p"].error
        assert by_name["n"].ok

    def test_safe_point_injection_raises_typed_errors(self):
        faults.install(FaultPlan(raise_at_safe_point=1, safe_point_error="nodes"))
        with pytest.raises(NodeBudgetExceeded):
            check_reachability(POSITIVE, target="main:target", algorithm="ef")
        # install() resets the safe-point counter; a fresh plan fires again.
        faults.install(FaultPlan(raise_at_safe_point=1, safe_point_error="timeout"))
        with pytest.raises(ResourceExhausted) as info:
            check_reachability(POSITIVE, target="main:target", algorithm="ef")
        assert info.value.resource == "wall-clock"
        faults.clear()
        assert check_reachability(POSITIVE, target="main:target", algorithm="ef").reachable

    def test_safe_point_injection_counts_to_the_nth_point(self):
        # A large index is never reached on this tiny program: no raise.
        faults.install(FaultPlan(raise_at_safe_point=10_000))
        result = check_reachability(POSITIVE, target="main:target", algorithm="ef")
        assert result.reachable

    def test_transient_fail_query_latches_on_once_token(self, tmp_path):
        # fail_query honors once_token the same way the kill does: the
        # first on_shard raises, the second passes — the primitive behind
        # every "transient failure, retry succeeds" test.
        token = tmp_path / "latch"
        faults.install(FaultPlan(fail_query="p", once_token=str(token)))
        with pytest.raises(RuntimeError, match="injected shard failure"):
            faults.on_shard(["p"])
        assert token.exists()
        faults.on_shard(["p"])  # latched: no second raise


DRIVER_KILL_SCRIPT = """
import os, sys, time
sys.path.insert(0, {src!r})
from repro.parallel import BatchQuery, run_shards
from repro.testing.faults import FaultPlan

POSITIVE = {positive!r}
NEGATIVE = {negative!r}

queries = [
    BatchQuery(name="p", program=POSITIVE, target="main:target"),
    BatchQuery(name="n", program=NEGATIVE, target="main:target"),
]
# One group hangs in its worker far longer than the test runs, so the
# driver is guaranteed to be blocked mid-batch when the signal arrives.
plan = FaultPlan(delay_query="p", delay_seconds=120.0)
print("READY", flush=True)
try:
    run_shards(queries, jobs=2, fault_plan=plan)
except KeyboardInterrupt:
    print("INTERRUPTED", flush=True)
    sys.exit(0)
print("FINISHED", flush=True)
"""


class TestDriverSignalCleanup:
    """SIGTERM/SIGINT mid-batch must terminate the worker pool — no orphans."""

    def _children_of(self, pid):
        try:
            with open(f"/proc/{pid}/task/{pid}/children") as handle:
                return [int(tok) for tok in handle.read().split()]
        except OSError:
            return []

    @pytest.mark.parametrize("signum", [15, 2])  # SIGTERM, SIGINT
    def test_driver_kill_mid_batch_leaves_no_orphans(self, tmp_path, signum):
        import pathlib
        import signal as signal_module
        import subprocess
        import sys

        if not os.path.exists("/proc"):
            pytest.skip("requires /proc to enumerate child processes")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        script = DRIVER_KILL_SCRIPT.format(
            src=src, positive=POSITIVE, negative=NEGATIVE
        )
        driver = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            assert driver.stdout.readline().strip() == "READY"
            # Wait for the pool workers to exist and start their shards.
            workers = []
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                workers = self._children_of(driver.pid)
                if len(workers) >= 2:
                    break
                time.sleep(0.05)
            assert len(workers) >= 2, "pool workers never appeared"
            time.sleep(0.5)  # let the delayed shard enter its sleep
            driver.send_signal(signum)
            out, _ = driver.communicate(timeout=30)
        finally:
            if driver.poll() is None:
                driver.kill()
                driver.communicate()
        assert "INTERRUPTED" in out
        # Every worker the driver had spawned is gone: terminated by the
        # pool's finally-path teardown, then reaped — not orphaned to init
        # still holding a 120s sleep.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            alive = [pid for pid in workers if os.path.exists(f"/proc/{pid}")]
            if not alive:
                break
            time.sleep(0.1)
        assert not alive, f"orphaned worker processes survived: {alive}"
