"""Chaos tests for the analysis daemon over a real worker process pool.

The contract under fire: **every request gets a verdict or a typed error**
— never a hang, never a dropped connection, never an untyped traceback —
and every verdict the service produces is **identical to the offline batch
path** (``run_batch``), no matter which fault fired on the way: a worker
killed mid-request (failover retry), a deadline storm (typed exhaustion,
sessions stay usable), memory pressure forcing pool eviction (cold re-solve,
same answer), a program that crashes its worker on every attempt (circuit
breaker quarantines that hash while its neighbours keep being served).

These tests use ``workers >= 1`` throughout: real processes, real pipes,
real kills.  Driver-only daemon logic is covered in ``tests/test_service.py``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.algorithms import run_batch
from repro.parallel import BatchQuery
from repro.service import AnalysisDaemon, DaemonConfig, content_hash
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

# A third distinct program so eviction scenarios have something to evict.
THIRD = """
decl g, h;
main() begin
  g := T;
  h := !g;
  if (h) then target: skip; fi
end
"""

PROGRAMS = {"pos": POSITIVE, "neg": NEGATIVE, "third": THIRD}


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    faults.clear()


def offline_verdicts():
    """The ground truth every service answer is compared against."""
    report = run_batch(
        [
            BatchQuery(name=name, program=source, target="main:target")
            for name, source in PROGRAMS.items()
        ],
        jobs=1,
    )
    assert not report.failures()
    return report.verdicts()


def query(name, **fields):
    request = {
        "op": "query",
        "program": PROGRAMS[name],
        "target": "main:target",
        "name": name,
    }
    request.update(fields)
    return request


async def _with_daemon(config, scenario):
    daemon = AnalysisDaemon(config)
    await daemon.start()
    try:
        return await scenario(daemon)
    finally:
        await daemon.shutdown(drain=False)


class TestWorkerKillFailover:
    def test_kill_mid_request_is_retried_with_identical_verdict(self, tmp_path):
        expected = offline_verdicts()
        plan = FaultPlan(kill_query="pos", once_token=str(tmp_path / "latch"))

        async def scenario(daemon):
            killed = await daemon.handle_request(query("pos"))
            sibling = await daemon.handle_request(query("neg"))
            return killed, sibling, daemon.metrics(), daemon.health()

        config = DaemonConfig(workers=2, fault_plan=plan, retry_backoff=0.01)
        killed, sibling, metrics, health = asyncio.run(
            _with_daemon(config, scenario)
        )
        # The worker died mid-request; the pool rebuilt it and re-ran the
        # query — the response records the retry and the verdict is exactly
        # the offline answer.
        assert killed["status"] == "retried"
        assert killed["ok"] is True
        assert killed["retries"] == 1
        assert killed["reachable"] == expected["pos"]
        assert sibling["ok"] and sibling["reachable"] == expected["neg"]
        assert health["workers"]["restarts"] >= 1
        assert metrics["counters"]["retried"] == 1

    def test_persistent_crasher_is_circuit_broken_others_served(self):
        expected = offline_verdicts()
        plan = FaultPlan(kill_query="pos")  # no latch: kills every attempt

        async def scenario(daemon):
            crashes = [
                await daemon.handle_request(query("pos", id=i)) for i in range(2)
            ]
            quarantined = await daemon.handle_request(query("pos", id="after"))
            survivors = [
                await daemon.handle_request(query("neg")),
                await daemon.handle_request(query("third")),
            ]
            return crashes, quarantined, survivors, daemon.metrics()

        config = DaemonConfig(
            workers=2, fault_plan=plan, breaker_threshold=2, retry_backoff=0.01
        )
        crashes, quarantined, survivors, metrics = asyncio.run(
            _with_daemon(config, scenario)
        )
        # Every attempt on the poisoned hash burned a worker twice (initial
        # + failover) and came back as a typed crash, not an exception.
        for response in crashes:
            assert response["status"] == "crashed"
            assert response["error"]["type"] == "WorkerCrashed"
        # Strike threshold reached: the hash is quarantined up front...
        assert quarantined["status"] == "circuit-open"
        assert quarantined["error"]["retry_after_seconds"] > 0
        # ...while other programs are served with offline-identical verdicts.
        assert survivors[0]["reachable"] == expected["neg"]
        assert survivors[1]["reachable"] == expected["third"]
        assert metrics["breaker"]["trips"] == 1

    def test_innocent_queued_behind_a_crasher_is_served(self):
        # One worker, a persistent crasher and an innocent sent together:
        # the innocent waits for the worker instead of riding along on the
        # crasher's attempts, so only the crasher is convicted.
        plan = FaultPlan(kill_query="pos")

        async def scenario(daemon):
            crasher, innocent = await asyncio.gather(
                daemon.handle_request(query("pos")),
                daemon.handle_request(query("neg")),
            )
            return crasher, innocent, daemon.breaker.strikes(content_hash(NEGATIVE))

        config = DaemonConfig(workers=1, retry_backoff=0.01, fault_plan=plan)
        crasher, innocent, strikes = asyncio.run(_with_daemon(config, scenario))
        assert crasher["status"] == "crashed"
        assert innocent["status"] == "ok"
        assert innocent["reachable"] is False
        assert strikes == 0


def _same_parity_sources():
    """Two programs whose ``content_hash[:8]`` agree mod 2: the pair a
    ``hash % 2`` router would put on one worker."""
    first = POSITIVE
    second = NEGATIVE
    parity = int(content_hash(first)[:8], 16) % 2
    while int(content_hash(second)[:8], 16) % 2 != parity:
        second += "// pad\n"
    return first, second


class TestPlacement:
    def test_distinct_programs_spread_then_stay_pinned(self):
        first, second = _same_parity_sources()

        def request(source, **fields):
            return {"op": "query", "program": source, "target": "main:target", **fields}

        async def scenario(daemon):
            cold = await asyncio.gather(
                daemon.handle_request(request(first)),
                daemon.handle_request(request(second)),
            )
            again = [
                await daemon.handle_request(request(first, id="again-first")),
                await daemon.handle_request(request(second, id="again-second")),
            ]
            return cold, again

        cold, again = asyncio.run(_with_daemon(DaemonConfig(workers=2), scenario))
        assert all(response["ok"] for response in cold + again)
        # Sent together, the two programs went to different workers ...
        assert cold[0]["worker_pid"] != cold[1]["worker_pid"]
        # ... and each repeat is a warm hit on the worker holding its session.
        assert [response.get("warm") for response in again] == [True, True]
        assert [r["worker_pid"] for r in again] == [r["worker_pid"] for r in cold]


class TestDeadlineStorm:
    def test_storm_yields_typed_errors_and_sessions_stay_usable(self):
        expected = offline_verdicts()

        async def scenario(daemon):
            storm = await asyncio.gather(
                *[
                    daemon.handle_request(
                        query(name, deadline_seconds=0.0, id=f"storm-{name}-{i}")
                    )
                    for i in range(2)
                    for name in ("pos", "neg")
                ]
            )
            # The storm is over; the very same programs must answer
            # normally — exhaustion never poisons a pooled session.
            after = {
                name: await daemon.handle_request(query(name))
                for name in PROGRAMS
            }
            return storm, after

        # The breaker must not convict innocent programs for a
        # client-imposed zero deadline storm: threshold above storm size.
        config = DaemonConfig(workers=2, breaker_threshold=100)
        storm, after = asyncio.run(_with_daemon(config, scenario))
        for response in storm:
            assert response["ok"] is False
            assert response["status"] == "timeout"
            assert response["error"]["type"] == "AnalysisTimeout"
            assert response["error"]["resource"] == "wall-clock"
        for name, response in after.items():
            assert response["ok"] is True
            assert response["reachable"] == expected[name]


class TestMemoryPressure:
    def test_forced_eviction_preserves_verdicts(self):
        expected = offline_verdicts()

        async def scenario(daemon):
            first_pass = {
                name: await daemon.handle_request(query(name))
                for name in PROGRAMS
            }
            # Clamp the budget below the current pool so the next request
            # must evict (the worker closes real sessions, frees real nodes).
            total = daemon.pool_index.total_live_nodes()
            daemon.pool_index.memory_budget_nodes = max(1, total // 2)
            trigger = await daemon.handle_request(query("pos", id="trigger"))
            # The freed-node confirmation arrives asynchronously on the
            # worker's pipe; wait for it before sampling the counters.
            for _ in range(200):
                if daemon.counters["evicted_nodes"] > 0:
                    break
                await asyncio.sleep(0.02)
            metrics = daemon.metrics()
            second_pass = {
                name: await daemon.handle_request(query(name, id=f"again-{name}"))
                for name in PROGRAMS
            }
            return first_pass, trigger, second_pass, metrics

        config = DaemonConfig(workers=2, memory_budget_nodes=None)
        first_pass, trigger, second_pass, metrics = asyncio.run(
            _with_daemon(config, scenario)
        )
        assert trigger["ok"]
        assert metrics["counters"]["evictions"] >= 1
        assert metrics["counters"]["evicted_nodes"] > 0
        # Evicted sessions re-open cold and answer identically.
        for name in PROGRAMS:
            assert first_pass[name]["reachable"] == expected[name]
            assert second_pass[name]["reachable"] == expected[name]


class TestGracefulDrain:
    def test_shutdown_answers_inflight_before_stopping_workers(self):
        plan = FaultPlan(delay_query="slowpoke", delay_seconds=0.4)

        async def wrapper():
            daemon = AnalysisDaemon(
                DaemonConfig(workers=1, fault_plan=plan, drain_timeout=10.0)
            )
            await daemon.start()
            inflight = asyncio.ensure_future(
                daemon.handle_request({**query("pos"), "name": "slowpoke"})
            )
            await asyncio.sleep(0.1)
            await daemon.shutdown()  # drains: waits for the in-flight query
            response = await inflight
            late = await daemon.handle_request(query("neg"))
            return response, late, daemon

        response, late, daemon = asyncio.run(wrapper())
        assert response["ok"] is True and response["reachable"] is True
        assert late["status"] == "draining"
        assert daemon._pool.alive_count() == 0


class TestStdioServer:
    """End-to-end over the real transport: subprocess, pipes, signals."""

    def _spawn(self, *extra):
        repo = Path(__file__).resolve().parent.parent
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.frontends.server",
                "--stdio",
                "--workers",
                "1",
                *extra,
            ],
            cwd=repo,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def _ask(self, server, request):
        server.stdin.write(json.dumps(request) + "\n")
        server.stdin.flush()
        line = server.stdout.readline()
        assert line, "server closed stdout unexpectedly"
        return json.loads(line)

    def test_query_health_and_eof_drain(self):
        server = self._spawn()
        try:
            response = self._ask(
                server,
                {"id": 1, "program": POSITIVE, "target": "main:target"},
            )
            assert response["id"] == 1
            assert response["ok"] is True and response["reachable"] is True
            health = self._ask(server, {"id": 2, "op": "health"})
            assert health["ok"] and health["workers"]["alive"] == 1
            bad = self._ask(server, {"id": 3, "program": ""})
            assert bad["status"] == "error" and bad["error"]["type"] == "BadRequest"
            server.stdin.close()  # EOF: drain and exit cleanly
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)
            for stream in (server.stdin, server.stdout, server.stderr):
                if stream is not None:
                    stream.close()

    def test_sigterm_drains_cleanly(self):
        server = self._spawn()
        try:
            response = self._ask(
                server,
                {"id": 1, "program": NEGATIVE, "target": "main:target"},
            )
            assert response["reachable"] is False
            server.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 30
            while server.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert server.poll() == 0, "server did not drain on SIGTERM"
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)
            for stream in (server.stdin, server.stdout, server.stderr):
                if stream is not None:
                    stream.close()
