"""Tests for the analysis service stack (:mod:`repro.service`).

Unit coverage of the daemon's robustness machinery, mostly on the
in-process backend (``workers=0`` — same execution path, no process pool):
protocol validation with typed error payloads, the live-node-priced LRU
pool index, the per-program circuit breaker, admission control with
shed-to-ladder semantics, request coalescing, per-request limits, graceful
drain.  Process-pool failover is covered end to end in
``tests/test_server_chaos.py``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.limits import ResourceLimits
from repro.service import (
    AnalysisDaemon,
    CircuitBreaker,
    DaemonConfig,
    ProtocolError,
    SessionPoolIndex,
    content_hash,
    parse_request,
)
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


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    faults.clear()


def run(coro):
    return asyncio.run(coro)


async def _with_daemon(config, scenario):
    daemon = AnalysisDaemon(config)
    await daemon.start()
    try:
        return await scenario(daemon)
    finally:
        await daemon.shutdown(drain=False)


def query(program=POSITIVE, **fields):
    request = {"op": "query", "program": program, "target": "main:target"}
    request.update(fields)
    return request


class TestProtocol:
    def test_content_hash_is_stable_text_identity(self):
        assert content_hash(POSITIVE) == content_hash(POSITIVE)
        assert content_hash(POSITIVE) != content_hash(NEGATIVE)
        assert len(content_hash("")) == 64

    def test_parse_request_builds_a_job(self):
        job = parse_request(query(), job_id="q1")
        assert job.program_hash == content_hash(POSITIVE)
        assert job.algorithm == "ef-opt"
        assert job.target == "main:target"
        assert job.limits is None

    def test_missing_program_is_a_typed_rejection(self):
        with pytest.raises(ProtocolError) as info:
            parse_request({"op": "query"}, job_id="q1")
        assert info.value.payload["type"] == "BadRequest"
        assert "program" in info.value.payload["message"]

    def test_unknown_algorithm_is_rejected(self):
        with pytest.raises(ProtocolError, match="algorithm"):
            parse_request(query(algorithm="magic"), job_id="q1")

    def test_bad_target_is_rejected(self):
        with pytest.raises(ProtocolError, match="target"):
            parse_request(query(target=42), job_id="q1")

    def test_request_limits_override_daemon_defaults(self):
        defaults = ResourceLimits(deadline_seconds=10.0, node_budget=1000)
        job = parse_request(
            query(deadline_seconds=0.5), job_id="q1", default_limits=defaults
        )
        assert job.limits.deadline_seconds == 0.5
        assert job.limits.node_budget == 1000  # untouched default

    @pytest.mark.parametrize(
        "line",
        [
            '{"node_budget": -5}',
            '{"deadline_seconds": NaN}',  # json.loads parses NaN and Infinity
            '{"deadline_seconds": Infinity}',
            '{"node_budget": true}',
            '{"max_iterations": 2.5}',
        ],
    )
    def test_invalid_request_limits_are_typed(self, line):
        with pytest.raises(ProtocolError, match="limits") as info:
            parse_request(query(**json.loads(line)), job_id="q1")
        assert info.value.payload["type"] == "BadRequest"

    @pytest.mark.parametrize(
        "fields,named",
        [
            ({"context_switches": True}, "context_switches"),
            ({"target": [[True, 0]]}, "target"),
            ({"target": [[0, False]]}, "target"),
        ],
    )
    def test_bools_are_not_integers(self, fields, named):
        with pytest.raises(ProtocolError, match=named) as info:
            parse_request(query(**fields), job_id="q1")
        assert info.value.payload["type"] == "BadRequest"

    @pytest.mark.parametrize("field", ["degrade", "concurrent", "early_stop", "witness"])
    def test_flags_must_be_bools(self, field):
        # "no" is truthy: coercing it would turn a refusal into a yes.
        with pytest.raises(ProtocolError, match=field) as info:
            parse_request(query(**{field: "no"}), job_id="q1")
        assert info.value.payload["type"] == "BadRequest"

    def test_concurrent_jobs_key_sessions_by_bound(self):
        k1 = parse_request(query(concurrent=True, context_switches=1), job_id="a")
        k2 = parse_request(query(concurrent=True, context_switches=2), job_id="b")
        assert k1.algorithm == "cbr-k1" and k2.algorithm == "cbr-k2"
        assert k1.program_hash == content_hash(POSITIVE) + ":k1"
        assert k2.program_hash == content_hash(POSITIVE) + ":k2"

    def test_coalesce_key_separates_algorithms_and_limits(self):
        base = parse_request(query(), job_id="a")
        same = parse_request(query(), job_id="b")
        other_algorithm = parse_request(query(algorithm="summary"), job_id="c")
        other_limits = parse_request(query(deadline_seconds=1.0), job_id="d")
        assert base.coalesce_key() == same.coalesce_key()
        assert base.coalesce_key() != other_algorithm.coalesce_key()
        assert base.coalesce_key() != other_limits.coalesce_key()


class TestSessionPoolIndex:
    def test_lru_eviction_under_budget(self):
        index = SessionPoolIndex(memory_budget_nodes=1000)
        index.touch("aaa", 600)
        index.touch("bbb", 600)
        victims = index.evictions(busy=set())
        assert victims == ["aaa"]
        assert "aaa" not in index and "bbb" in index

    def test_touch_refreshes_recency(self):
        index = SessionPoolIndex(memory_budget_nodes=1000)
        index.touch("aaa", 600)
        index.touch("bbb", 600)
        index.touch("aaa", 600)  # aaa is now the most recent
        assert index.evictions(busy=set()) == ["bbb"]

    def test_busy_sessions_are_spared(self):
        index = SessionPoolIndex(memory_budget_nodes=1000)
        index.touch("aaa", 600)
        index.touch("bbb", 600)
        index.touch("ccc", 600)
        victims = index.evictions(busy={"aaa"})
        assert "aaa" not in victims
        assert "bbb" in victims

    def test_most_recent_session_is_never_evicted(self):
        index = SessionPoolIndex(memory_budget_nodes=100)
        index.touch("aaa", 600)  # alone and over budget: still spared
        assert index.evictions(busy=set()) == []

    def test_unbounded_pool_never_evicts(self):
        index = SessionPoolIndex(memory_budget_nodes=None)
        for i in range(10):
            index.touch(f"h{i}", 10_000)
        assert index.evictions(busy=set()) == []

    def test_gc_delta_accounting(self):
        index = SessionPoolIndex()
        assert index.touch("aaa", 100, gc_collections=2) == 2
        assert index.touch("aaa", 100, gc_collections=5) == 3
        assert index.touch("aaa", 100, gc_collections=5) == 0


class TestCircuitBreaker:
    def _clock(self):
        state = {"now": 0.0}

        def clock():
            return state["now"]

        return state, clock

    def test_opens_after_threshold_and_admits_probe_after_cooldown(self):
        state, clock = self._clock()
        breaker = CircuitBreaker(threshold=3, cooldown_seconds=10.0, clock=clock)
        for _ in range(3):
            breaker.record("h", "crashed")
        allowed, retry_after = breaker.allow("h")
        assert not allowed and retry_after > 0
        assert breaker.trips == 1
        state["now"] = 11.0
        allowed, _ = breaker.allow("h")  # half-open probe
        assert allowed
        # ... and the circuit stays armed for everyone else until the probe
        # reports back.
        allowed, _ = breaker.allow("h")
        assert not allowed

    def test_success_heals(self):
        state, clock = self._clock()
        breaker = CircuitBreaker(threshold=2, cooldown_seconds=10.0, clock=clock)
        breaker.record("h", "timeout")
        breaker.record("h", "ok")
        breaker.record("h", "resource")
        assert breaker.allow("h")[0]  # never reached the threshold in a row
        assert breaker.strikes("h") == 1

    def test_user_errors_neither_strike_nor_heal(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record("h", "crashed")
        breaker.record("h", "error")  # a parse error says nothing
        assert breaker.strikes("h") == 1
        breaker.record("h", "crashed")
        assert not breaker.allow("h")[0]

    def test_hashes_are_independent(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record("bad", "crashed")
        assert not breaker.allow("bad")[0]
        assert breaker.allow("good")[0]


class TestDaemonQueries:
    def test_query_and_warm_repeat(self):
        async def scenario(daemon):
            first = await daemon.handle_request(query(id=1))
            second = await daemon.handle_request(query(id=2))
            return first, second

        first, second = run(
            _with_daemon(DaemonConfig(workers=0), scenario)
        )
        assert first["ok"] and first["reachable"] is True
        assert "warm" not in first
        assert second["ok"] and second["reachable"] is True
        assert second["warm"] is True

    def test_concurrent_query_and_warm_repeat(self):
        # A concurrent program gets a pooled session too: the repeat is a
        # post-pass over the solved Reach relation.
        handoff = """
        shared decl a;
        init a := F;
        thread one begin main() begin if (a) then hit: skip; fi end end
        thread two begin main() begin a := T; end end
        """

        async def scenario(daemon):
            fields = dict(target="one:main:hit", concurrent=True, context_switches=2)
            first = await daemon.handle_request(query(handoff, id=1, **fields))
            second = await daemon.handle_request(query(handoff, id=2, **fields))
            return first, second

        first, second = run(_with_daemon(DaemonConfig(workers=0), scenario))
        assert first["ok"] and first["reachable"] is True
        assert second["ok"] and second["reachable"] is True
        assert second["warm"] is True

    def test_typed_error_for_malformed_request(self):
        async def scenario(daemon):
            return (
                await daemon.handle_request({"op": "query"}),
                await daemon.handle_request({"op": "wat"}),
                await daemon.handle_request("not a dict"),
            )

        missing, unknown_op, not_dict = run(
            _with_daemon(DaemonConfig(workers=0), scenario)
        )
        for response in (missing, unknown_op, not_dict):
            assert response["ok"] is False
            assert response["status"] == "error"
            assert response["error"]["type"] == "BadRequest"

    def test_user_error_in_program_is_typed_not_a_crash(self):
        async def scenario(daemon):
            return await daemon.handle_request(query(program="main( begin oops"))

        response = run(_with_daemon(DaemonConfig(workers=0), scenario))
        assert response["status"] == "error"
        assert "message" in response["error"]

    def test_per_request_deadline_is_typed_and_session_survives(self):
        async def scenario(daemon):
            starved = await daemon.handle_request(query(deadline_seconds=0.0))
            healthy = await daemon.handle_request(query())
            return starved, healthy

        starved, healthy = run(_with_daemon(DaemonConfig(workers=0), scenario))
        assert starved["status"] == "timeout"
        assert starved["error"]["resource"] == "wall-clock"
        # Exhaustion left the pooled session usable: the next request on the
        # same program answers normally.
        assert healthy["ok"] and healthy["reachable"] is True

    def test_per_request_node_budget_is_typed(self):
        async def scenario(daemon):
            return await daemon.handle_request(query(node_budget=2))

        response = run(_with_daemon(DaemonConfig(workers=0), scenario))
        assert response["status"] == "resource"
        assert response["error"]["resource"] == "bdd-nodes"

    def test_coalescing_shares_one_execution(self):
        async def scenario(daemon):
            responses = await asyncio.gather(
                *[daemon.handle_request(query(id=i)) for i in range(4)]
            )
            return responses, daemon.metrics()

        config = DaemonConfig(workers=0, shed_threshold=64, max_pending=64)
        responses, metrics = run(_with_daemon(config, scenario))
        assert all(r["ok"] and r["reachable"] is True for r in responses)
        assert metrics["counters"]["coalesced"] >= 1
        # One solve served every request: at most one execution was real.
        assert metrics["counters"]["answered"] == 1

    def test_draining_daemon_rejects_with_typed_status(self):
        async def scenario(daemon):
            await daemon.shutdown(drain=False)
            return await daemon.handle_request(query())

        async def wrapper():
            daemon = AnalysisDaemon(DaemonConfig(workers=0))
            await daemon.start()
            return await scenario(daemon)

        response = run(wrapper())
        assert response["status"] == "draining"
        assert response["error"]["type"] == "ServiceDraining"

    def test_health_and_metrics_ops(self):
        async def scenario(daemon):
            await daemon.handle_request(query())
            health = await daemon.handle_request({"op": "health", "id": "h"})
            metrics = await daemon.handle_request({"op": "metrics"})
            return health, metrics

        health, metrics = run(_with_daemon(DaemonConfig(workers=0), scenario))
        assert health["ok"] and health["status"] == "ok" and health["id"] == "h"
        assert health["pool"]["sessions"] == 1
        assert health["pool"]["live_nodes"] > 0
        assert metrics["counters"]["solves"] == 1
        assert metrics["queries_per_solve"] >= 1.0
        assert metrics["statuses"]["ok"] == 1


class TestAdmissionControl:
    def test_overload_sheds_to_ladder_then_rejects(self):
        # shed_threshold=1, max_pending=2: with one slow request in flight, a
        # second is shed to the cheaper algorithm; with two in flight, a
        # third is rejected outright with a typed Overloaded payload.
        plan = FaultPlan(delay_query="slow", delay_seconds=0.6)

        async def scenario(daemon):
            slow_task = asyncio.ensure_future(
                daemon.handle_request(query(name="slow"))
            )
            await asyncio.sleep(0.15)  # the slow request is now in flight
            # Admitted while pending == 1 >= shed_threshold: shed to the
            # ladder.  It stays in flight behind the slow request (single
            # inline executor), holding pending at 2.
            shed_task = asyncio.ensure_future(
                daemon.handle_request(query(NEGATIVE, name="shed-me"))
            )
            await asyncio.sleep(0.05)
            rejected = await daemon.handle_request(query(NEGATIVE, name="reject-me"))
            slow, shed = await asyncio.gather(slow_task, shed_task)
            return slow, shed, rejected, daemon.metrics()

        config = DaemonConfig(
            workers=0, shed_threshold=1, max_pending=2, fault_plan=plan
        )
        slow, shed, rejected, metrics = run(_with_daemon(config, scenario))
        assert slow["ok"]
        # Shed to the ladder: answered NOW by the cheaper algorithm, verdict
        # preserved (all sequential algorithms agree by construction).
        assert shed["ok"] and shed["reachable"] is False
        assert shed["shed"] is True
        assert shed["shed_from"] == "ef-opt"
        assert shed["algorithm"] == "getafix-summary"
        # Past the hard cap: typed rejection, nothing queued, nothing dropped.
        assert rejected["ok"] is False
        assert rejected["status"] == "shed"
        assert rejected["error"]["type"] == "Overloaded"
        assert metrics["counters"]["shed_ladder"] >= 1
        assert metrics["counters"]["shed_rejected"] >= 1

    def test_summary_requests_cannot_shed_further(self):
        # The ladder has no rung below summary: an overloaded summary query
        # is simply admitted (still bounded by max_pending).
        plan = FaultPlan(delay_query="slow", delay_seconds=0.4)

        async def scenario(daemon):
            slow_task = asyncio.ensure_future(
                daemon.handle_request(query(name="slow"))
            )
            await asyncio.sleep(0.1)
            summary = await daemon.handle_request(
                query(NEGATIVE, algorithm="summary")
            )
            await slow_task
            return summary

        config = DaemonConfig(
            workers=0, shed_threshold=1, max_pending=8, fault_plan=plan
        )
        summary = run(_with_daemon(config, scenario))
        assert summary["ok"] and "shed" not in summary


class TestCircuitBreakerIntegration:
    def test_crashing_program_is_quarantined_others_served(self):
        plan = FaultPlan(fail_query="boom")  # crashes on every attempt

        async def scenario(daemon):
            responses = [
                await daemon.handle_request(query(name="boom", id=i))
                for i in range(3)
            ]
            opened = await daemon.handle_request(query(name="boom", id="after"))
            healthy = await daemon.handle_request(query(NEGATIVE, name="fine"))
            return responses, opened, healthy, daemon.metrics()

        config = DaemonConfig(workers=0, breaker_threshold=3, fault_plan=plan)
        responses, opened, healthy, metrics = run(_with_daemon(config, scenario))
        assert all(r["status"] == "crashed" for r in responses)
        assert opened["status"] == "circuit-open"
        assert opened["error"]["type"] == "CircuitOpen"
        assert opened["error"]["retry_after_seconds"] > 0
        # The quarantine is per program hash: other programs keep being served.
        assert healthy["ok"] and healthy["reachable"] is False
        assert metrics["breaker"]["trips"] == 1
        assert metrics["counters"]["circuit_open_rejections"] == 1


class TestPoolEviction:
    def test_memory_pressure_evicts_lru_session(self):
        async def scenario(daemon):
            first = await daemon.handle_request(query(POSITIVE))
            # Tighten the budget below one session so serving a second
            # program must evict the first (LRU, not busy, not most recent).
            total = daemon.pool_index.total_live_nodes()
            daemon.pool_index.memory_budget_nodes = total - 1
            second = await daemon.handle_request(query(NEGATIVE))
            metrics = daemon.metrics()
            # The evicted program still answers (a fresh session, cold).
            third = await daemon.handle_request(query(POSITIVE))
            return first, second, third, metrics

        config = DaemonConfig(workers=0, memory_budget_nodes=None)
        first, second, third, metrics = run(_with_daemon(config, scenario))
        assert first["ok"] and second["ok"] and third["ok"]
        assert metrics["counters"]["evictions"] >= 1
        assert metrics["counters"]["evicted_nodes"] > 0
        assert metrics["pool"]["sessions"] == 1
        assert "warm" not in third  # its session was evicted: cold again


class TestDaemonConfigValidation:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            DaemonConfig(workers=-1)
        with pytest.raises(ValueError):
            DaemonConfig(max_pending=0)
        with pytest.raises(ValueError):
            DaemonConfig(shed_threshold=0)
        with pytest.raises(ValueError):
            DaemonConfig(shed_threshold=10, max_pending=5)
        for name in ("breaker_cooldown", "drain_timeout", "retry_backoff"):
            for bad in (float("nan"), float("inf"), -1.0, True):
                with pytest.raises(ValueError, match=name):
                    DaemonConfig(**{name: bad})


class TestServerCliValidation:
    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--workers", "-1"], "--workers"),
            (["--max-pending", "0"], "--max-pending"),
            (["--shed-threshold", "0"], "--shed-threshold"),
            (["--shed-threshold", "9", "--max-pending", "3"], "--shed-threshold"),
            (["--breaker-threshold", "0"], "--breaker-threshold"),
            (["--deadline", "-1"], "--deadline"),
            (["--deadline", "nan"], "--deadline"),
            (["--node-budget", "0"], "--node-budget"),
            (["--max-iterations", "-2"], "--max-iterations"),
            (["--drain-timeout", "-1"], "--drain-timeout"),
            (["--drain-timeout", "nan"], "--drain-timeout"),
            (["--breaker-cooldown", "nan"], "--breaker-cooldown"),
            (["--breaker-cooldown", "inf"], "--breaker-cooldown"),
            (["--memory-budget", "-1"], "--memory-budget"),
            (["--port", "70000"], "--port"),
        ],
    )
    def test_bad_flags_exit_two(self, capsys, flags, named):
        from repro.frontends.server import main

        status = main(flags)
        captured = capsys.readouterr()
        assert status == 2
        assert named in captured.err
        assert "Traceback" not in captured.err
