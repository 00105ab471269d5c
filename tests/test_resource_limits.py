"""Tests for the resource-governed execution envelope.

The contract under test (see :mod:`repro.limits` and :mod:`repro.errors`):
every budget — wall-clock deadline, live-node cap, iteration bound, the
baselines' exploration caps — trips as a *typed* :class:`ResourceExhausted`
subclass carrying consumed-vs-budget context; enforcement is cooperative
(allocation checkpoints and GC safe points) and never corrupts the manager,
so a session that blew its envelope stays usable and still closes back to
the empty baseline; the CLI turns exhaustion into exit status 3; the batch
layer classifies it as ``resource``/``timeout`` rather than ``crashed``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import pickle

import pytest

from repro.algorithms import run_batch, run_sequential
from repro.api import AnalysisSession
from repro.bdd import BddError, BddManager
from repro.errors import (
    AnalysisTimeout,
    ExplorationBudgetExceeded,
    NodeBudgetExceeded,
    ResourceExhausted,
)
from repro.fixedpoint.evaluator import EvaluationError
from repro.frontends import check_reachability, main
from repro.limits import DEGRADATION_LADDER, ResourceLimits
from repro.parallel import BatchQuery, run_shards
from repro.service import AnalysisDaemon, DaemonConfig
from repro.testing import FaultPlan, faults

VAR_NAMES = ["a", "b", "c", "d"]

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


class TestTypedErrors:
    def test_hierarchy_and_detail(self):
        exc = NodeBudgetExceeded(consumed=1500, budget=1000)
        assert isinstance(exc, ResourceExhausted)
        assert exc.resource == "bdd-nodes"
        assert exc.detail() == {
            "type": "NodeBudgetExceeded",
            "resource": "bdd-nodes",
            "consumed": 1500,
            "budget": 1000,
        }
        assert "1500" in str(exc) and "1000" in str(exc)

    def test_timeout_message_and_fields(self):
        exc = AnalysisTimeout(consumed=2.5, budget=2.0)
        assert exc.resource == "wall-clock"
        assert "2.500s" in str(exc) and "2.000s" in str(exc)

    def test_evaluation_error_is_resource_exhausted(self):
        # The evaluator's iteration-budget error predates the envelope; it
        # now participates in the taxonomy instead of being a bare Exception.
        exc = EvaluationError("no fixpoint", consumed=7, budget=7)
        assert isinstance(exc, ResourceExhausted)
        assert exc.resource == "iterations"

    def test_errors_survive_pickling(self):
        # Shard workers ship these across the pool boundary inside results.
        for exc in (
            AnalysisTimeout(consumed=1.0, budget=0.5),
            NodeBudgetExceeded(consumed=10, budget=5),
            ExplorationBudgetExceeded("boom", resource="transitions", consumed=9, budget=8),
        ):
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert clone.detail() == exc.detail()


class TestResourceLimitsSpec:
    def test_validation(self):
        assert ResourceLimits(deadline_seconds=0.0).bounded  # 0 is a valid deadline
        with pytest.raises(ValueError):
            ResourceLimits(deadline_seconds=-1.0)
        with pytest.raises(ValueError):
            ResourceLimits(node_budget=0)
        with pytest.raises(ValueError):
            ResourceLimits(max_iterations=0)
        # A NaN deadline never fires (``now >= nan`` is always False), and a
        # bool is an int to isinstance; each is rejected, naming the flag.
        for bad in (
            {"deadline_seconds": float("nan")},
            {"deadline_seconds": float("inf")},
            {"deadline_seconds": True},
            {"node_budget": True},
            {"node_budget": 10.0},
            {"max_iterations": 2.5},
            {"max_iterations": False},
        ):
            with pytest.raises(ValueError, match=r"\(--[a-z-]+\)"):
                ResourceLimits(**bad)
        assert not ResourceLimits().bounded
        assert not ResourceLimits(degrade=True).bounded

    def test_hashable_and_picklable(self):
        # Limits ride inside BatchQuery across process boundaries and
        # participate in shard group keys, so both properties are load-bearing.
        limits = ResourceLimits(deadline_seconds=1.5, node_budget=1000)
        assert pickle.loads(pickle.dumps(limits)) == limits
        assert len({limits, ResourceLimits(deadline_seconds=1.5, node_budget=1000)}) == 1

    def test_ladder_bottoms_out_at_summary(self):
        assert DEGRADATION_LADDER == {"ef-opt": "summary", "ef": "summary"}
        assert "summary" not in DEGRADATION_LADDER  # exhaustion there is final


class TestManagerEnforcement:
    def test_node_budget_trips_at_allocation(self):
        mgr = BddManager(VAR_NAMES)
        mgr.set_node_budget(2)
        mgr.var("a")  # terminal + one node: at the budget, not over it
        with pytest.raises(NodeBudgetExceeded) as info:
            mgr.and_(mgr.var("a"), mgr.var("b"))
        assert info.value.budget == 2
        assert info.value.consumed > 2

    def test_budget_respects_reclaimable_garbage(self):
        # The kernel pulls the GC trigger under the budget, so transient
        # garbage is swept before the hard bound trips.
        mgr = BddManager(VAR_NAMES, gc_threshold=4)
        mgr.set_node_budget(64)
        for i in range(30):
            mgr.xor(mgr.var("a"), mgr.var("b"))
            mgr.maybe_collect()
        assert len(mgr) <= 64

    def test_zero_deadline_trips_on_first_allocation(self):
        mgr = BddManager(VAR_NAMES)
        mgr.set_deadline(0.0)
        with pytest.raises(AnalysisTimeout) as info:
            mgr.var("a")
        assert info.value.budget == 0.0
        assert info.value.consumed >= 0.0

    def test_deadline_checked_at_safe_points(self):
        mgr = BddManager(VAR_NAMES)
        mgr.var("a")
        mgr.set_deadline(0.0)
        mgr._deadline_countdown = 10**9  # allocation checks disarmed
        with pytest.raises(AnalysisTimeout):
            mgr.maybe_collect()

    def test_clear_deadline_restores_service(self):
        mgr = BddManager(VAR_NAMES)
        mgr.set_deadline(0.0)
        with pytest.raises(AnalysisTimeout):
            mgr.var("a")
        mgr.clear_deadline()
        edge = mgr.and_(mgr.var("a"), mgr.var("b"))
        assert mgr.eval(edge, {"a": True, "b": True, "c": False, "d": False})

    def test_stats_report_the_armed_envelope(self):
        mgr = BddManager(VAR_NAMES)
        assert mgr.stats()["limits"] == {"node_budget": None, "deadline_armed": False}
        mgr.set_node_budget(100)
        mgr.set_deadline(60.0)
        assert mgr.stats()["limits"] == {"node_budget": 100, "deadline_armed": True}

    def test_full_node_table_is_typed_and_recoverable(self, monkeypatch):
        # The packed-key slot bound takes the resource path (not a bare
        # BddError) and leaves the manager collectable back to the terminal.
        from repro.bdd import manager as bdd_manager

        monkeypatch.setattr(bdd_manager, "MAX_NODE_INDEX", 6)
        mgr = BddManager(VAR_NAMES, debug_checks=True)
        with pytest.raises(NodeBudgetExceeded) as info:
            mgr.conjoin(
                mgr.xor(mgr.var(x), mgr.var(y))
                for x, y in itertools.combinations(VAR_NAMES, 2)
            )
        assert info.value.budget == 6
        assert info.value.consumed > 6
        mgr.collect_garbage()  # the sanitizer validates the swept table
        assert len(mgr) == 1
        assert mgr.stats()["capacity"] == 1
        edge = mgr.and_(mgr.var("a"), mgr.var("b"))
        assert mgr.eval(edge, {"a": True, "b": True, "c": False, "d": False})

    def test_variable_bound_is_a_named_error(self, monkeypatch):
        from repro.bdd import manager as bdd_manager

        monkeypatch.setattr(bdd_manager, "MAX_LEVEL", 2)
        mgr = BddManager(["a", "b"])
        with pytest.raises(BddError, match="at most 2 variables"):
            mgr.add_var("c")
        assert mgr.num_vars == 2


class TestSessionGovernance:
    @pytest.mark.parametrize("algorithm", ["summary", "ef", "ef-opt"])
    def test_iteration_budget_is_typed_for_every_algorithm(self, algorithm):
        with pytest.raises(ResourceExhausted) as info:
            check_reachability(
                POSITIVE,
                target="main:target",
                algorithm=algorithm,
                limits=ResourceLimits(max_iterations=1),
            )
        assert info.value.resource == "iterations"
        assert info.value.budget == 1

    def test_deadline_zero_is_typed(self):
        with pytest.raises(AnalysisTimeout):
            check_reachability(
                POSITIVE,
                target="main:target",
                limits=ResourceLimits(deadline_seconds=0.0),
            )

    def test_session_survives_exhaustion_and_recovers(self):
        session = AnalysisSession(
            POSITIVE, default_algorithm="ef", limits=ResourceLimits(max_iterations=1)
        )
        with pytest.raises(ResourceExhausted):
            session.check("main:target")
        # Lifting the envelope makes the same session answer normally: the
        # compiled templates and plans survived the failed query.
        session.set_limits(None)
        result = session.check("main:target")
        assert result.reachable
        session.close()

    def test_session_deadline_disarms_between_queries(self):
        # The deadline is per query: a session with a generous envelope must
        # not accumulate elapsed time across queries.
        session = AnalysisSession(
            POSITIVE,
            default_algorithm="ef",
            limits=ResourceLimits(deadline_seconds=30.0),
        )
        try:
            for _ in range(3):
                assert session.check("main:target").reachable
            mgr = next(iter(session._states.values())).backend.manager
            assert mgr.stats()["limits"]["deadline_armed"] is False
        finally:
            session.close()

    def test_degradation_ladder_records_origin(self):
        # Deterministic exhaustion: the fault plan makes every ef-opt query
        # raise an injected budget error, so the ladder retries as summary.
        faults.install(FaultPlan(exhaust_algorithms=("ef-opt",)))
        try:
            result = check_reachability(
                POSITIVE,
                target="main:target",
                algorithm="ef-opt",
                limits=ResourceLimits(node_budget=10_000, degrade=True),
            )
        finally:
            faults.clear()
        assert result.reachable
        assert result.degraded_from == "ef-opt"
        assert result.algorithm == "getafix-summary"

    @pytest.mark.parametrize(
        "optimize,witness", [(0, True), (1, False), (1, True), (2, False), (2, True)]
    )
    def test_degradation_ladder_at_every_level(self, optimize, witness):
        # The ladder is session behaviour: it holds whatever pre-analysis
        # level or witness flag routes the query.  The (0, False) case is
        # test_degradation_ladder_records_origin.
        faults.install(FaultPlan(exhaust_algorithms=("ef-opt",)))
        try:
            result = check_reachability(
                POSITIVE,
                target="main:target",
                algorithm="ef-opt",
                limits=ResourceLimits(node_budget=10_000, degrade=True),
                optimize=optimize,
                witness=witness,
            )
        finally:
            faults.clear()
        assert result.reachable
        assert result.degraded_from == "ef-opt"
        assert result.algorithm == "getafix-summary"
        if witness:
            assert result.witness["validated"] is True
            assert result.witness["algorithm"] == "summary"
        else:
            assert result.witness is None

    def test_exhaustion_without_degrade_reraises(self):
        faults.install(FaultPlan(exhaust_algorithms=("ef-opt",)))
        try:
            with pytest.raises(NodeBudgetExceeded):
                check_reachability(
                    POSITIVE,
                    target="main:target",
                    algorithm="ef-opt",
                    limits=ResourceLimits(node_budget=10_000),
                )
        finally:
            faults.clear()

    def test_summary_exhaustion_is_final_even_with_degrade(self):
        faults.install(FaultPlan(exhaust_algorithms=("summary",)))
        try:
            with pytest.raises(NodeBudgetExceeded):
                check_reachability(
                    POSITIVE,
                    target="main:target",
                    algorithm="summary",
                    limits=ResourceLimits(node_budget=10_000, degrade=True),
                )
        finally:
            faults.clear()


class TestBaselineBudgets:
    def _locations(self, source, target):
        from repro.boolprog import parse_program
        from repro.frontends import resolve_target

        program = parse_program(source)
        return program, resolve_target(program, target)

    def test_bebop_budget_is_typed(self):
        from repro.baselines import BebopSolver

        program, locations = self._locations(POSITIVE, "main:target")
        with pytest.raises(ExplorationBudgetExceeded) as info:
            BebopSolver(program).check(locations, max_path_edges=1)
        assert info.value.resource == "path-edges"
        assert info.value.budget == 1
        assert info.value.consumed > 1

    def test_moped_budget_is_typed(self):
        from repro.baselines import MopedSolver

        program, locations = self._locations(POSITIVE, "main:target")
        with pytest.raises(ExplorationBudgetExceeded) as info:
            MopedSolver(program).check(locations, max_transitions=1)
        assert info.value.resource == "transitions"

    def test_explicit_concurrent_budget_is_typed(self):
        from repro.baselines import ConcurrentExplicitSolver
        from repro.boolprog import parse_concurrent_program
        from repro.frontends import resolve_target

        source = """
        shared decl a;
        init a := F;
        thread one begin
          main() begin
            if (a) then hit: skip; fi
          end
        end
        thread two begin
          main() begin a := T; end
        end
        """
        program = parse_concurrent_program(source)
        locations = resolve_target(program, "one:main:hit")
        with pytest.raises(ExplorationBudgetExceeded) as info:
            ConcurrentExplicitSolver(program).check(
                locations, context_switches=2, max_configurations=1
            )
        assert info.value.resource == "configurations"


class TestBatchClassification:
    def test_resource_failures_are_not_crashes(self):
        queries = [
            BatchQuery(
                name="starved",
                program=POSITIVE,
                target="main:target",
                limits=ResourceLimits(max_iterations=1),
            ),
            BatchQuery(name="healthy", program=NEGATIVE, target="main:target"),
        ]
        results, mode, _ = run_shards(queries, jobs=1)
        by_name = {shard.name: shard for shard in results}
        assert by_name["starved"].status == "resource"
        assert by_name["starved"].error_detail["resource"] == "iterations"
        assert by_name["healthy"].status == "ok"
        assert by_name["healthy"].result.reachable is False

    def test_run_batch_applies_shared_limits_and_reports(self):
        report = run_batch(
            [
                BatchQuery(name="p", program=POSITIVE, target="main:target"),
                BatchQuery(name="n", program=NEGATIVE, target="main:target"),
            ],
            jobs=1,
            limits=ResourceLimits(deadline_seconds=0.0),
        )
        assert len(report.resource_failures()) == 2
        assert not report.crash_failures()
        assert report.status_counts() == {"timeout": 2}
        rows = report.rows()
        assert all(row["status"] == "timeout" for row in rows)
        assert all(row["error_detail"]["resource"] == "wall-clock" for row in rows)
        table = report.format_table()
        assert "ERROR[timeout]" in table and "statuses: timeout=2" in table

    def test_degrade_on_the_job_path(self):
        report = run_batch(
            [
                BatchQuery(
                    name="p",
                    program=POSITIVE,
                    target="main:target",
                    limits=ResourceLimits(node_budget=10_000, degrade=True),
                    witness=True,
                )
            ],
            fault_plan=FaultPlan(exhaust_algorithms=("ef-opt",)),
        )
        (shard,) = report.shards
        assert shard.status == "ok"
        assert shard.result.degraded_from == "ef-opt"
        assert shard.result.witness["validated"] is True
        assert report.rows()[0]["degraded_from"] == "ef-opt"

    def test_degrade_on_the_daemon_path(self):
        async def scenario():
            daemon = AnalysisDaemon(
                DaemonConfig(workers=0, fault_plan=FaultPlan(exhaust_algorithms=("ef-opt",)))
            )
            await daemon.start()
            try:
                return await daemon.handle_request(
                    {
                        "op": "query",
                        "program": POSITIVE,
                        "target": "main:target",
                        "node_budget": 10_000,
                        "degrade": True,
                    }
                )
            finally:
                await daemon.shutdown(drain=False)

        try:
            response = asyncio.run(scenario())
        finally:
            faults.clear()
        assert response["ok"] and response["reachable"] is True
        assert response["degraded_from"] == "ef-opt"
        assert response["algorithm"] == "getafix-summary"

    def test_per_query_limits_shard_grouping(self):
        # Queries with different envelopes must not share a session group.
        limits = ResourceLimits(max_iterations=1)
        queries = [
            BatchQuery(name="tight", program=POSITIVE, target="main:target", limits=limits),
            BatchQuery(name="loose", program=POSITIVE, target="main:target"),
        ]
        results, _, _ = run_shards(queries, jobs=1)
        by_name = {shard.name: shard for shard in results}
        assert by_name["tight"].status == "resource"
        assert by_name["loose"].status == "ok"
        assert by_name["loose"].result.reachable


CONCURRENT_HANDOFF = """
shared decl a, b;
init a := F, b := F;
thread ping begin
  main() begin
    a := T;
    if (b) then
      hit: skip;
    fi
  end
end
thread pong begin
  main() begin
    if (a) then b := T; fi
  end
end
"""


class TestConcurrentEngineLimits:
    """The bounded context-switching engine honors the same envelope.

    ``run_concurrent`` answers in a one-shot session, which arms the limits
    on its manager: deadline and node-budget exhaustion trip as the typed
    errors, never corrupt shared state (an immediate re-run without limits
    answers normally), and the batch path classifies them as
    ``timeout``/``resource`` — not crashes.
    """

    def _program_and_locations(self):
        from repro.boolprog import parse_concurrent_program
        from repro.encode.concurrent import ConcurrentEncoder

        program = parse_concurrent_program(CONCURRENT_HANDOFF)
        encoder = ConcurrentEncoder(program)
        return program, [encoder.label_location("ping", "main", "hit")]

    def test_deadline_exhaustion_is_typed_and_recoverable(self):
        from repro.algorithms import run_concurrent

        program, locations = self._program_and_locations()
        with pytest.raises(AnalysisTimeout) as info:
            run_concurrent(
                program,
                locations,
                context_switches=2,
                limits=ResourceLimits(deadline_seconds=0.0),
            )
        assert info.value.resource == "wall-clock"
        # Exhaustion left nothing behind: the very next run, same program,
        # no envelope, answers normally.
        result = run_concurrent(program, locations, context_switches=2)
        assert result.reachable

    def test_node_budget_exhaustion_is_typed_and_recoverable(self):
        from repro.algorithms import run_concurrent

        program, locations = self._program_and_locations()
        with pytest.raises(NodeBudgetExceeded) as info:
            run_concurrent(
                program,
                locations,
                context_switches=2,
                limits=ResourceLimits(node_budget=2),
            )
        assert info.value.resource == "bdd-nodes"
        assert info.value.consumed > info.value.budget
        result = run_concurrent(program, locations, context_switches=2)
        assert result.reachable

    def test_iteration_budget_overrides_engine_default(self):
        from repro.algorithms import run_concurrent

        program, locations = self._program_and_locations()
        with pytest.raises(ResourceExhausted) as info:
            run_concurrent(
                program,
                locations,
                context_switches=2,
                limits=ResourceLimits(max_iterations=1),
            )
        assert info.value.resource == "iterations"

    def test_concurrent_batch_reports_resource_status(self):
        # The batch path classifies concurrent exhaustion exactly like
        # sequential exhaustion: status resource/timeout with the
        # consumed-vs-budget detail, siblings unaffected.
        queries = [
            BatchQuery(
                name="starved",
                program=CONCURRENT_HANDOFF,
                target="ping:main:hit",
                concurrent=True,
                context_switches=2,
                limits=ResourceLimits(node_budget=2),
            ),
            BatchQuery(
                name="healthy",
                program=CONCURRENT_HANDOFF,
                target="ping:main:hit",
                concurrent=True,
                context_switches=2,
            ),
        ]
        results, _, _ = run_shards(queries, jobs=1)
        by_name = {shard.name: shard for shard in results}
        assert by_name["starved"].status == "resource"
        assert by_name["starved"].error_detail["resource"] == "bdd-nodes"
        assert by_name["healthy"].status == "ok"
        assert by_name["healthy"].result.reachable

    def test_concurrent_batch_timeout_status(self):
        report = run_batch(
            [
                BatchQuery(
                    name="deadline",
                    program=CONCURRENT_HANDOFF,
                    target="ping:main:hit",
                    concurrent=True,
                    limits=ResourceLimits(deadline_seconds=0.0),
                )
            ],
            jobs=1,
        )
        assert report.status_counts() == {"timeout": 1}
        assert report.rows()[0]["error_detail"]["resource"] == "wall-clock"


class TestCliExitCodes:
    def _write(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(source)
        return path

    def test_deadline_exhaustion_exits_three(self, tmp_path, capsys):
        path = self._write(tmp_path, "pos.bp", POSITIVE)
        status = main([str(path), "--target", "main:target", "--deadline", "0"])
        assert status == 3
        assert "deadline exceeded" in capsys.readouterr().err

    def test_node_budget_exhaustion_exits_three(self, tmp_path, capsys):
        path = self._write(tmp_path, "pos.bp", POSITIVE)
        status = main([str(path), "--target", "main:target", "--node-budget", "2"])
        assert status == 3
        assert "node budget" in capsys.readouterr().err

    def test_exhaustion_json_carries_detail(self, tmp_path, capsys):
        path = self._write(tmp_path, "pos.bp", POSITIVE)
        status = main(
            [str(path), "--target", "main:target", "--deadline", "0", "--json"]
        )
        assert status == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "AnalysisTimeout"
        assert payload["resource"] == "wall-clock"

    def test_batch_resource_exhaustion_exits_three(self, tmp_path, capsys):
        pos = self._write(tmp_path, "pos.bp", POSITIVE)
        neg = self._write(tmp_path, "neg.bp", NEGATIVE)
        status = main(
            [str(pos), str(neg), "--target", "main:target", "--deadline", "0"]
        )
        assert status == 3
        captured = capsys.readouterr()
        assert "ERROR[timeout]" in captured.out

    def test_batch_crash_outranks_resource(self, tmp_path, capsys):
        pos = self._write(tmp_path, "pos.bp", POSITIVE)
        bad = self._write(tmp_path, "bad.bp", "main( begin oops")
        status = main(
            [str(pos), str(bad), "--target", "main:target", "--deadline", "0"]
        )
        assert status == 2  # a genuine error wins over budget exhaustion

    def test_invalid_limit_flag_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, "pos.bp", POSITIVE)
        status = main([str(path), "--node-budget", "-5"])
        assert status == 2
        assert "--node-budget" in capsys.readouterr().err

    def test_unlimited_run_is_unchanged(self, tmp_path, capsys):
        path = self._write(tmp_path, "pos.bp", POSITIVE)
        status = main([str(path), "--target", "main:target"])
        assert status == 1
        assert "YES" in capsys.readouterr().out

    def test_degrade_flag_reports_fallback(self, tmp_path, capsys):
        path = self._write(tmp_path, "pos.bp", POSITIVE)
        faults.install(FaultPlan(exhaust_algorithms=("ef-opt",)))
        try:
            status = main(
                [str(path), "--target", "main:target", "--node-budget", "100000", "--degrade"]
            )
        finally:
            faults.clear()
        assert status == 1
        out = capsys.readouterr().out
        assert "summary fallback" in out

    @pytest.mark.parametrize(
        "extra", [["-O", "1"], ["-O", "2"], ["--witness"]], ids=["O1", "O2", "witness"]
    )
    def test_degrade_flag_reports_fallback_on_every_path(self, tmp_path, capsys, extra):
        path = self._write(tmp_path, "pos.bp", POSITIVE)
        faults.install(FaultPlan(exhaust_algorithms=("ef-opt",)))
        try:
            status = main(
                [str(path), "--target", "main:target", "--node-budget", "100000", "--degrade"]
                + extra
            )
        finally:
            faults.clear()
        assert status == 1
        assert "summary fallback" in capsys.readouterr().out


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
