"""Tests for the compile-once / query-many session API (:mod:`repro.api`).

The load-bearing properties:

* **Equivalence** — `session.check_all(targets)` produces the same verdicts
  and iteration counts as N fresh full `run_sequential` calls, on all three
  algorithms (the retained summary fixed point of a target-free system is
  target-independent).
* **Reuse** — after a solve, checks are query post-passes; targets are
  cached by signature; a lazy run that reaches the fixed point is promoted
  to the retained summary, and an early-stopped one retains nothing.
* **Lifecycle** — validation happens once at construction (never per
  query), and `close()` releases every retained edge.
"""

from __future__ import annotations

import pytest

from repro.algorithms import SEQUENTIAL_ALGORITHMS, run_batch, run_sequential
from repro.algorithms.engine import algorithm_builder
from repro.api import AnalysisSession
from repro.benchgen import make_bluetooth
from repro.boolprog import build_cfg, parse_program
from repro.encode.concurrent import ConcurrentEncoder
from repro.encode.templates import SequentialEncoder
from repro.frontends import resolve_target
from repro.parallel import BatchQuery, group_queries, run_shard

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

#: A mix of reachable and unreachable targets across two procedures.
TARGETS = ["main:yes", "main:no_g", "main:never", "set_flag:cold", "main:done"]
EXPECTED = [True, True, False, True, True]

OTHER_PROGRAM = """
decl h;
main() begin
  h := F;
  if (h) then hit: skip; fi
end
"""


def _locations(program):
    return [resolve_target(program, target) for target in TARGETS]


class TestEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_check_all_matches_fresh_full_runs(self, algorithm):
        """Session verdicts/iterations == N fresh full-fixed-point runs."""
        program = parse_program(PROGRAM)
        locations = _locations(program)
        fresh = [
            run_sequential(program, locs, algorithm=algorithm, early_stop=False)
            for locs in locations
        ]
        with AnalysisSession(program, default_algorithm=algorithm) as session:
            reused = session.check_all(locations, algorithm=algorithm)
        assert [r.reachable for r in fresh] == EXPECTED
        for fresh_result, session_result in zip(fresh, reused):
            assert session_result.reachable == fresh_result.reachable
            assert session_result.iterations == fresh_result.iterations
            assert (
                session_result.equation_evaluations
                == fresh_result.equation_evaluations
            )
            assert session_result.summary_nodes == fresh_result.summary_nodes
        # The solve was amortised: every check rode the retained summary.
        assert all(r.details["reused_solve"] for r in reused)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_lazy_checks_match_fresh_verdicts(self, algorithm):
        """Without a pre-solve, per-target evaluation agrees with fresh runs."""
        program = parse_program(PROGRAM)
        locations = _locations(program)
        with AnalysisSession(program) as session:
            results = [
                session.check(locs, algorithm=algorithm) for locs in locations
            ]
        assert [r.reachable for r in results] == EXPECTED

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_summary_states_populated(self, algorithm):
        """The symbolic engines report tuple counts via signed-edge count_sat."""
        result = run_sequential(
            parse_program(PROGRAM),
            resolve_target(parse_program(PROGRAM), "main:yes"),
            algorithm=algorithm,
        )
        assert result.summary_states is not None
        assert result.summary_states > 0


class TestReuse:
    def test_solve_is_idempotent(self):
        with AnalysisSession(PROGRAM, default_algorithm="summary") as session:
            first = session.solve()
            second = session.solve()
        assert not first.reused
        assert second.reused
        assert second.iterations == first.iterations

    def test_checks_after_solve_are_post_passes(self):
        with AnalysisSession(PROGRAM, default_algorithm="ef") as session:
            session.solve()
            result = session.check("main:yes")
            assert result.details["reused_solve"] is True
            assert not result.stopped_early
            stats = session.stats()["algorithms"]["ef"]
            assert stats["solves"] == 1
            assert stats["reused_queries"] == 1

    def test_target_cache_keyed_by_signature(self):
        """Identical location sets (any order) hit one cached Target BDD."""
        program = parse_program(PROGRAM)
        a = resolve_target(program, "main:yes")[0]
        b = resolve_target(program, "main:done")[0]
        with AnalysisSession(program, default_algorithm="summary") as session:
            session.check([a, b])
            session.check([b, a])
            session.check([b, a, b])
            assert session.stats()["algorithms"]["summary"]["cached_targets"] == 1
            session.check([a])
            assert session.stats()["algorithms"]["summary"]["cached_targets"] == 2

    def test_full_lazy_run_promotes_to_retained_summary(self):
        """A query that reaches the fixed point anyway seeds later reuse."""
        with AnalysisSession(PROGRAM, default_algorithm="ef-opt") as session:
            first = session.check("main:never")  # unreachable: runs to fixpoint
            second = session.check("main:yes")
        assert not first.reachable and not first.details["reused_solve"]
        assert second.reachable and second.details["reused_solve"]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_early_stopped_run_retains_nothing(self, algorithm):
        """An algorithm is unsolved or holds one fixed point: an early stop
        keeps no iterate, and the next query starts from empty again."""
        with AnalysisSession(PROGRAM, default_algorithm=algorithm) as session:
            first = session.check("main:yes")
            assert first.stopped_early and not session.solved()
            second = session.check("main:yes")
            stats = session.stats()["algorithms"][algorithm]
        assert stats["solves"] == 0
        assert second.iterations == first.iterations
        assert not second.details["reused_solve"]


@pytest.mark.parametrize(
    "algorithm", ALGORITHMS + [f"cbr-k{bound}" for bound in range(3)]
)
def test_registered_systems_are_target_free(algorithm):
    """No equation body of a registered algorithm mentions ``Target``.

    Only the reachability query reads it, so one solved fixed point answers
    every target; the session relies on this for every algorithm it
    retains.
    """
    if algorithm.startswith("cbr-k"):
        encoder = ConcurrentEncoder(make_bluetooth(1, 1))
    else:
        encoder = SequentialEncoder(build_cfg(parse_program(PROGRAM)))
    system = algorithm_builder(algorithm)(encoder).system
    assert "Target" in system.inputs
    for name in system.equations:
        assert "Target" not in system.equation(name).referenced_relations(), name


class TestLifecycle:
    def test_validation_happens_once_at_construction(self, monkeypatch):
        import repro.api.session as session_module

        calls = []
        real = session_module.check_program
        monkeypatch.setattr(
            session_module, "check_program", lambda p: (calls.append(1), real(p))[1]
        )
        with AnalysisSession(PROGRAM) as session:
            assert calls == [1]
            session.check("main:yes")
            session.check("main:done")
            session.check("main:yes", algorithm="summary")
            assert calls == [1]

    def test_run_sequential_validate_flag_passes_through(self, monkeypatch):
        import repro.api.session as session_module

        calls = []
        real = session_module.check_program
        monkeypatch.setattr(
            session_module, "check_program", lambda p: (calls.append(1), real(p))[1]
        )
        program = parse_program(PROGRAM)
        locations = resolve_target(program, "main:yes")
        run_sequential(program, locations, validate=False)
        assert calls == []
        run_sequential(program, locations, validate=True)
        assert calls == [1]

    def test_constructing_without_validation_skips_check(self):
        session = AnalysisSession(PROGRAM, validate=False)
        assert session.validations == 0
        session.close()

    def test_closed_session_rejects_queries(self):
        session = AnalysisSession(PROGRAM)
        session.check("main:yes")
        session.close()
        session.close()  # idempotent
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.check("main:yes")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            AnalysisSession(PROGRAM, default_algorithm="made-up")
        with AnalysisSession(PROGRAM) as session:
            with pytest.raises(ValueError, match="unknown algorithm"):
                session.check("main:yes", algorithm="made-up")


class TestBatchGrouping:
    def _queries(self):
        return [
            BatchQuery(name="p:yes", program=PROGRAM, target="main:yes", expected=True),
            BatchQuery(name="p:never", program=PROGRAM, target="main:never", expected=False),
            BatchQuery(name="p:cold", program=PROGRAM, target="set_flag:cold", expected=True),
            BatchQuery(name="other", program=OTHER_PROGRAM, target="main:hit", expected=False),
        ]

    def test_group_queries_partitions_by_program_and_algorithm(self):
        queries = self._queries()
        queries.append(
            BatchQuery(name="p:sum", program=PROGRAM, target="main:yes", algorithm="summary")
        )
        groups = group_queries(queries)
        assert sorted(index for group in groups for index in group) == [0, 1, 2, 3, 4]
        assert [0, 1, 2] in groups  # same program text + algorithm
        assert [3] in groups  # different program
        assert [4] in groups  # different algorithm

    def test_concurrent_queries_group_by_program_and_bound(self):
        queries = [
            BatchQuery(name="c1", program="x", target="error", concurrent=True),
            BatchQuery(name="c2", program="x", target="t:main:a", concurrent=True),
            BatchQuery(
                name="c3", program="x", target="error", concurrent=True, context_switches=1
            ),
        ]
        # Same program and bound share a session; another bound does not.
        assert group_queries(queries) == [[0, 1], [2]]

    def test_grouped_batch_matches_ungrouped_verdicts(self):
        queries = self._queries()
        grouped = run_batch(queries, jobs=1)
        fresh = [run_shard(query) for query in queries]
        assert not grouped.failures() and all(shard.ok for shard in fresh)
        assert not grouped.mismatches() and not any(shard.mismatch for shard in fresh)
        assert grouped.verdicts() == {shard.name: shard.result.reachable for shard in fresh}
        # The three same-program queries shared one solve...
        assert grouped.reused_count == 2
        assert grouped.queries_per_solve == pytest.approx(2.0)
        # ...while a query run alone pays its own.
        assert not any(shard.reused_solve for shard in fresh)
        flags = {row["name"]: row["reused_solve"] for row in grouped.rows()}
        assert flags == {"p:yes": False, "p:never": True, "p:cold": True, "other": False}

    def test_grouped_batch_determinism_across_jobs(self):
        queries = self._queries()
        sequential = run_batch(queries, jobs=1)
        parallel = run_batch(queries, jobs=2)
        assert not parallel.failures()
        assert sequential.verdicts() == parallel.verdicts()
        for seq_shard, par_shard in zip(sequential.shards, parallel.shards):
            assert seq_shard.name == par_shard.name
            assert seq_shard.reused_solve == par_shard.reused_solve
            assert seq_shard.result.iterations == par_shard.result.iterations

    def test_bad_target_fails_only_its_query_in_a_group(self):
        queries = [
            BatchQuery(name="good", program=PROGRAM, target="main:yes"),
            BatchQuery(name="bad", program=PROGRAM, target="main:missing"),
            BatchQuery(name="also-good", program=PROGRAM, target="main:done"),
        ]
        report = run_batch(queries, jobs=1)
        assert [shard.name for shard in report.failures()] == ["bad"]
        assert report.verdicts()["good"] is True
        assert report.verdicts()["also-good"] is True

    def test_solve_attribution_survives_first_query_error(self):
        """When the group's first query errors, the solve is attributed to
        the first successful one — queries_per_solve stays meaningful."""
        queries = [
            BatchQuery(name="bad", program=PROGRAM, target="main:missing"),
            BatchQuery(name="good", program=PROGRAM, target="main:yes"),
            BatchQuery(name="also-good", program=PROGRAM, target="main:done"),
        ]
        report = run_batch(queries, jobs=1)
        assert [shard.name for shard in report.failures()] == ["bad"]
        flags = {s.name: s.reused_solve for s in report.shards if s.ok}
        assert flags == {"good": False, "also-good": True}
        assert report.queries_per_solve == pytest.approx(2.0)
        # The shard-level flag and the result's details must agree.
        for shard in report.shards:
            if shard.ok:
                assert shard.result.details["reused_solve"] == shard.reused_solve

    def test_broken_program_fails_the_whole_group(self):
        queries = [
            BatchQuery(name="q1", program="main( begin", target="main:a"),
            BatchQuery(name="q2", program="main( begin", target="main:b"),
        ]
        report = run_batch(queries, jobs=1)
        assert len(report.failures()) == 2
        assert all("ParseError" in shard.error for shard in report.failures())
