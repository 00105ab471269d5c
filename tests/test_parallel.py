"""Tests for the sharded batch evaluation subsystem (:mod:`repro.parallel`).

The load-bearing property is *determinism*: a batch must produce exactly the
same verdicts and iteration counts whether it runs in-process (``jobs=1``) or
fanned out over a process pool (``jobs=4``), and every shard's kernel
statistics must describe only that shard's own manager — per-shard managers
share nothing, so no cross-shard leakage is possible by construction, and
these tests pin that down observably.
"""

from __future__ import annotations

import pytest

from repro.algorithms import run_batch
from repro.benchgen import DriverSpec, TerminatorSpec, make_driver, make_terminator, regression_suite
from repro.parallel import BatchQuery, BatchReport, run_shard, run_shards

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

CONCURRENT = """
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


def figure2_sample():
    """A mixed Figure 2 sample: regression + driver + terminator queries."""
    queries = []
    for case in regression_suite(True)[:2] + regression_suite(False)[:2]:
        queries.append(
            BatchQuery(
                name=case.name,
                program=case.program,
                target=case.target,
                expected=case.expected,
            )
        )
    for positive in (True, False):
        spec = DriverSpec(
            name=f"driver-2-{'pos' if positive else 'neg'}",
            handlers=2,
            flags=2,
            helpers=1,
            positive=positive,
        )
        queries.append(
            BatchQuery(
                name=spec.name,
                program=make_driver(spec),
                target=spec.target,
                expected=positive,
            )
        )
    spec = TerminatorSpec(name="terminator-2b-pos", counter_bits=2, variant="iterative", positive=True)
    queries.append(
        BatchQuery(name=spec.name, program=make_terminator(spec), target=spec.target, expected=True)
    )
    return queries


class TestShardWorker:
    def test_run_shard_builds_private_stack(self):
        shard = run_shard(BatchQuery(name="pos", program=POSITIVE, target="main:target"))
        assert shard.ok
        assert shard.result.reachable
        assert shard.live_nodes() > 0
        assert shard.gc_collections() == 0
        assert shard.pid > 0

    def test_run_shard_captures_frontend_errors(self):
        shard = run_shard(BatchQuery(name="bad", program="main( begin oops", target="error"))
        assert not shard.ok
        assert shard.result is None
        assert "ParseError" in shard.error

    def test_run_shard_concurrent(self):
        shard = run_shard(
            BatchQuery(
                name="bt",
                program=CONCURRENT,
                target="one:main:hit",
                concurrent=True,
                context_switches=2,
            )
        )
        assert shard.ok and shard.result.reachable

    def test_expected_mismatch_is_flagged(self):
        shard = run_shard(
            BatchQuery(name="neg", program=NEGATIVE, target="main:target", expected=True)
        )
        assert shard.ok and shard.mismatch


class TestScheduler:
    def test_jobs_one_is_sequential(self):
        results, mode, reason = run_shards(
            [BatchQuery(name="p", program=POSITIVE, target="main:target")], jobs=4
        )
        assert mode == "sequential"  # single-query batches never pay for a pool
        results, mode, reason = run_shards(
            [
                BatchQuery(name="p", program=POSITIVE, target="main:target"),
                BatchQuery(name="n", program=NEGATIVE, target="main:target"),
            ],
            jobs=1,
        )
        assert mode == "sequential" and reason is None
        assert [s.result.reachable for s in results] == [True, False]

    def test_unpicklable_group_runs_inline_without_poisoning_batch(self):
        # One unpicklable query no longer demotes the whole batch to the
        # sequential fallback: its group runs inline in the driver while the
        # picklable groups still fan out over the pool.
        import os

        from repro.boolprog import parse_program

        program = parse_program(POSITIVE)
        program.__dict__["_unpicklable"] = lambda: None
        queries = [
            BatchQuery(name="p", program=program, target="main:target"),
            BatchQuery(name="n", program=NEGATIVE, target="main:target"),
            BatchQuery(name="p2", program=POSITIVE, target="main:target"),
        ]
        results, mode, reason = run_shards(queries, jobs=4)
        assert mode == "process-pool"
        assert "inline" in reason
        assert [s.result.reachable for s in results] == [True, False, True]
        by_name = {s.name: s for s in results}
        assert by_name["p"].pid == os.getpid()  # the offending group, inline
        assert by_name["n"].pid != os.getpid()  # healthy groups still pooled
        assert by_name["p2"].pid != os.getpid()

    def test_fully_unpicklable_batch_falls_back_to_sequential(self):
        from repro.boolprog import parse_program

        program = parse_program(POSITIVE)
        program.__dict__["_unpicklable"] = lambda: None
        negative = parse_program(NEGATIVE)
        negative.__dict__["_unpicklable"] = lambda: None
        queries = [
            BatchQuery(name="p", program=program, target="main:target"),
            BatchQuery(name="n", program=negative, target="main:target"),
        ]
        results, mode, reason = run_shards(queries, jobs=4)
        assert mode == "sequential-fallback"
        assert "picklable" in reason
        assert [s.result.reachable for s in results] == [True, False]

    def test_process_pool_runs_and_preserves_order(self):
        queries = [
            BatchQuery(name="p", program=POSITIVE, target="main:target"),
            BatchQuery(name="n", program=NEGATIVE, target="main:target"),
            BatchQuery(name="p2", program=POSITIVE, target="main:target"),
        ]
        results, mode, reason = run_shards(queries, jobs=2)
        assert mode == "process-pool" and reason is None
        assert [s.name for s in results] == ["p", "n", "p2"]
        assert [s.result.reachable for s in results] == [True, False, True]
        # Results crossed a process boundary: workers are other processes.
        import os

        assert all(s.pid != os.getpid() for s in results)

    def test_groups_stay_on_one_worker_under_contention(self):
        # More workers than cores and interleaved groups: a group whose
        # later queries left the worker holding its session would re-solve
        # (reused_solve False) or run on a second pid.
        queries = []
        for number in range(12):
            source = (POSITIVE if number % 2 else NEGATIVE) + f"// program {number}\n"
            for target in ["main:target", ["main:target"], "main:target"][: 1 + number % 3]:
                queries.append(
                    BatchQuery(
                        name=f"g{number}:{len(queries)}",
                        program=source,
                        target=target,
                        expected=bool(number % 2),
                    )
                )
        results, mode, _ = run_shards(queries[::2] + queries[1::2], jobs=4)
        assert mode == "process-pool"
        assert all(s.ok for s in results) and not any(s.mismatch for s in results)
        groups = {}
        for shard in results:
            groups.setdefault(shard.name.split(":")[0], []).append(shard)
        for shards in groups.values():
            assert len({shard.pid for shard in shards}) == 1
            assert [shard.reused_solve for shard in shards] == [False] + [True] * (
                len(shards) - 1
            )


class TestRunBatch:
    def test_accepts_mappings(self):
        report = run_batch(
            [{"name": "p", "program": POSITIVE, "target": "main:target"}], jobs=1
        )
        assert isinstance(report, BatchReport)
        assert report.verdicts() == {"p": True}
        assert report.any_reachable

    def test_shard_errors_do_not_kill_the_batch(self):
        report = run_batch(
            [
                BatchQuery(name="bad", program="main( begin", target="error"),
                BatchQuery(name="good", program=NEGATIVE, target="main:target"),
            ],
            jobs=1,
        )
        assert len(report.failures()) == 1
        assert report.verdicts() == {"bad": None, "good": False}
        table = report.format_table()
        assert "ERROR" in table and "good" in table

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_user_errors_are_error_not_crashed(self, jobs):
        """A parse error and an unknown label are user errors, as in the daemon."""
        report = run_batch(
            [
                BatchQuery(name="parse", program="main( begin", target="error"),
                BatchQuery(name="label", program=NEGATIVE, target="main:nolabel"),
            ],
            jobs=jobs,
        )
        assert [shard.status for shard in report.shards] == ["error", "error"]
        assert report.crash_failures() == []
        assert report.status_counts() == {"error": 2}

    @pytest.mark.parametrize("jobs", [4])
    def test_batch_determinism_across_jobs(self, jobs):
        """jobs=1 and jobs=4 must agree on verdicts and iteration counts."""
        sample = figure2_sample()
        sequential = run_batch(sample, jobs=1)
        parallel = run_batch(sample, jobs=jobs)
        assert not sequential.failures() and not parallel.failures()
        assert not sequential.mismatches() and not parallel.mismatches()
        assert sequential.verdicts() == parallel.verdicts()
        for seq_shard, par_shard in zip(sequential.shards, parallel.shards):
            assert seq_shard.name == par_shard.name
            assert seq_shard.result.iterations == par_shard.result.iterations
            assert seq_shard.result.equation_evaluations == par_shard.result.equation_evaluations
            assert seq_shard.result.summary_nodes == par_shard.result.summary_nodes

    def test_per_shard_stats_are_independent(self):
        """Each shard's snapshot describes its own manager, not a shared one."""
        sample = figure2_sample()
        report = run_batch(sample, jobs=4)
        assert not report.failures()
        snapshots = [shard.result.stats for shard in report.shards]
        # Distinct objects per shard...
        assert len({id(stats) for stats in snapshots}) == len(snapshots)
        for shard in report.shards:
            # ... each with its own manager section and positive live count.
            manager_stats = shard.result.stats["manager"]
            assert isinstance(manager_stats, dict)
            assert shard.live_nodes() > 0
        # No leakage: a shard re-run alone reports the same kernel numbers as
        # it did inside the batch (a shared manager would accumulate nodes).
        solo = run_shard(sample[0])
        batched = report.shards[0]
        assert solo.live_nodes() == batched.live_nodes()
        assert solo.result.details["bdd_variables"] == batched.result.details["bdd_variables"]

    def test_speedup_accounting(self):
        report = run_batch(
            [
                BatchQuery(name="p", program=POSITIVE, target="main:target"),
                BatchQuery(name="n", program=NEGATIVE, target="main:target"),
            ],
            jobs=2,
        )
        assert report.wall_seconds > 0
        assert report.shard_seconds > 0
        assert report.speedup == pytest.approx(report.shard_seconds / report.wall_seconds)
        rows = report.rows()
        assert [row["name"] for row in rows] == ["p", "n"]
        assert rows[0]["reachable"] is True and rows[1]["reachable"] is False
