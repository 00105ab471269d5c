#!/usr/bin/env python3
"""Regenerate the rows of Figure 2 and Figure 3 as plain-text tables.

The harness prints tables in the same layout as the paper so the results
can be compared side by side and pasted into EXPERIMENTS.md; the ``*-smoke``
subcommands and ``faults`` are the CI gates.

Usage::

    python benchmarks/report.py figure2            # sequential suites
    python benchmarks/report.py figure2-parallel   # sharded sweep + speedup
    python benchmarks/report.py figure3            # Bluetooth, explicit engine
    python benchmarks/report.py figure3-symbolic   # Bluetooth, fixed-point engine
    python benchmarks/report.py figure3-parallel   # Bluetooth, sharded symbolic
    python benchmarks/report.py session            # fresh vs session-reuse sweep
    python benchmarks/report.py kernel             # BDD kernel micro-benchmarks
    python benchmarks/report.py parallel-smoke     # CI: pool pickling smoke
    python benchmarks/report.py session-smoke      # CI: per-shard session reuse
    python benchmarks/report.py faults             # limits-armed overhead table
    python benchmarks/report.py faults-smoke       # CI: worker-kill retry smoke
    python benchmarks/report.py optimize           # -O0 vs -O2 pre-analysis table
    python benchmarks/report.py optimize-smoke     # CI: -O2 differential gate
    python benchmarks/report.py witness-smoke      # CI: replay-validated witness traces
    python benchmarks/report.py scaling-smoke      # CI: scaling rows vs polarity and Bebop
    python benchmarks/report.py scaling            # BENCH_scaling.json record column
    python benchmarks/report.py concurrent-smoke   # CI: Bluetooth via sessions vs explicit
    python benchmarks/report.py all
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro.algorithms import run_batch, run_concurrent, run_sequential
from repro.api import AnalysisSession
from repro.baselines import run_bebop, run_concurrent_explicit, run_moped
from repro.benchgen import (
    BLUETOOTH_CONFIGURATIONS,
    DriverSpec,
    TerminatorSpec,
    bluetooth_source,
    driver_suite,
    make_bluetooth,
    make_driver,
    make_terminator,
    regression_suite,
    terminator_suite,
)
from repro.boolprog import build_cfg
from repro.encode.concurrent import ConcurrentEncoder
from repro.frontends import resolve_target
from repro.parallel import BatchQuery

SEQUENTIAL_ENGINES: Dict[str, Callable] = {
    "EF": lambda p, locs: run_sequential(p, locs, algorithm="ef"),
    "EFopt": lambda p, locs: run_sequential(p, locs, algorithm="ef-opt"),
    "Bebop": run_bebop,
    "Moped": run_moped,
}


def _sequential_row(name: str, program, locations, expected: bool) -> str:
    cells = [f"{name:28s}", "Yes" if expected else "No "]
    nodes = 0
    stats_line = "  (no kernel statistics)"
    for engine_name, runner in SEQUENTIAL_ENGINES.items():
        started = time.perf_counter()
        result = runner(program, locations)
        elapsed = time.perf_counter() - started
        assert result.reachable == expected, f"{name}: {engine_name} disagrees"
        if engine_name == "EFopt":
            nodes = result.summary_nodes
            stats_line = _kernel_stats_line(result)
        cells.append(f"{elapsed:7.2f}")
    cells.insert(2, f"{nodes:8d}")
    return "  ".join(cells) + "\n" + stats_line


def _kernel_stats_line(result) -> str:
    """One-line kernel summary (hoists, memo/apply hit rates, node/GC counts)."""
    stats = result.stats
    if not stats:
        return "  (no kernel statistics)"
    manager = stats.get("manager", {})
    and_rate = manager.get("ops", {}).get("and", {}).get("hit_rate", 0.0)
    gc = manager.get("gc", {})
    states = (
        f"summary_states={result.summary_states} "
        if result.summary_states is not None
        else ""
    )
    return (
        f"  kernel: {states}static_hoists={stats.get('static_hoists', 0)} "
        f"plan_memo_hit_rate={stats.get('plan_memo_hit_rate', 0.0):.2f} "
        f"and_hit_rate={and_rate:.2f} "
        f"peak_nodes={manager.get('peak_nodes', 0)} "
        f"live_nodes={manager.get('nodes', 0)} "
        f"gc_collections={gc.get('collections', 0)} "
        f"gc_reclaimed={gc.get('reclaimed', 0)}"
    )


def figure2(sizes: Sequence[int] = (2, 3), counter_bits: Sequence[int] = (2, 3)) -> None:
    """The sequential suites of Figure 2 (regression, drivers, terminator)."""
    header = (
        f"{'benchmark':28s}  {'Reach?':4s}  {'EFopt BDD':>8s}  "
        + "  ".join(f"{name:>7s}" for name in SEQUENTIAL_ENGINES)
    )
    print("== Figure 2: sequential Boolean programs (times in seconds) ==")
    print(header)
    print("-" * len(header))
    for positive in (True, False):
        suite = regression_suite(positive)
        label = f"Regression ({'positive' if positive else 'negative'}, {len(suite)} programs)"
        totals = {name: 0.0 for name in SEQUENTIAL_ENGINES}
        nodes = 0
        for case in suite:
            locations = resolve_target(case.program, case.target)
            for engine_name, runner in SEQUENTIAL_ENGINES.items():
                started = time.perf_counter()
                result = runner(case.program, locations)
                totals[engine_name] += time.perf_counter() - started
                assert result.reachable == case.expected
                if engine_name == "EFopt":
                    nodes = max(nodes, result.summary_nodes)
        row = [f"{label:28s}", "Yes" if positive else "No ", f"{nodes:8d}"]
        row += [f"{totals[name]:7.2f}" for name in SEQUENTIAL_ENGINES]
        print("  ".join(row))
    for positive in (True, False):
        for handlers in sizes:
            spec = DriverSpec(
                name=f"Driver {handlers} handlers ({'pos' if positive else 'neg'})",
                handlers=handlers,
                flags=min(4, handlers),
                helpers=max(1, handlers // 2),
                positive=positive,
            )
            program = make_driver(spec)
            print(_sequential_row(spec.name, program, resolve_target(program, spec.target), positive))
    for positive in (True, False):
        for bits in counter_bits:
            for variant in ("iterative", "schoose"):
                spec = TerminatorSpec(
                    name=f"Terminator {variant} {bits}b ({'pos' if positive else 'neg'})",
                    counter_bits=bits,
                    variant=variant,
                    positive=positive,
                )
                program = make_terminator(spec)
                print(
                    _sequential_row(
                        spec.name, program, resolve_target(program, spec.target), positive
                    )
                )


def _figure2_queries() -> List[BatchQuery]:
    """The Figure 2 EFopt sweep as shard queries, both polarities: the
    regression suite, drivers with 2 and 3 handlers, terminators of 2 and 3
    bits."""
    rows = [
        (case.name, case.program, case.target, case.expected)
        for positive in (True, False)
        for case in regression_suite(positive)
    ]
    for positive in (True, False):
        rows += [
            (spec.name, make_driver(spec), spec.target, positive)
            for spec in driver_suite(positive, sizes=(2, 3))
        ]
    for positive in (True, False):
        rows += [
            (spec.name, make_terminator(spec), spec.target, positive)
            for spec in terminator_suite(counter_bits=(2, 3), positive=positive)
        ]
    return [
        BatchQuery(
            name=name, program=program, target=target, algorithm="ef-opt", expected=expected
        )
        for name, program, target, expected in rows
    ]


def _parallel_table(queries, jobs: int, title: str) -> None:
    """Run a batch sequentially and sharded; print the table and speedup.

    Verdicts must be identical per row between the two runs — per-shard
    managers share nothing, so any disagreement is a bug, not noise.
    """
    print(title)
    sequential = run_batch(queries, jobs=1)
    parallel = run_batch(queries, jobs=jobs)
    for seq_shard, par_shard in zip(sequential.shards, parallel.shards):
        assert seq_shard.ok and par_shard.ok, (
            f"{par_shard.name}: {seq_shard.error or par_shard.error}"
        )
        assert seq_shard.result.reachable == par_shard.result.reachable, (
            f"{par_shard.name}: sequential and sharded verdicts disagree"
        )
    mismatches = parallel.mismatches()
    assert not mismatches, f"verdict mismatches: {[s.name for s in mismatches]}"
    print(parallel.format_table())
    print(
        f"sequential wall={sequential.wall_seconds:.2f}s  "
        f"parallel wall={parallel.wall_seconds:.2f}s  "
        f"speedup={sequential.wall_seconds / max(parallel.wall_seconds, 1e-9):.2f}x "
        f"(jobs={jobs}, mode={parallel.mode})"
    )


def figure2_parallel(jobs: int = 4) -> None:
    """The Figure 2 sweep, sharded over per-query BDD managers."""
    _parallel_table(
        _figure2_queries(),
        jobs,
        f"== Figure 2 (sharded): EFopt sweep over {jobs} worker processes ==",
    )


#: The symbolic Bluetooth sweep: (configuration, k, reachable?), kept to the
#: bounds that finish in seconds.
FIGURE3_SYMBOLIC_CASES = [
    ("1A1S", 1, False),
    ("1A1S", 2, False),
    ("1A2S", 2, False),
    ("1A2S", 3, True),
    ("2A2S", 3, True),
]


def figure3_parallel(jobs: int = 4) -> None:
    """The symbolic Bluetooth sweep, sharded over per-query BDD managers."""
    queries = [
        BatchQuery(
            name=f"{config}-k{switches}",
            program=make_bluetooth(*BLUETOOTH_CONFIGURATIONS[config]),
            target="error",
            concurrent=True,
            context_switches=switches,
            expected=expected,
        )
        for config, switches, expected in FIGURE3_SYMBOLIC_CASES
    ]
    _parallel_table(
        queries,
        jobs,
        f"== Figure 3 (sharded): symbolic Bluetooth sweep over {jobs} worker processes ==",
    )


def _multi_target_sweep(program, primary_target):
    """One query per procedure exit plus the suite target (session workload)."""
    cfg = build_cfg(program)
    targets = [resolve_target(program, primary_target)]
    targets += [
        [(cfg.module_of(name), cfg.procedure_cfg(name).exit)] for name in cfg.procedures
    ]
    return targets


def _session_sweep(max_targets: int = 8):
    """The Figure 2 driver/terminator programs as multi-target sweeps.

    Each program gets one query per procedure exit plus the suite's own
    target — the compile-once/query-many shape ("which procedures can
    return, and is the bug reachable?") that a session amortises.
    """
    sweeps = []
    specs = []
    for positive in (True, False):
        for handlers in (2, 3):
            specs.append(
                (
                    make_driver(
                        DriverSpec(
                            name=f"driver-{handlers}",
                            handlers=handlers,
                            flags=min(4, handlers),
                            helpers=max(1, handlers // 2),
                            positive=positive,
                        )
                    ),
                    f"Driver {handlers} ({'pos' if positive else 'neg'})",
                    "error",
                )
            )
    for variant in ("iterative", "schoose"):
        for positive in (True, False):
            spec = TerminatorSpec(
                name="terminator-2b", counter_bits=2, variant=variant, positive=positive
            )
            specs.append(
                (
                    make_terminator(spec),
                    f"Terminator {variant} 2b ({'pos' if positive else 'neg'})",
                    spec.target,
                )
            )
    for program, label, primary in specs:
        targets = _multi_target_sweep(program, primary)
        sweeps.append((label, program, targets[:max_targets]))
    return sweeps


def session_table(algorithm: str = "summary") -> None:
    """Fresh-run vs session-reuse wall clock on multi-target Figure 2 sweeps.

    Fresh: one full ``run_sequential`` per target (validate + CFG + encode +
    solve each time).  Session: one ``AnalysisSession`` per program — solve
    once, answer every target as a query post-pass.  Verdicts must be
    identical; for the target-free ``summary`` algorithm the session total
    is asserted strictly below the fresh total (the solve amortises).
    """
    print(f"== Session reuse: fresh vs compile-once/query-many ({algorithm}) ==")
    header = (
        f"{'program':26s}  {'targets':>7s}  {'fresh (s)':>9s}  {'session (s)':>11s}  "
        f"{'speedup':>7s}  {'reused':>6s}  {'states':>7s}"
    )
    print(header)
    print("-" * len(header))
    total_fresh = 0.0
    total_session = 0.0
    for label, program, targets in _session_sweep():
        started = time.perf_counter()
        fresh = [
            run_sequential(program, locations, algorithm=algorithm) for locations in targets
        ]
        fresh_seconds = time.perf_counter() - started
        started = time.perf_counter()
        with AnalysisSession(program, default_algorithm=algorithm) as session:
            reused = session.check_all(targets, algorithm=algorithm)
        session_seconds = time.perf_counter() - started
        for fresh_result, session_result in zip(fresh, reused):
            assert fresh_result.reachable == session_result.reachable, (
                f"{label}: fresh and session verdicts disagree"
            )
        reuse_count = sum(1 for r in reused if r.details.get("reused_solve"))
        states = reused[-1].summary_states
        total_fresh += fresh_seconds
        total_session += session_seconds
        print(
            f"{label:26s}  {len(targets):7d}  {fresh_seconds:9.2f}  {session_seconds:11.2f}  "
            f"{fresh_seconds / max(session_seconds, 1e-9):6.2f}x  {reuse_count:6d}  "
            f"{states if states is not None else 0:7d}"
        )
    print(
        f"total: fresh={total_fresh:.2f}s session={total_session:.2f}s "
        f"speedup={total_fresh / max(total_session, 1e-9):.2f}x"
    )
    if algorithm == "summary":
        assert total_session < total_fresh, (
            "session reuse must beat fresh runs on the summary algorithm "
            f"(fresh={total_fresh:.2f}s, session={total_session:.2f}s)"
        )
        print("session reuse OK: identical verdicts, solve amortised across targets")


def session_smoke(jobs: int = 2) -> None:
    """CI smoke: session reuse, in process and inside a jobs=2 process pool.

    In process, on the multi-target sweeps of the Figure 2 drivers and
    terminators and of six regression programs, one session's
    ``check_all`` must give the verdicts of fresh per-target runs under
    ``summary`` and ``ef-opt``.  In the pool, one program with several
    targets must group onto one session (>= 1 reused solve), a second
    program keeps the pool honest, and the grouped verdicts must match one
    fresh ``check_reachability`` per query.
    """
    from repro.frontends.getafix import check_reachability

    sweeps = _session_sweep() + [
        (case.name, case.program, _multi_target_sweep(case.program, case.target))
        for case in regression_suite(True)[:3] + regression_suite(False)[:3]
    ]
    for algorithm in ("summary", "ef-opt"):
        for label, program, targets in sweeps:
            fresh = [
                run_sequential(program, locations, algorithm=algorithm).reachable
                for locations in targets
            ]
            with AnalysisSession(program, default_algorithm=algorithm) as session:
                reused = [result.reachable for result in session.check_all(targets)]
            assert reused == fresh, f"{label}: {algorithm} session verdicts diverged"
    print(
        f"session smoke: {len(sweeps)} multi-target sweeps x 2 algorithms, "
        "session verdicts equal fresh runs"
    )

    multi = """
    decl g;
    main() begin
      g := T;
      if (g) then a: skip; fi
      if (!g) then b: skip; fi
      c: skip;
    end
    """
    other = """
    decl h;
    main() begin
      h := F;
      if (h) then hit: skip; fi
    end
    """
    queries = [
        BatchQuery(name="multi:a", program=multi, target="main:a", expected=True),
        BatchQuery(name="multi:b", program=multi, target="main:b", expected=False),
        BatchQuery(name="multi:c", program=multi, target="main:c", expected=True),
        BatchQuery(name="other:hit", program=other, target="main:hit", expected=False),
    ]
    fresh = {
        query.name: check_reachability(query.program, target=query.target).reachable
        for query in queries
    }
    reused = run_batch(queries, jobs=jobs)
    assert reused.mode == "process-pool", f"expected a process pool, ran {reused.mode}"
    assert not reused.failures(), [s.error for s in reused.failures()]
    assert not reused.mismatches(), [s.name for s in reused.mismatches()]
    assert fresh == reused.verdicts(), "grouped verdicts diverged from fresh"
    assert reused.reused_count >= 1, "expected at least one reused solve in the group"
    print(reused.format_table())
    print(
        f"session smoke OK: identical verdicts fresh vs reused, "
        f"{reused.reused_count} reused solve(s), "
        f"queries/solve={reused.queries_per_solve:.2f} at jobs={jobs}"
    )


def parallel_smoke() -> None:
    """CI smoke: a jobs=2 pool over two small regression programs.

    Exercises process-pool pickling of programs, targets and results on
    every push; fails loudly if the pool silently degraded to the
    sequential fallback.
    """
    cases = regression_suite(True)[:1] + regression_suite(False)[:1]
    queries = [
        BatchQuery(
            name=case.name, program=case.program, target=case.target, expected=case.expected
        )
        for case in cases
    ]
    report = run_batch(queries, jobs=2)
    assert report.mode == "process-pool", f"expected a process pool, ran {report.mode}"
    assert not report.failures(), [s.error for s in report.failures()]
    assert not report.mismatches(), [s.name for s in report.mismatches()]
    assert len(report.worker_pids()) >= 1
    print(report.format_table())
    print("parallel smoke OK: pool pickling of programs/targets/results works")


def faults_table(rounds: int = 5, overhead_budget: float = 0.05) -> None:
    """Overhead of an armed-but-unhit resource envelope on the scaling rows.

    Runs every :func:`_scaling_rows` row under ``ef-opt`` bare and under
    generous limits (a deadline and node budget far above what the sweep
    needs, so enforcement checkpoints run but never trip).  Each row runs
    ``rounds`` times each way, alternating which goes first, so drift in
    machine load hits both sides alike; the sweep's time is the sum of the
    per-row min wall clocks.  The cooperative checks live on the ``_mk``
    hot path, so this table is the evidence that governance is affordable:
    the armed sweep must stay within ``overhead_budget`` of the bare one,
    with identical verdicts.  The sweep takes seconds, so there is no
    absolute allowance for timer noise, and an armed run made 10% slower
    fails.
    """
    from repro.frontends.getafix import check_reachability
    from repro.limits import ResourceLimits

    print("== Resource-governance overhead: scaling rows (ef-opt) ==")
    rows = _scaling_rows()
    limits = ResourceLimits(deadline_seconds=600.0, node_budget=50_000_000)

    def run(spec, program, armed: bool) -> float:
        started = time.perf_counter()
        result = check_reachability(
            program,
            target=spec.target,
            algorithm="ef-opt",
            limits=limits if armed else None,
        )
        elapsed = time.perf_counter() - started
        assert result.reachable == spec.positive, (
            f"{spec.name}: verdict changed under {'armed' if armed else 'bare'} run"
        )
        return elapsed

    bare = armed = 0.0
    for spec, program in rows:
        runs: Dict[bool, List[float]] = {False: [], True: []}
        for round_ in range(rounds):
            for is_armed in (False, True) if round_ % 2 == 0 else (True, False):
                runs[is_armed].append(run(spec, program, is_armed))
        bare += min(runs[False])
        armed += min(runs[True])
    overhead = (armed - bare) / bare
    print(
        f"{'run':10s}  {'programs':>8s}  {'min of':>6s}  {'wall (s)':>8s}"
    )
    print(f"{'bare':10s}  {len(rows):8d}  {rounds:6d}  {bare:8.3f}")
    print(f"{'governed':10s}  {len(rows):8d}  {rounds:6d}  {armed:8.3f}")
    print(f"overhead: {overhead * 100:+.1f}% (budget {overhead_budget * 100:.0f}%)")
    assert armed <= bare * (1.0 + overhead_budget), (
        f"governance overhead {overhead * 100:.1f}% exceeds the "
        f"{overhead_budget * 100:.0f}% budget (bare={bare:.3f}s armed={armed:.3f}s)"
    )
    print("faults overhead OK: armed limits stay within budget, verdicts identical")


def faults_smoke(jobs: int = 2) -> None:
    """CI smoke: the pool's retry-once policy, answers unchanged.

    Runs a two-program batch clean, then twice with an injected worker
    kill: once transient (latched on a token file, so exactly one attempt
    dies) — the killed query must re-run on a rebuilt worker, end
    ``retried`` and keep its clean verdict — and once persistent — the
    crasher must end ``crashed`` after its second death while the innocent
    query is answered ``ok``.
    """
    import os
    import tempfile

    from repro.parallel import run_shards
    from repro.testing import FaultPlan

    positive = """
    decl g;
    main() begin
      g := T;
      if (g) then target: skip; fi
    end
    """
    negative = """
    decl g;
    main() begin
      g := F;
      if (g) then target: skip; fi
    end
    """
    queries = [
        BatchQuery(name="victim", program=positive, target="main:target", expected=True),
        BatchQuery(name="bystander", program=negative, target="main:target", expected=False),
    ]
    clean = run_batch(queries, jobs=jobs)
    assert clean.mode == "process-pool", f"expected a process pool, ran {clean.mode}"
    assert not clean.failures(), [s.error for s in clean.failures()]
    token = tempfile.mktemp(prefix="getafix-fault-latch-")
    try:
        plan = FaultPlan(kill_query="victim", once_token=token)
        results, mode, _ = run_shards(queries, jobs=jobs, fault_plan=plan)
    finally:
        if os.path.exists(token):
            os.unlink(token)
    assert mode == "process-pool", f"expected a process pool, ran {mode}"
    by_name = {shard.name: shard for shard in results}
    assert by_name["victim"].status == "retried", (
        f"killed shard was not retried: {by_name['victim']}"
    )
    assert by_name["victim"].retries == 1
    verdicts = {shard.name: shard.result.reachable for shard in results}
    assert verdicts == clean.verdicts(), (
        f"fault-injected verdicts diverged: {verdicts} vs {clean.verdicts()}"
    )
    assert not any(shard.mismatch for shard in results)

    results, mode, _ = run_shards(queries, jobs=jobs, fault_plan=FaultPlan(kill_query="victim"))
    assert mode == "process-pool", f"expected a process pool, ran {mode}"
    by_name = {shard.name: shard for shard in results}
    assert by_name["victim"].status == "crashed", (
        f"persistent crasher was not convicted: {by_name['victim']}"
    )
    assert by_name["victim"].retries == 1
    assert by_name["bystander"].status == "ok", (
        f"innocent query was not answered: {by_name['bystander']}"
    )
    assert by_name["bystander"].result.reachable is False
    print(
        f"faults smoke OK: at jobs={jobs} a transient worker kill was retried once "
        f"with the clean verdicts, a persistent one ended crashed after "
        f"{by_name['victim'].retries + 1} attempts, the bystander answered ok"
    )


def figure3(max_switches: int = 6) -> None:
    """The Bluetooth table of Figure 3, using the explicit engine (all bounds)."""
    print("== Figure 3: Bluetooth driver, explicit engine ==")
    print(f"{'config':6s}  {'switches':>8s}  {'Reachable?':>10s}  {'configs':>10s}  {'time (s)':>9s}")
    for name, (adders, stoppers) in (
        ("1A1S", (1, 1)),
        ("1A2S", (1, 2)),
        ("2A1S", (2, 1)),
        ("2A2S", (2, 2)),
    ):
        program = make_bluetooth(adders, stoppers)
        locations = ConcurrentEncoder(program).error_locations()
        for switches in range(1, max_switches + 1):
            started = time.perf_counter()
            result = run_concurrent_explicit(
                program, locations, context_switches=switches
            )
            elapsed = time.perf_counter() - started
            print(
                f"{name:6s}  {switches:8d}  {result.verdict():>10s}  "
                f"{result.details['configurations']:10d}  {elapsed:9.2f}"
            )


def figure3_symbolic(max_switches: int = 3) -> None:
    """The Bluetooth table of Figure 3, using the Section 5 fixed-point algorithm."""
    print("== Figure 3: Bluetooth driver, symbolic bounded context switching ==")
    print(f"{'config':6s}  {'switches':>8s}  {'Reachable?':>10s}  {'BDD nodes':>10s}  {'time (s)':>9s}")
    for name, (adders, stoppers) in (("1A1S", (1, 1)), ("1A2S", (1, 2)), ("2A2S", (2, 2))):
        program = make_bluetooth(adders, stoppers)
        locations = ConcurrentEncoder(program).error_locations()
        for switches in range(1, max_switches + 1):
            started = time.perf_counter()
            result = run_concurrent(program, locations, context_switches=switches)
            elapsed = time.perf_counter() - started
            print(
                f"{name:6s}  {switches:8d}  {result.verdict():>10s}  "
                f"{result.summary_nodes:10d}  {elapsed:9.2f}"
            )


#: The Figure 3 pattern: the least context-switch bound at which each
#: Bluetooth configuration reaches the assertion failure (None: not within
#: the figure's six switches).
FIGURE3_BUG_BOUNDS = {"1A1S": None, "1A2S": 3, "2A1S": 4, "2A2S": 3}


def concurrent_smoke(jobs: int = 2, max_switches: int = 2) -> None:
    """CI smoke: bounded context switching through the analysis session.

    Every Bluetooth configuration at k = 0..``max_switches``, with the
    ``error`` target and the stopper's labelled last statement, runs once
    through ``run_concurrent`` and once in one grouped ``run_batch`` over a
    ``jobs``-process pool.  Every verdict must equal the explicit engine's,
    and the two targets of each (program, k) must share one solve.

    Then the Figure 3 pattern (:data:`FIGURE3_BUG_BOUNDS`) is checked on
    the explicit engine: the ``error`` target is unreachable one switch
    below each bug bound and reachable at it, and 1A1S stays unreachable
    at k = 6.  Reachability is monotone in k, so these cells pin the whole
    k = 1..6 column.  The bound-3 rows also run through ``run_concurrent``.
    """
    from repro.boolprog import parse_concurrent_program

    targets = ("error", "stopper1:main:halt")
    queries = []
    started = time.perf_counter()
    for config, (adders, stoppers) in BLUETOOTH_CONFIGURATIONS.items():
        source = bluetooth_source(adders, stoppers).replace(
            "    stopped := T;", "    halt: stopped := T;"
        )
        program = parse_concurrent_program(source)
        for switches in range(max_switches + 1):
            for target in targets:
                name = f"{config}/k={switches}/{target}"
                locations = resolve_target(program, target)
                expected = run_concurrent_explicit(program, locations, switches).reachable
                direct = run_concurrent(program, target, context_switches=switches)
                assert direct.reachable == expected, f"{name}: run_concurrent disagrees"
                queries.append(
                    BatchQuery(
                        name=name,
                        program=source,
                        target=target,
                        concurrent=True,
                        context_switches=switches,
                        expected=expected,
                    )
                )
    report = run_batch(queries, jobs=jobs)
    assert report.mode == "process-pool", f"expected a process pool, ran {report.mode}"
    assert not report.failures(), [shard.error for shard in report.failures()]
    assert not report.mismatches(), [shard.name for shard in report.mismatches()]
    reused = {row["name"]: row["reused_solve"] for row in report.rows()}
    for name, flag in reused.items():
        # The first target of each (program, k) pays the solve; the second
        # is a post-pass over it.
        assert flag == name.endswith(targets[1]), f"{name}: reused_solve={flag}"
    print(report.format_table())
    for config, bound in FIGURE3_BUG_BOUNDS.items():
        program = make_bluetooth(*BLUETOOTH_CONFIGURATIONS[config])
        locations = ConcurrentEncoder(program).error_locations()
        cells = {6: False} if bound is None else {bound - 1: False, bound: True}
        for switches, expected in cells.items():
            got = run_concurrent_explicit(program, locations, switches).reachable
            assert got == expected, f"{config}/k={switches}: explicit engine returned {got}"
        if bound == 3:
            got = run_concurrent(program, "error", context_switches=bound).reachable
            assert got, f"{config}/k={bound}: run_concurrent missed the bug"
    print(f"concurrent smoke: Figure 3 bug bounds {FIGURE3_BUG_BOUNDS} hold")
    print(
        f"concurrent smoke OK: {len(queries)} queries agree with the explicit engine "
        f"direct and grouped at jobs={jobs}, {report.reused_count} reused solves, "
        f"{time.perf_counter() - started:.2f} s"
    )


def kernel(bits: int = 14) -> None:
    """The BDD kernel micro-benchmark table (see bench_bdd_kernel.py)."""
    from bench_bdd_kernel import kernel_report
    from repro.bdd import BddManager

    print(f"== BDD kernel micro-benchmarks ({bits}-bit synthetic counter) ==")
    print(f"apply loop: {BddManager().stats()['kernel']}")
    print(
        f"{'case':10s}  {'time (s)':>9s}  {'checksum':>10s}  "
        f"{'peak nodes':>10s}  {'live nodes':>10s}  {'gc':>4s}"
    )
    for name, seconds, result in kernel_report(bits):
        print(
            f"{name:10s}  {seconds:9.3f}  {result.checksum:10d}  "
            f"{result.peak_nodes:10d}  {result.live_nodes:10d}  "
            f"{result.gc_collections:4d}"
        )


def _optimize_corpus():
    """The full benchgen corpus as (name, program, target, expected) rows.

    Sequential programs only — the pre-analysis pipeline rejects concurrent
    queries, so the Bluetooth configurations stay out.
    """
    from repro.benchgen import make_terminator, terminator_suite

    rows = []
    for positive in (True, False):
        for case in regression_suite(positive):
            rows.append((case.name, case.program, case.target, case.expected))
    for positive in (True, False):
        for spec in driver_suite(positive):
            rows.append((spec.name, make_driver(spec), spec.target, positive))
        for spec in terminator_suite(positive=positive):
            rows.append((spec.name, make_terminator(spec), spec.target, positive))
    return rows


def optimize_table(sizes: Sequence[int] = (2, 3, 4)) -> None:
    """Figure 2 driver sweep, raw vs pre-analyzed (``-O0`` vs ``-O2``).

    For every driver configuration the same query runs through the EFopt
    engine twice — once on the program verbatim, once behind the
    :mod:`repro.analysis` pipeline at level 2 — and the table reports the
    declared BDD variable count, the peak live node count and the wall
    clock of each, plus what the passes removed.  Verdicts are asserted
    identical per row.
    """
    from repro.frontends.getafix import check_reachability

    header = (
        f"{'benchmark':22s}  {'Reach?':6s}  {'vars O0':>7s}  {'vars O2':>7s}  "
        f"{'peak O0':>8s}  {'peak O2':>8s}  {'wall O0':>7s}  {'wall O2':>7s}  removed"
    )
    print("== Static pre-analysis: Figure 2 drivers, -O0 vs -O2 (EFopt) ==")
    print(header)
    print("-" * len(header))
    total_raw = total_opt = 0.0
    for positive in (True, False):
        for handlers in sizes:
            spec = DriverSpec(
                name=f"driver-{handlers}-{'pos' if positive else 'neg'}",
                handlers=handlers,
                flags=min(4, handlers),
                helpers=max(1, handlers // 2),
                positive=positive,
            )
            program = make_driver(spec)
            cells = {}
            for level in (0, 2):
                started = time.perf_counter()
                result = check_reachability(
                    program, target=spec.target, algorithm="ef-opt", optimize=level
                )
                wall = time.perf_counter() - started
                manager = (result.stats or {}).get("manager", {})
                cells[level] = (
                    result.reachable,
                    manager.get("vars", 0),
                    manager.get("peak_nodes", 0),
                    wall,
                    (result.stats or {}).get("optimize", {}),
                )
            assert cells[0][0] == cells[2][0], f"{spec.name}: -O2 changed the verdict"
            total_raw += cells[0][3]
            total_opt += cells[2][3]
            removed = cells[2][4].get("variables_removed", [])
            dropped = cells[2][4].get("procedures_dropped", [])
            print(
                f"{spec.name:22s}  {'Yes' if cells[0][0] else 'No ':6s}  "
                f"{cells[0][1]:7d}  {cells[2][1]:7d}  "
                f"{cells[0][2]:8d}  {cells[2][2]:8d}  "
                f"{cells[0][3]:7.2f}  {cells[2][3]:7.2f}  "
                f"{len(removed)} vars, {len(dropped)} procs"
            )
    print(
        f"{'total wall':22s}  {'':6s}  {'':7s}  {'':7s}  {'':8s}  {'':8s}  "
        f"{total_raw:7.2f}  {total_opt:7.2f}"
    )


def optimize_smoke(jobs: int = 2, random_count: int = 200) -> None:
    """CI differential gate for the static pre-analysis pipeline.

    Four assertions:

    * **Corpus identity** — every sequential benchgen corpus program gets
      the expected verdict from the explicit Bebop and Moped engines and
      from all three fixed-point algorithms at ``-O0``, ``-O1`` and ``-O2``.
    * **Fuzz identity** — ``random_count`` random programs agree with the
      explicit BEBOP replay at every level, for all three algorithms.
    * **Sharded identity** — the driver corpus re-run through
      ``run_shards`` at ``--jobs 2`` with ``optimize=2`` matches the
      ``optimize=0`` verdicts (the grouped-session path slices toward the
      union of the group's targets).
    * **Measured reduction** — on the driver corpus the pipeline removes at
      least ``flags + handlers`` declared variables per program (the dead
      SLAM artifacts), so the optimization is doing real work, not just
      passing programs through.
    """
    from repro.benchgen import random_program
    from repro.frontends.getafix import check_reachability
    from repro.parallel import run_shards

    algorithms = ("summary", "ef", "ef-opt")
    corpus = _optimize_corpus()
    for name, program, target, expected in corpus:
        locations = resolve_target(program, target)
        for engine in (run_bebop, run_moped):
            assert engine(program, locations).reachable == expected, (
                f"{name}: {engine.__name__} disagrees with the expected verdict"
            )
        for level in (0, 1, 2):
            for algorithm in algorithms:
                result = check_reachability(
                    program, target=target, algorithm=algorithm, optimize=level
                )
                assert result.reachable == expected, (
                    f"{name}: {algorithm} at -O{level} returned "
                    f"{result.reachable}, expected {expected}"
                )
    print(
        f"optimize smoke: corpus identity ok ({len(corpus)} programs, Bebop, "
        f"Moped and 3 algorithms x 3 levels)"
    )

    mismatches = 0
    for seed in range(random_count):
        program = random_program(seed)
        locations = resolve_target(program, "main:target")
        expected = run_bebop(program, locations).reachable
        for level in (0, 1, 2):
            for algorithm in algorithms:
                got = check_reachability(
                    program, target="main:target", algorithm=algorithm, optimize=level
                ).reachable
                if got != expected:
                    mismatches += 1
                    print(f"  MISMATCH seed={seed} -O{level} {algorithm}: {got}")
    assert not mismatches, f"{mismatches} fuzz verdict mismatches"
    print(f"optimize smoke: fuzz identity ok ({random_count} random programs)")

    driver_rows = [
        (spec.name, make_driver(spec), spec.target, positive)
        for positive in (True, False)
        for spec in driver_suite(positive)
    ]
    for level in (0, 2):
        queries = [
            BatchQuery(name=name, program=program, target=target, optimize=level)
            for name, program, target, _ in driver_rows
        ]
        shards, _, _ = run_shards(queries, jobs=jobs)
        assert all(shard.ok for shard in shards), [s.error for s in shards]
        verdicts = [shard.result.reachable for shard in shards]
        expected = [row[3] for row in driver_rows]
        assert verdicts == expected, f"-O{level} sharded verdicts {verdicts} != {expected}"
    print(f"optimize smoke: sharded identity ok (jobs={jobs}, -O2 vs -O0)")

    from repro.analysis import optimize as run_passes

    for positive in (True, False):
        for spec in driver_suite(positive):
            _, report = run_passes(make_driver(spec), level=2)
            floor = spec.flags + spec.handlers
            removed = len(report.variables_removed)
            assert removed >= floor, (
                f"{spec.name}: only {removed} variables removed "
                f"(expected >= {floor})"
            )
    print("optimize smoke OK: measured variable reduction on the driver corpus")


def witness_smoke(jobs: int = 2) -> None:
    """CI gate for counterexample witness traces.

    Over the full sequential benchgen corpus, for all three fixed-point
    algorithms:

    * every **reachable** query run with ``witness=True`` yields a trace
      that passed the explicit-semantics replay (``validated``) with no
      recorded ``witness_error``, and the verdict equals the expected one
      (extraction never flips a verdict);
    * every **unreachable** query yields no trace at all;
    * the sharded path (``run_shards`` at ``--jobs 2`` with
      ``BatchQuery.witness``) reproduces the same contract through pooled
      group sessions, and each sharded trace has exactly the steps of the
      direct-path trace of the same query under the same algorithm.
    """
    from repro.frontends.getafix import check_reachability
    from repro.parallel import run_shards

    algorithms = ("summary", "ef", "ef-opt")
    corpus = _optimize_corpus()
    direct_steps = {}
    traced = 0
    for name, program, target, expected in corpus:
        for algorithm in algorithms:
            result = check_reachability(
                program, target=target, algorithm=algorithm, witness=True
            )
            assert result.reachable == expected, (
                f"{name}: {algorithm} with witness extraction returned "
                f"{result.reachable}, expected {expected}"
            )
            error = result.details.get("witness_error")
            assert error is None, f"{name}: {algorithm} witness failed: {error}"
            if expected:
                assert result.witness is not None, f"{name}: {algorithm} missing trace"
                assert result.witness["validated"], f"{name}: {algorithm} not replayed"
                assert result.witness["length"] == len(result.witness["steps"])
                direct_steps[name, algorithm] = result.witness["steps"]
                traced += 1
            else:
                assert result.witness is None, f"{name}: trace for unreachable target"
    print(
        f"witness smoke: direct path ok ({len(corpus)} programs x "
        f"{len(algorithms)} algorithms, {traced} replay-validated traces)"
    )

    queries = [
        BatchQuery(name=name, program=program, target=target, witness=True)
        for name, program, target, _ in corpus
    ]
    shards, _, _ = run_shards(queries, jobs=jobs)
    assert all(shard.ok for shard in shards), [s.error for s in shards]
    traced = 0
    for shard, query, (name, _, _, expected) in zip(shards, queries, corpus):
        result = shard.result
        assert result.reachable == expected, (
            f"{name}: sharded witness verdict {result.reachable} != {expected}"
        )
        error = result.details.get("witness_error")
        assert error is None, f"{name}: sharded witness failed: {error}"
        if expected:
            assert result.witness is not None and result.witness["validated"], (
                f"{name}: sharded query missing a validated trace"
            )
            assert result.witness["steps"] == direct_steps[name, query.algorithm], (
                f"{name}: sharded {query.algorithm} trace differs from the direct path"
            )
            traced += 1
        else:
            assert result.witness is None, f"{name}: sharded trace for unreachable"
    print(
        f"witness smoke OK: sharded path at jobs={jobs}, "
        f"{traced} replay-validated traces, verdicts and steps identical"
    )


def _scaling_rows():
    """The scaling rows as (spec, program): drivers with 4 and 5 handlers,
    schoose terminators of 4 to 6 bits and iterative terminators of 4 and 5
    bits, positive and negative."""
    specs = [
        DriverSpec(
            name=f"driver-{handlers}-{'pos' if positive else 'neg'}",
            handlers=handlers,
            flags=min(4, handlers),
            helpers=max(1, handlers // 2),
            positive=positive,
        )
        for handlers in (4, 5)
        for positive in (True, False)
    ]
    specs += [
        TerminatorSpec(
            name=f"terminator-{variant}-{bits}b-{'pos' if positive else 'neg'}",
            counter_bits=bits,
            variant=variant,
            positive=positive,
        )
        for variant, sizes in (("schoose", (4, 5, 6)), ("iterative", (4, 5)))
        for bits in sizes
        for positive in (True, False)
    ]
    return [
        (spec, (make_driver if isinstance(spec, DriverSpec) else make_terminator)(spec))
        for spec in specs
    ]


def scaling_smoke() -> None:
    """CI smoke for the scaling rows, where the kernel's tables grow and GC runs.

    Every row of :func:`_scaling_rows` runs under ``summary``, ``ef`` and
    ``ef-opt`` at ``-O0``.  Every verdict must equal the generator's
    polarity and the explicit Bebop answer.  Each row prints its seconds
    and a kernel line: peak nodes, GC collections and rename fallbacks.
    At most one rename per query may fall back to ``ite`` (IntoCall's
    ``(y, u)`` application, once, when the plans are compiled): more means
    a GC sweep made the solve redo a template application.
    """
    from repro.frontends.getafix import check_reachability

    rows = _scaling_rows()
    algorithms = ("summary", "ef", "ef-opt")
    print("== Scaling smoke: verdicts vs polarity and Bebop (-O0, seconds) ==")
    total = 0.0
    for spec, program in rows:
        bebop = run_bebop(program, resolve_target(program, spec.target)).reachable
        assert bebop == spec.positive, f"{spec.name}: Bebop returned {bebop}"
        for algorithm in algorithms:
            started = time.perf_counter()
            result = check_reachability(
                program, target=spec.target, algorithm=algorithm, optimize=0
            )
            elapsed = time.perf_counter() - started
            total += elapsed
            assert result.reachable == spec.positive, (
                f"{spec.name}: {algorithm} returned {result.reachable}, "
                f"expected {spec.positive}"
            )
            manager = (result.stats or {}).get("manager", {})
            print(
                f"{spec.name:28s}  {algorithm:8s}  {elapsed:6.2f}  kernel: "
                f"peak_nodes={manager.get('peak_nodes', 0)} "
                f"gc_collections={manager.get('gc', {}).get('collections', 0)} "
                f"rename_fallbacks={manager.get('rename_fallback', 0)}"
            )
            assert manager["rename_fallback"] <= 1, (
                f"{spec.name}: {algorithm} fell back to ite on "
                f"{manager['rename_fallback']} renames (at most 1 expected)"
            )
    print(
        f"scaling smoke OK: {len(rows)} programs x {len(algorithms)} algorithms "
        f"agree with polarity and Bebop, at most 1 rename fallback each, "
        f"in {total:.2f} s"
    )


#: The algorithms and explicit baselines of the scaling record, in column order.
SCALING_ENGINES = ("summary", "ef", "ef-opt", "bebop", "moped")

#: Rows the explicit engines skip: Bebop takes ~50 s and Moped ~80 s on the
#: 8-bit schoose terminator.  The symbolic engines run every row.
EXPLICIT_SKIPPED_ROWS = ("terminator-schoose-8b-neg",)

#: Runs per cell of the scaling record; a cell keeps the fastest.
SCALING_RUNS = 3

#: The committed scaling record, at the root of the checkout.
SCALING_RECORD = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"


def _scaling_record_specs() -> Dict[str, object]:
    """The rows of the scaling record by name: negative drivers with 4 to 8
    handlers, schoose terminators of 4 to 8 bits and iterative terminators
    of 4 to 7 bits, built as in :func:`figure2`."""
    specs: List[object] = [
        DriverSpec(
            name=f"driver-{handlers}-neg",
            handlers=handlers,
            flags=min(4, handlers),
            helpers=max(1, handlers // 2),
            positive=False,
        )
        for handlers in range(4, 9)
    ]
    specs += [
        TerminatorSpec(
            name=f"terminator-{variant}-{bits}b-neg",
            counter_bits=bits,
            variant=variant,
            positive=False,
        )
        for variant, sizes in (("schoose", range(4, 9)), ("iterative", range(4, 8)))
        for bits in sizes
    ]
    return {spec.name: spec for spec in specs}


def _scaling_cell(row: str, engine: str) -> Dict[str, object]:
    """Time one engine on one scaling row, the min of :data:`SCALING_RUNS`.

    Runs in a process of its own, so the max RSS is this cell's.  Asserts
    the verdict of every run.  The symbolic engines add a kernel line:
    peak nodes, GC collections and reclaimed nodes, rename fallbacks and
    equation evaluations.
    """
    import resource

    spec = _scaling_record_specs()[row]
    program = (make_driver if isinstance(spec, DriverSpec) else make_terminator)(spec)
    locations = resolve_target(program, spec.target)
    runner = {"bebop": run_bebop, "moped": run_moped}.get(engine)
    if runner is None:
        runner = lambda p, locs: run_sequential(p, locs, algorithm=engine)  # noqa: E731
    best = float("inf")
    for _ in range(SCALING_RUNS):
        started = time.perf_counter()
        result = runner(program, locations)
        best = min(best, time.perf_counter() - started)
        assert result.reachable == spec.positive, (
            f"{row}: {engine} returned {result.reachable}, expected {spec.positive}"
        )
    cell: Dict[str, object] = {
        "seconds": round(best, 4),
        "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    manager = (result.stats or {}).get("manager")
    if manager is not None:
        cell["kernel"] = {
            "peak_nodes": manager["peak_nodes"],
            "gc_collections": manager["gc"]["collections"],
            "gc_reclaimed": manager["gc"]["reclaimed"],
            "rename_fallback": manager["rename_fallback"],
            "equation_evaluations": result.equation_evaluations,
        }
    return cell


def scaling_record(column: str) -> None:
    """Measure one column of the committed scaling record.

    Every (row, engine) cell runs in a fresh process, so its max RSS is
    its own.  The column replaces the one of the same name in
    ``BENCH_scaling.json`` and keeps the others: a change records its
    ``before`` column by running this command with its parent's source
    tree on ``PYTHONPATH`` and its ``after`` column with its own.  Prints
    seconds per cell and, when the record holds a ``before`` column, the
    ratio to it.
    """
    import json
    import multiprocessing
    import os
    import platform
    from concurrent.futures import ProcessPoolExecutor

    specs = _scaling_record_specs()
    cells: Dict[str, Dict[str, object]] = {}
    print(
        f"== Scaling record, column {column!r}: negative rows, -O0, "
        f"min of {SCALING_RUNS} runs (s) =="
    )
    print(f"{'row':28s}  " + "  ".join(f"{engine:>8s}" for engine in SCALING_ENGINES))
    context = multiprocessing.get_context("spawn")
    for row in specs:
        cells[row] = {}
        for engine in SCALING_ENGINES:
            if engine in ("bebop", "moped") and row in EXPLICIT_SKIPPED_ROWS:
                cells[row][engine] = None
                continue
            with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
                cells[row][engine] = pool.submit(_scaling_cell, row, engine).result()
        print(f"{row:28s}  " + "  ".join(
            f"{cell['seconds']:8.2f}" if cell else f"{'-':>8s}"
            for cell in cells[row].values()
        ))
    record: Dict[str, object] = {}
    if SCALING_RECORD.exists():
        record = json.loads(SCALING_RECORD.read_text(encoding="utf-8"))
    record.update(
        description=(
            "Figure 2 scaling rows (negative instances, -O0): seconds as the min "
            f"of {SCALING_RUNS} runs, max RSS of a process running one cell, and a "
            "kernel line for the symbolic engines. Regenerate a column with "
            "'python benchmarks/report.py scaling --column NAME'."
        ),
        engines=list(SCALING_ENGINES),
        rows=list(specs),
        explicit_skipped_rows=list(EXPLICIT_SKIPPED_ROWS),
    )
    columns = record.setdefault("columns", {})
    columns[column] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "date": time.strftime("%Y-%m-%d"),
        "cells": cells,
    }
    SCALING_RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote column {column!r} to {SCALING_RECORD.name}")
    before = columns.get("before")
    if before is None or column == "before":
        return
    print(f"== {column} / before, seconds ==")
    for row in specs:
        ratios = []
        for engine in SCALING_ENGINES:
            old, new = before["cells"].get(row, {}).get(engine), cells[row][engine]
            ratios.append(
                f"{new['seconds'] / old['seconds']:8.2f}" if old and new else f"{'-':>8s}"
            )
        print(f"{row:28s}  " + "  ".join(ratios))


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "what",
        choices=[
            "figure2",
            "figure2-parallel",
            "figure3",
            "figure3-symbolic",
            "figure3-parallel",
            "session",
            "kernel",
            "parallel-smoke",
            "session-smoke",
            "faults",
            "faults-smoke",
            "optimize",
            "optimize-smoke",
            "witness-smoke",
            "scaling-smoke",
            "scaling",
            "concurrent-smoke",
            "all",
        ],
        help="which table to regenerate",
    )
    parser.add_argument("--max-switches", type=int, default=6)
    parser.add_argument(
        "--jobs", type=int, default=4, help="worker processes for the parallel tables"
    )
    parser.add_argument(
        "--kernel-bits", type=int, default=14, help="counter width for the kernel table"
    )
    parser.add_argument(
        "--algorithm",
        default="summary",
        choices=["summary", "ef", "ef-opt"],
        help="algorithm for the session table",
    )
    parser.add_argument(
        "--random",
        type=int,
        default=200,
        help="with 'optimize-smoke': number of random fuzz programs",
    )
    parser.add_argument(
        "--column",
        default="after",
        help="with 'scaling': the column of BENCH_scaling.json to measure",
    )
    args = parser.parse_args(argv)
    if args.what in ("figure2", "all"):
        figure2()
        print()
    if args.what in ("figure2-parallel", "all"):
        figure2_parallel(jobs=args.jobs)
        print()
    if args.what in ("figure3", "all"):
        figure3(max_switches=args.max_switches)
        print()
    if args.what in ("figure3-symbolic", "all"):
        figure3_symbolic(max_switches=min(args.max_switches, 3))
        print()
    if args.what in ("figure3-parallel", "all"):
        figure3_parallel(jobs=args.jobs)
        print()
    if args.what in ("session", "all"):
        session_table(algorithm=args.algorithm)
        print()
    if args.what in ("kernel", "all"):
        kernel(bits=args.kernel_bits)
    if args.what in ("optimize", "all"):
        optimize_table()
        if args.what == "all":
            print()
    if args.what == "optimize-smoke":
        optimize_smoke(jobs=min(args.jobs, 2), random_count=args.random)
    if args.what == "witness-smoke":
        witness_smoke(jobs=min(args.jobs, 2))
    if args.what == "scaling-smoke":
        scaling_smoke()
    if args.what == "scaling":
        scaling_record(column=args.column)
    if args.what == "concurrent-smoke":
        concurrent_smoke(jobs=min(args.jobs, 2))
    if args.what == "parallel-smoke":
        parallel_smoke()
    if args.what == "session-smoke":
        session_smoke()
    if args.what in ("faults", "all"):
        faults_table()
        if args.what == "all":
            print()
    if args.what == "faults-smoke":
        faults_smoke(jobs=min(args.jobs, 2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
