"""The repository benchmark: one command, four workloads, verdicts checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scaling-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
program's set-up time (median of several set-ups; the seeded inputs and
their independent answers are made once before, untimed), a sweep's time
with each of its parts at its best over the run, per-query time to verdict
(median and 90th percentile over the queries, each query taking its best
time over the sweeps) and peak resident memory after set-up.  Closed-loop
workloads repeat their query list at least three times; other tenants of a
shared machine only ever slow a query down, so the best of several spread
over the run is the steadiest estimate of its cost.

``--trace 1`` is the traced run: it replays the workload's query list in
this process once untraced and twice with every layer entry point wrapped
(see ``tracer.py``), asserts that every count repeats exactly between the
two traced passes, and reports per-layer metrics, the unattributed
remainder and the tracing overhead.  It also runs the crossover reference
(ef-opt, Bebop and Moped on every sequential row) and the pooled pass that
only the worker-pool configuration shows.

Every run prints one JSON object as its last line of standard output::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

and exits 0, or 1 when any verdict disagrees with the independent answer,
or 2 when the program sources are missing.  Spans and per-row details of a
traced run are written to ``.perfbench/`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import CACHED_OPS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = Path(".perfbench")

#: Set-up runs per measured run; ``setup_s`` is their median.
SETUP_REPEATS = 9

#: Per-layer seconds: metric -> span names whose self time it sums.
LAYER_SECONDS = {
    "boolprog.parse_s": ("boolprog.parse",),
    "boolprog.check_s": ("boolprog.check",),
    "boolprog.cfg_s": ("boolprog.cfg",),
    "analysis.optimize_s": ("analysis.optimize",),
    "encode.base_s": ("encode.base",),
    "encode.target_s": ("encode.target",),
    "fixedpoint.solve_s": ("fixedpoint.evaluate", "fixedpoint.eval_equation"),
    "api.check_s": ("api.check",),
    # ``ite`` is only ever reached from inside other ops (rename's fallback),
    # so its time is part of theirs and it has no seconds of its own.
    **{
        f"bdd.{op}.self_s": (f"bdd.{op}",)
        for op in CACHED_OPS + ("count_sat",)
        if op != "ite"
    },
}

#: Layers only some workloads reach, as a share of the traced sweep.
LAYER_SHARES = {
    "algorithms.cbr_share": ("algorithms.cbr",),
    "api.solve_share": ("api.solve",),
    "api.explain_share": ("api.explain",),
    "witness.extract_share": ("witness.extract",),
    "witness.replay_share": ("witness.replay",),
    "bdd.pick_cube_share": ("bdd.pick_cube",),
}

#: Records of the pooled configuration; 0 where a workload has no pool.
POOLED = (
    "parallel.busy_share",
    "parallel.overhead_share",
    "parallel.retries",
    "service.overhead_share",
    "service.warm_share",
    "service.solves",
    "service.coalesced",
    "service.shed",
    "service.evictions",
)

#: Counts the two traced passes must repeat exactly.
DETERMINISTIC = ("fixedpoint.equation_evals", "bdd.peak_nodes", "witness.steps") + tuple(
    f"bdd.{op}.misses" for op in CACHED_OPS
)


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def reset_peak_rss() -> None:
    """Restart this process's resident-set high-water mark from its current size."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set of this process since the last reset, or of any reaped child, in MiB.

    Pool workers fork from this process, which has imported all that the
    start-up interpreters of ``setup`` import, so those never set the
    children's peak.
    """
    try:
        status = Path("/proc/self/status").read_text()
        own = int(status.split("VmHWM:", 1)[1].split()[0])
    except (OSError, IndexError, ValueError):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float, setup_times) -> dict:
    from workloads import percentile

    measurement = workload.measure(seconds)
    workload.close()
    queries_ms = [1e3 * value for value in measurement.query_times()]
    return {
        "correct": not measurement.mismatches,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "sweep_s": metric(measurement.sweep_seconds(), "s"),
            "query_ms.p50": metric(percentile(queries_ms, 50), "ms"),
            "query_ms.p90": metric(percentile(queries_ms, 90), "ms"),
            "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
        },
        "mismatches": measurement.mismatches,
    }


def crossover(references):
    """Time ef-opt, Bebop and Moped on each reference row; check verdicts."""
    from repro.baselines import run_bebop, run_moped
    from repro.boolprog import parse_program
    from repro.frontends import check_reachability, resolve_target
    from workloads import timed

    rows, mismatches = [], []
    for ref in references:
        result, efopt_s = timed(
            check_reachability, ref.source, ref.target, algorithm="ef-opt", optimize=ref.optimize
        )
        program = parse_program(ref.source, name=ref.name)
        locations = resolve_target(program, ref.target)
        bebop, bebop_s = timed(run_bebop, program, locations)
        moped, moped_s = timed(run_moped, program, locations)
        for engine, verdict in (("ef-opt", result), ("bebop", bebop), ("moped", moped)):
            if verdict.reachable != ref.expected:
                mismatches.append(f"reference {ref.name}: {engine} said {verdict.reachable}")
        rows.append({"name": ref.name, "efopt_s": efopt_s, "bebop_s": bebop_s,
                     "moped_s": moped_s, "efopt_over_bebop": share(efopt_s, bebop_s)})
    return rows, mismatches


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    spans = [span for span in tracer.spans if span.name != "query"]
    self_times = tracer.layer_self_times(spans)
    counters = tracer.counters
    values = {
        name: sum(self_times.get(span, 0.0) for span in names)
        for name, names in LAYER_SECONDS.items()
    }
    values.update(
        (name, share(sum(self_times.get(span, 0.0) for span in names), traced_wall))
        for name, names in LAYER_SHARES.items()
    )
    evals = counters["fixedpoint.equation_evals"]
    values.update({
        "analysis.vars_removed": counters["analysis.vars_removed"],
        "encode.bdd_vars": counters["encode.bdd_vars"],
        "fixedpoint.iterations": counters["fixedpoint.iterations"],
        "fixedpoint.equation_evals": evals,
        "fixedpoint.useful_eval_share": share(counters["fixedpoint.useful_evals"], evals),
        "bdd.peak_nodes": counters["bdd.peak_nodes"],
        "bdd.rename_fallback": counters["bdd.rename_fallback"],
        "bdd.gc.collections": counters["bdd.gc.collections"],
        "bdd.gc.reclaimed": counters["bdd.gc.reclaimed"],
        "api.reused_share": share(counters["api.reused"], counters["api.checks"]),
        "witness.steps": counters["witness.steps"],
        "witness.validated_share": share(counters["witness.validated"], counters["witness.traces"]),
        "trace.sweep_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": traced_wall - sum(self_times.values()),
    })
    for op in CACHED_OPS:
        hits, misses = counters[f"bdd.{op}.hits"], counters[f"bdd.{op}.misses"]
        values[f"bdd.{op}.misses"] = misses
        values[f"bdd.{op}.hit_rate"] = share(hits, hits + misses)
    return values


def traced(workload, seconds: float, seed: int) -> dict:
    baseline = workload.traced_pass(None, seconds)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            passes.append((tracer, workload.traced_pass(tracer, seconds)))
        finally:
            tracer.uninstall()
    pooled, pooled_details, pooled_measurement = workload.pooled_layers(seconds)
    rows, mismatches = crossover(workload.references())

    measurements = [baseline, pooled_measurement] + [m for _, m in passes]
    for measurement in measurements:
        mismatches.extend(measurement.mismatches)
    (first, first_pass), (second, _) = passes
    for name in DETERMINISTIC:
        if first.counters[name] != second.counters[name]:
            mismatches.append(
                f"count {name} differs between traced passes: "
                f"{first.counters[name]} vs {second.counters[name]}"
            )

    values = layer_metrics(first, first_pass.sweeps[0], baseline.sweeps[0])
    values.update({name: pooled.get(name, 0) for name in POOLED})
    bebop_s = sum(row["bebop_s"] for row in rows)
    values.update({
        "baselines.bebop_s": bebop_s,
        "baselines.moped_s": sum(row["moped_s"] for row in rows),
        "baselines.efopt_over_bebop": share(sum(row["efopt_s"] for row in rows), bebop_s),
    })

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    first.dump(OUT / f"spans-{stem}.jsonl")
    details = {
        "workload": workload.name,
        "seed": seed,
        "layer_self_seconds": first.layer_self_times(
            [span for span in first.spans if span.name != "query"]
        ),
        "counters": dict(first.counters),
        "pooled": pooled_details,
        "crossover": rows,
        "untraced_sweep_s": baseline.sweeps[0],
        "traced_sweep_s": [m.sweeps[0] for _, m in passes],
    }
    (OUT / f"trace-{stem}.json").write_text(json.dumps(details, indent=2))

    return {
        "correct": not mismatches,
        "attempted": sum(m.attempted for m in measurements) + 3 * len(rows),
        "failed": sum(m.failed for m in measurements),
        "metrics": {name: metric(value, unit_of(name)) for name, value in sorted(values.items())},
        "mismatches": mismatches,
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "hit_rate", "efopt_over_bebop")):
        return "ratio"
    return "count"


def reap_children() -> None:
    """Stop and wait for any process this run started that is still alive."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.prepare()
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
        reset_peak_rss()
        if args.trace:
            report = traced(workload, args.seconds, args.seed)
        else:
            report = end_to_end(workload, args.seconds, setup_times)
    finally:
        workload.close()
        reap_children()

    for line in report.pop("mismatches")[:50]:
        print(f"MISMATCH: {line}", file=sys.stderr)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
