"""The benchmark's four workloads: seeded inputs, verdict oracles, drivers.

Every workload is built in this process from the ``--seed`` argument; the
program under test only ever receives the generated inputs (program source
text plus a target).  Each workload checks every verdict it gets against an
answer computed independently of the symbolic engines, and counts each
failed or refused operation against the number attempted.

==================  =======================================================
workload            what one pass runs
==================  =======================================================
``scaling-cold``    one fresh ``check_reachability`` per row, closed loop,
                    one caller: the Figure 2 driver and terminator families
                    under ``ef-opt`` and ``summary`` plus Figure 3
                    Bluetooth ``run_concurrent`` rows.
``corpus-batch``    one ``run_batch(jobs=nproc)`` call over the regression
                    programs plus seeded random programs, as source text
                    at ``-O2``.
``session-witness`` one ``AnalysisSession`` per driver/terminator program:
                    ``solve()``, ``check()`` on every procedure exit and
                    label target, ``explain()`` on each reachable one.
``daemon-zipf``     an open-loop JSONL replay at a fixed arrival rate
                    through ``AnalysisDaemon.handle_request``, programs
                    drawn from a seeded Zipf law over a random corpus;
                    the same schedule is replayed several times.
==================  =======================================================
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms import run_batch
from repro.api import AnalysisSession
from repro.baselines import run_bebop, run_concurrent_explicit
from repro.benchgen import (
    BLUETOOTH_CONFIGURATIONS,
    DriverSpec,
    TEMPLATE_NAMES,
    TerminatorSpec,
    make_bluetooth,
    make_driver,
    make_terminator,
    random_program_source,
    regression_case,
)
from repro.boolprog import build_cfg, parse_program
from repro.encode.concurrent import ConcurrentEncoder
from repro.frontends import check_concurrent_reachability, check_reachability, resolve_target
from repro.parallel import BatchQuery
from repro.service import AnalysisDaemon, DaemonConfig
import repro.witness  # noqa: F401 — imported lazily by explain(); load it before timing

from tracer import Tracer

#: Worker processes for the pooled workloads: one per core, at most four.
JOBS = max(1, min(4, len(os.sched_getaffinity(0))))

RANDOM_TARGET = "main:target"

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Inputs and oracles
# ---------------------------------------------------------------------------
def generated_source(make, *args) -> Tuple[str, object]:
    """Run a ``repro.benchgen`` generator; return (source text, its result).

    The generators return parsed programs, but the benchmark sends source
    text, so that parsing is part of every timed query: this records the
    text the generator hands to its parser.
    """
    module = sys.modules[make.__module__]
    attribute = "parse_concurrent_program" if hasattr(module, "parse_concurrent_program") else "parse_program"
    parse = getattr(module, attribute)
    texts: List[str] = []

    def record(source, *rest, **options):
        texts.append(source)
        return parse(source, *rest, **options)

    setattr(module, attribute, record)
    try:
        result = make(*args)
    finally:
        setattr(module, attribute, parse)
    return texts[-1], result


def bebop_verdict(program, locations) -> bool:
    return run_bebop(program, locations).reachable


#: (globals, helpers) of the random programs, taken in turn, so that every
#: seed's corpus has the same mix of shapes and its cost varies less.
RANDOM_SHAPES = tuple((globals_, helpers) for globals_ in (2, 3) for helpers in (1, 2, 3))


def random_corpus(rng: random.Random, size: int, prefix: str) -> List[Tuple[str, str]]:
    """``size`` seeded random programs of varied shape: (name, source)."""
    corpus = []
    for index in range(size):
        program_seed = rng.randrange(1 << 30)
        num_globals, num_helpers = RANDOM_SHAPES[index % len(RANDOM_SHAPES)]
        source = random_program_source(
            program_seed, num_globals=num_globals, num_helpers=num_helpers
        )
        corpus.append((f"{prefix}-{index}-{program_seed}", source))
    return corpus


def random_oracle(corpus: Sequence[Tuple[str, str]]) -> Dict[str, bool]:
    """Bebop's verdict for ``main:target`` of every random program."""
    expected = {}
    for name, source in corpus:
        program = parse_program(source, name=name)
        expected[name] = bebop_verdict(program, resolve_target(program, RANDOM_TARGET))
    return expected


@dataclass
class Row:
    """One sequential or concurrent query with its independent answer."""

    name: str
    source: str
    target: object
    expected: bool
    algorithm: Optional[str] = None  # None: a concurrent (run_concurrent) row
    context_switches: int = 0


def driver_spec(handlers: int, positive: bool) -> DriverSpec:
    return DriverSpec(
        name=f"driver-{handlers}-{'pos' if positive else 'neg'}",
        handlers=handlers,
        flags=min(4, handlers),
        helpers=max(1, handlers // 2),
        positive=positive,
    )


def terminator_spec(bits: int, variant: str, positive: bool) -> TerminatorSpec:
    return TerminatorSpec(
        name=f"terminator-{variant}-{bits}b-{'pos' if positive else 'neg'}",
        counter_bits=bits,
        variant=variant,
        positive=positive,
    )


def figure2_programs(driver_sizes, terminator_bits, variants=("iterative", "schoose")):
    """(name, source, target, polarity) of the Figure 2 family programs."""
    programs = []
    for handlers in driver_sizes:
        for positive in (True, False):
            spec = driver_spec(handlers, positive)
            source, _ = generated_source(make_driver, spec)
            programs.append((spec.name, source, spec.target, positive))
    for bits in terminator_bits:
        for variant in variants:
            for positive in (True, False):
                spec = terminator_spec(bits, variant, positive)
                source, _ = generated_source(make_terminator, spec)
                programs.append((spec.name, source, spec.target, positive))
    return programs


# ---------------------------------------------------------------------------
# Measurement records
# ---------------------------------------------------------------------------
@dataclass
class Measurement:
    """What the timed region of one run observed."""

    #: Wall time of each sweep.
    sweeps: List[float] = field(default_factory=list)
    #: The timed parts that make up each sweep, in sweep order.
    parts: List[float] = field(default_factory=list)
    query_seconds: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.mismatches.append(message)

    def query_times(self) -> List[float]:
        """Each query's best time over the sweeps of the run."""
        return best_of_sweeps(self.query_seconds, len(self.sweeps))

    def sweep_seconds(self) -> float:
        """A sweep's time with each of its parts at its best over the run."""
        return sum(best_of_sweeps(self.parts, len(self.sweeps)))


def best_of_sweeps(values: Sequence[float], sweeps: int) -> List[float]:
    """Each position's best time over ``sweeps`` repeats of the same list.

    Every sweep runs the same items in the same order, so position ``i`` of
    every sweep is the same item.  Other tenants of a shared machine only
    ever slow an item down, so the minimum over repeats spread across the
    run is the steadiest estimate of its cost.
    """
    per_sweep = len(values) // sweeps
    return [min(values[index::per_sweep]) for index in range(per_sweep)]


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile of ``values``, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: Closed-loop runs make at least this many sweeps, so that each query's
#: time is a best of several.
MIN_SWEEPS = 3


def closed_loop(seconds: float, one_sweep) -> Measurement:
    """Repeat ``one_sweep(measurement)``: MIN_SWEEPS times, then while another fits."""
    measurement = Measurement()
    started = time.perf_counter()
    while True:
        sweep_started = time.perf_counter()
        one_sweep(measurement)
        finished = time.perf_counter()
        measurement.sweeps.append(finished - sweep_started)
        if (
            len(measurement.sweeps) >= MIN_SWEEPS
            and finished - started + statistics.median(measurement.sweeps) > seconds
        ):
            return measurement


def query_scope(tracer: Optional[Tracer], query):
    """A ``query`` span when tracing, else nothing."""
    if tracer is None:
        return nullcontext()
    tracer.query = query
    return tracer.span("query")


def timed(function, *args, **kwargs):
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
#: Per-layer metrics of the pooled configuration, details, measurement.
Pooled = Tuple[Dict[str, float], Dict[str, object], Measurement]


@dataclass
class Reference:
    """A sequential query the explicit engines answer too (traced run)."""

    name: str
    source: str
    target: object
    expected: bool
    optimize: int


def start_program(modules: Sequence[str]) -> None:
    """Start a fresh interpreter that imports ``modules`` of the program.

    The program calls no BLAS routine, but importing numpy starts one
    OpenBLAS thread per core, and on a two-core machine that start-up
    contends with the import itself: one BLAS thread makes the time of
    the same import vary half as much.  No timeout: with one,
    ``subprocess`` polls for the exit in steps of up to 50 ms, which would
    quantize the set-up time.
    """
    environment = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)], env=environment, check=True
    )


class Workload:
    """One workload: its inputs, timed set-up, ``measure`` and traced hooks.

    ``prepare`` builds the seeded inputs and their independent answers once,
    outside every timed region.  ``setup`` is the program's own set-up and is
    what ``setup_s`` times; by default it is program start-up, a fresh
    interpreter importing the modules the workload calls (``IMPORTS``).
    ``traced_pass`` runs the workload's fixed query list once, in this
    process (no worker pool), so that the tracer sees every layer; with
    ``tracer=None`` it is the untraced pass the tracing overhead is taken
    against.  ``pooled_layers`` measures what only the pooled configuration
    shows (scheduling, service overhead); ``references`` lists the queries
    the crossover reference also runs on Bebop and Moped.
    """

    name = ""
    why = ""
    IMPORTS: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        start_program(self.IMPORTS)

    def teardown(self) -> None:
        """Undo ``setup`` before it is repeated (outside the timed region)."""

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def traced_pass(self, tracer: Optional[Tracer], seconds: float) -> Measurement:
        measurement = Measurement()
        started = time.perf_counter()
        self.sweep(measurement, tracer)
        measurement.sweeps.append(time.perf_counter() - started)
        return measurement

    def sweep(self, measurement: Measurement, tracer: Optional[Tracer] = None) -> None:
        raise NotImplementedError

    def pooled_layers(self, seconds: float) -> Pooled:
        return {}, {}, Measurement()

    def references(self) -> List[Reference]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ScalingCold(Workload):
    name = "scaling-cold"
    why = (
        "fixedpoint and bdd take almost all the time: Figure 2 driver and terminator "
        "rows under both evaluators plus Figure 3 Bluetooth rows, so kernel and "
        "evaluator gains show"
    )

    #: (driver sizes, terminator bits, terminator variants, algorithm),
    #: sized so that at least five sweeps fit in a 25-second run.  The
    #: iterative terminators' nondeterministic choices reach ``exists``.
    SEQUENTIAL = (
        ((3,), (3,), ("schoose",), "ef-opt"),
        ((), (2,), ("iterative",), "summary"),
    )
    #: Bluetooth configuration -> context-switch bounds.
    BLUETOOTH = {"1A1S": (0, 1), "2A2S": (0,), "1A2S": (0,), "2A1S": (0,)}
    IMPORTS = ("repro.frontends",)

    def prepare(self) -> None:
        rows: List[Row] = []
        for driver_sizes, terminator_bits, variants, algorithm in self.SEQUENTIAL:
            for name, source, target, positive in figure2_programs(
                driver_sizes, terminator_bits, variants
            ):
                rows.append(Row(f"{name}/{algorithm}", source, target, positive, algorithm))
        for config, bounds in self.BLUETOOTH.items():
            source, program = generated_source(make_bluetooth, *BLUETOOTH_CONFIGURATIONS[config])
            locations = ConcurrentEncoder(program).error_locations()
            for switches in bounds:
                expected = run_concurrent_explicit(program, locations, switches).reachable
                rows.append(
                    Row(f"bluetooth-{config}/k={switches}", source, "error", expected,
                        context_switches=switches)
                )
        self.rows = rows

    @staticmethod
    def run_row(row: Row):
        if row.algorithm is None:
            return check_concurrent_reachability(
                row.source, row.target, context_switches=row.context_switches
            )
        return check_reachability(row.source, row.target, algorithm=row.algorithm, optimize=2)

    def sweep(self, measurement: Measurement, tracer: Optional[Tracer] = None) -> None:
        for row in self.rows:
            measurement.attempted += 1
            with query_scope(tracer, row.name):
                result, seconds = timed(self.run_row, row)
            measurement.query_seconds.append(seconds)
            measurement.parts.append(seconds)
            if result.reachable != row.expected:
                measurement.fail(f"{row.name}: got {result.reachable}, expected {row.expected}")

    def measure(self, seconds: float) -> Measurement:
        return closed_loop(seconds, self.sweep)

    def references(self) -> List[Reference]:
        return [
            Reference(row.name.rsplit("/", 1)[0], row.source, row.target, row.expected, 2)
            for row in self.rows
            if row.algorithm == "ef-opt"
        ]


class CorpusBatch(Workload):
    name = "corpus-batch"
    why = (
        "many small programs: parse, optimize, encode and pool scheduling are "
        "a large share, so front-end and pool gains move it and kernel gains little"
    )

    RANDOM_PROGRAMS = 300
    IMPORTS = ("repro.algorithms",)

    def prepare(self) -> None:
        queries: List[BatchQuery] = []
        for template in TEMPLATE_NAMES:
            for positive in (True, False):
                source, case = generated_source(regression_case, template, positive)
                queries.append(
                    BatchQuery(name=case.name, program=source, target=case.target,
                               expected=case.expected, optimize=2)
                )
        corpus = random_corpus(random.Random(self.seed), self.RANDOM_PROGRAMS, "random")
        expected = random_oracle(corpus)
        for name, source in corpus:
            queries.append(
                BatchQuery(name=name, program=source, target=RANDOM_TARGET,
                           expected=expected[name], optimize=2)
            )
        random.Random(self.seed + 1).shuffle(queries)
        self.queries = queries

    def batch(self, measurement: Measurement, jobs: int = JOBS):
        report, seconds = timed(run_batch, self.queries, jobs=jobs)
        measurement.parts.append(seconds)
        for shard in report.shards:
            measurement.attempted += 1
            measurement.query_seconds.append(shard.elapsed_seconds)
            if not shard.ok:
                measurement.fail(f"{shard.name}: {shard.status} {shard.error}")
            elif shard.mismatch:
                measurement.fail(
                    f"{shard.name}: got {shard.result.reachable}, expected {shard.expected}"
                )
        return report

    def measure(self, seconds: float) -> Measurement:
        return closed_loop(seconds, self.batch)

    def sweep(self, measurement: Measurement, tracer: Optional[Tracer] = None) -> None:
        with query_scope(tracer, "batch"):
            self.batch(measurement, jobs=1)

    def pooled_layers(self, seconds: float) -> Pooled:
        """Shard busy time against the pooled batch's wall clock."""
        measurement = Measurement()
        report = self.batch(measurement)
        busy = report.shard_seconds
        wall = report.wall_seconds
        metrics = {
            "parallel.busy_share": busy / (wall * report.jobs),
            "parallel.overhead_share": (wall - busy / report.jobs) / wall,
            "parallel.retries": sum(shard.retries for shard in report.shards),
        }
        details = {"mode": report.mode, "jobs": report.jobs, "wall_s": wall, "busy_s": busy}
        return metrics, details, measurement

    def references(self) -> List[Reference]:
        return [
            Reference(query.name, query.program, query.target, query.expected, query.optimize)
            for query in self.queries
        ]


@dataclass
class SessionProgram:
    name: str
    source: str
    #: (target spec, Bebop's verdict) for every exit/label/error target;
    #: exit targets are ``(procedure, "exit")``.
    targets: List[Tuple[object, bool]]
    primary: Tuple[str, bool]


class SessionWitness(Workload):
    name = "session-witness"
    why = (
        "solve once, then post-pass checks and witness extraction: the bdd read "
        "path (restrict, pick_cube) and replay, which node-building ops do not cover"
    )

    DRIVER_SIZES = (3,)
    TERMINATOR_BITS = (3,)
    #: The programs kept, sized so that about ten sweeps fit in a run.
    KEEP = ("driver-3-pos", "terminator-schoose-3b-neg")
    IMPORTS = ("repro.api", "repro.witness")

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        programs = []
        for name, source, target, positive in figure2_programs(
            self.DRIVER_SIZES, self.TERMINATOR_BITS
        ):
            if name not in self.KEEP:
                continue
            program = parse_program(source, name=name)
            cfg = build_cfg(program)
            specs: List[object] = ["error"] if cfg.error_locations() else []
            for procedure, proc_cfg in cfg.procedures.items():
                specs.extend(f"{procedure}:{label}" for label in proc_cfg.labels)
            targets = []
            for spec in specs:
                verdict = bebop_verdict(program, resolve_target(program, spec))
                if spec == target and verdict != positive:
                    raise RuntimeError(f"{name}: Bebop disagrees with the generator's polarity")
                targets.append((spec, verdict))
            for procedure, proc_cfg in cfg.procedures.items():
                location = (cfg.module_of(procedure), proc_cfg.exit)
                targets.append(((procedure, "exit"), bebop_verdict(program, [location])))
            rng.shuffle(targets)
            programs.append(SessionProgram(name, source, targets, (target, positive)))
        self.programs = programs

    @staticmethod
    def locations(session: AnalysisSession, spec) -> object:
        """Exit targets become (module, pc) pairs of the session's own CFG."""
        if isinstance(spec, tuple):
            procedure = spec[0]
            return [(session.cfg.module_of(procedure), session.cfg.procedure_cfg(procedure).exit)]
        return spec

    def sweep(self, measurement: Measurement, tracer: Optional[Tracer] = None) -> None:
        for item in self.programs:
            with query_scope(tracer, item.name):
                _, seconds = timed(self.run_session, item, measurement)
            measurement.parts.append(seconds)

    def run_session(self, item: SessionProgram, measurement: Measurement) -> None:
        session = AnalysisSession(item.source, default_algorithm="ef-opt", optimize=1)
        try:
            session.solve()
            reachable = []
            for spec, expected in item.targets:
                target = self.locations(session, spec)
                measurement.attempted += 1
                result, seconds = timed(session.check, target)
                measurement.query_seconds.append(seconds)
                if result.reachable != expected:
                    measurement.fail(f"{item.name} {spec}: got {result.reachable}, expected {expected}")
                elif expected:
                    reachable.append((spec, target))
            for spec, target in reachable:
                measurement.attempted += 1
                trace, seconds = timed(session.explain, target)
                measurement.query_seconds.append(seconds)
                if trace is None or not trace.validated:
                    measurement.fail(f"{item.name} {spec}: no validated witness")
        finally:
            session.close()

    def measure(self, seconds: float) -> Measurement:
        return closed_loop(seconds, self.sweep)

    def references(self) -> List[Reference]:
        return [
            Reference(item.name, item.source, item.primary[0], item.primary[1], 1)
            for item in self.programs
        ]


class DaemonZipf(Workload):
    name = "daemon-zipf"
    why = (
        "the only workload for service: admission, pooling, coalescing and IPC "
        "under an open-loop Zipf replay where hot programs hit warm sessions"
    )

    CORPUS = 30
    RATE = 40.0  # requests per second
    ZIPF_EXPONENT = 1.2
    REPLAY_SECONDS = 5.0
    IMPORTS = ("repro.service",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.loop = asyncio.new_event_loop()
        self.daemon: Optional[AnalysisDaemon] = None

    def prepare(self) -> None:
        self.corpus = random_corpus(random.Random(self.seed), self.CORPUS, "zipf")
        self.expected = random_oracle(self.corpus)
        self.sources = dict(self.corpus)

    def setup(self) -> None:
        """The service's set-up: program start-up, then the daemon and its worker pool."""
        super().setup()
        self.daemon = self.new_daemon(JOBS)
        self.loop.run_until_complete(self.daemon.start())

    @staticmethod
    def new_daemon(workers: int) -> AnalysisDaemon:
        return AnalysisDaemon(DaemonConfig(workers=workers, max_pending=256, shed_threshold=128))

    def schedule(self, requests: int) -> List[str]:
        """The replay as JSON lines: a Zipf-ranked program per request."""
        names = [name for name, _ in self.corpus]
        weights = [1.0 / (rank + 1) ** self.ZIPF_EXPONENT for rank in range(len(names))]
        draws = random.Random(self.seed + 1).choices(names, weights=weights, k=requests)
        return [
            json.dumps({"op": "query", "id": index, "name": name, "program": self.sources[name],
                        "target": RANDOM_TARGET, "optimize": 2})
            for index, name in enumerate(draws)
        ]

    def check(self, response: Dict[str, object], measurement: Measurement) -> None:
        measurement.attempted += 1
        name = response.get("name")
        if not response.get("ok"):
            measurement.fail(f"{name}: {response.get('status')} {response.get('error')}")
        elif response.get("reachable") != self.expected[name]:
            measurement.fail(f"{name}: got {response.get('reachable')}, expected {self.expected[name]}")

    async def open_loop(self, lines: List[str], measurement: Measurement):
        """Send each line when due; time each request from its due time.

        An open loop's wall time is fixed by its schedule, so the replay's
        parts are the requests' latencies: its ``sweep_seconds`` is the
        total time requests spent waiting for the service.  Returns
        ``(latency, response)`` per request, in schedule order, and how late
        the generator sent each one.
        """
        daemon = self.daemon
        interval = 1.0 / self.RATE
        lags: List[float] = []

        async def send(line: str, due: float) -> Tuple[float, Dict[str, object]]:
            response = await daemon.handle_request(json.loads(line))
            return time.perf_counter() - due, response

        started = time.perf_counter() + interval
        tasks = []
        for index, line in enumerate(lines):
            due = started + index * interval
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(time.perf_counter() - due)
            tasks.append(asyncio.get_running_loop().create_task(send(line, due)))
        records = await asyncio.gather(*tasks)
        for latency, response in records:
            measurement.query_seconds.append(latency)
            measurement.parts.append(latency)
            self.check(response, measurement)
        return records, lags

    def measure(self, seconds: float) -> Measurement:
        """Replay one schedule again and again on the same daemon.

        Cold solves land in the first replay; each request's best latency
        over the replays is the warm service path that only this workload
        measures, and cold solves are measured by the other workloads.
        """
        lines = self.schedule(int(self.RATE * self.REPLAY_SECONDS))

        def replay(measurement: Measurement) -> None:
            self.loop.run_until_complete(self.open_loop(lines, measurement))

        return closed_loop(seconds, replay)

    def traced_pass(self, tracer: Optional[Tracer], seconds: float) -> Measurement:
        """Replay the schedule one request at a time through an inline daemon."""
        lines = self.schedule(int(self.RATE * seconds / 2))
        measurement = Measurement()

        async def replay() -> None:
            daemon = self.new_daemon(0)
            await daemon.start()
            started = time.perf_counter()
            try:
                for line in lines:
                    request = json.loads(line)
                    with query_scope(tracer, request["id"]):
                        response = await daemon.handle_request(request)
                    self.check(response, measurement)
            finally:
                await daemon.shutdown()
            measurement.sweeps.append(time.perf_counter() - started)

        self.loop.run_until_complete(replay())
        return measurement

    def pooled_layers(self, seconds: float) -> Pooled:
        """Service records from an open-loop replay on the worker pool."""
        measurement = Measurement()
        before = dict(self.daemon.counters)
        lines = self.schedule(int(self.RATE * seconds / 2))
        records, lags = self.loop.run_until_complete(self.open_loop(lines, measurement))
        counters = {key: value - before.get(key, 0) for key, value in self.daemon.counters.items()}
        answered = [(latency, response) for latency, response in records if response.get("ok")]
        overhead = [
            (latency - response["elapsed_seconds"]) / latency for latency, response in answered
        ]
        latencies = [latency for latency, _ in records]
        metrics = {
            "service.overhead_share": statistics.median(overhead),
            "service.warm_share": sum(1 for _, r in answered if r.get("warm")) / len(records),
            "service.solves": counters["solves"],
            "service.coalesced": counters["coalesced"],
            "service.shed": counters["shed_ladder"] + counters["shed_rejected"],
            "service.evictions": counters["evictions"],
        }
        details = {
            "requests": len(records),
            "latency_ms.p50": 1e3 * percentile(latencies, 50),
            "latency_ms.p99": 1e3 * percentile(latencies, 99),
            "overhead_ms.p50": 1e3 * statistics.median(
                latency - response["elapsed_seconds"] for latency, response in answered
            ),
            "sched_lag_ms.max": 1e3 * max(lags),
        }
        return metrics, details, measurement

    def references(self) -> List[Reference]:
        return [
            Reference(name, source, RANDOM_TARGET, self.expected[name], 2)
            for name, source in self.corpus
        ]

    def teardown(self) -> None:
        if self.daemon is not None:
            self.loop.run_until_complete(self.daemon.shutdown())
            self.daemon = None

    def close(self) -> None:
        self.teardown()
        self.loop.close()


WORKLOADS = {cls.name: cls for cls in (ScalingCold, CorpusBatch, SessionWitness, DaemonZipf)}
