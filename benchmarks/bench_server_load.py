"""Replayable Zipf load generator for the analysis daemon.

Drives :class:`repro.service.AnalysisDaemon` through the request mix a
long-lived service actually sees — a few hot programs and a long tail
(Zipf-distributed over a ``repro.benchgen`` random-program corpus) — with
the chaos scenarios from ``repro.testing.faults`` layered on top:

* a worker killed mid-request on the hottest program (failover retry),
* a deadline-exhaustion storm (typed errors, sessions stay usable),
* memory-budget pressure forcing pool eviction (cold re-solve),
* a shed burst past the admission threshold (degradation-ladder fallback),
* a graceful drain at the end (in-flight answered, workers stopped).

The load is fully replayable: one ``--seed`` fixes the corpus, the Zipf
draw and the burst schedule.  Every verdict the service produces is
checked against the offline batch path (``run_batch``) — fault tolerance
must never change answers.  The run fails (exit 1) on any verdict
mismatch, or if the service never demonstrated a warm-session reuse, a
shed-to-ladder event, a failover retry, or a forced eviction.

Usage::

    PYTHONPATH=src python benchmarks/bench_server_load.py --smoke
    PYTHONPATH=src python benchmarks/bench_server_load.py --requests 200 --json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms import run_batch  # noqa: E402
from repro.benchgen import random_program_source  # noqa: E402
from repro.parallel import BatchQuery  # noqa: E402
from repro.service import AnalysisDaemon, DaemonConfig  # noqa: E402
from repro.testing import FaultPlan  # noqa: E402

TARGET = "main:target"


def build_corpus(size: int, seed: int) -> List[Tuple[str, str]]:
    """``size`` distinct (name, source) programs, deterministic in ``seed``."""
    return [
        (f"zipf-{seed}-{index}", random_program_source(seed * 1000 + index))
        for index in range(size)
    ]


def zipf_schedule(corpus, requests: int, exponent: float, seed: int) -> List[str]:
    """A replayable request schedule: rank-``i`` program drawn ∝ 1/(i+1)^s."""
    names = [name for name, _ in corpus]
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(names))]
    rng = random.Random(seed)
    schedule = rng.choices(names, weights=weights, k=requests)
    # The hottest program must appear at least twice so a warm reuse is
    # possible even on tiny --smoke schedules.
    if schedule.count(names[0]) < 2:
        schedule[:2] = [names[0], names[0]]
    return schedule


def offline_verdicts(corpus) -> Dict[str, bool]:
    """Ground truth from the offline batch path, sequentially, no faults."""
    report = run_batch(
        [
            BatchQuery(name=name, program=source, target=TARGET)
            for name, source in corpus
        ],
        jobs=1,
    )
    failures = report.failures()
    if failures:
        raise SystemExit(
            f"offline baseline failed on {[shard.name for shard in failures]}"
        )
    return report.verdicts()


async def drive(args, corpus, schedule, expected) -> Dict[str, object]:
    sources = dict(corpus)
    hot_name = corpus[0][0]
    chaos = args.workers >= 1 and not args.no_chaos
    latch_dir = tempfile.mkdtemp(prefix="repro-bench-latch-")
    plan = (
        FaultPlan(kill_query=hot_name, once_token=str(Path(latch_dir) / "kill"))
        if chaos
        else None
    )
    daemon = AnalysisDaemon(
        DaemonConfig(
            workers=args.workers,
            memory_budget_nodes=None,  # clamped mid-run to force eviction
            max_pending=max(64, args.burst * 2),
            shed_threshold=max(64, args.burst * 2),  # lowered for the shed burst
            breaker_threshold=10_000,  # the storm must not convict programs
            retry_backoff=0.01,
            fault_plan=plan,
        )
    )
    await daemon.start()

    mismatches: List[str] = []
    events = {
        "warm": 0,
        "shed": 0,
        "retried": 0,
        "coalesced": 0,
        "timeouts": 0,
    }

    def request(name: str, **fields) -> Dict[str, object]:
        body = {"op": "query", "name": name, "program": sources[name], "target": TARGET}
        body.update(fields)
        return body

    def check(response: Dict[str, object]) -> None:
        name = response.get("name")
        if not response.get("ok"):
            mismatches.append(f"{name}: unexpected failure {response.get('status')}")
            return
        if response.get("reachable") != expected[name]:
            mismatches.append(
                f"{name}: service said {response.get('reachable')}, "
                f"offline said {expected[name]}"
            )
        events["warm"] += 1 if response.get("warm") else 0
        events["shed"] += 1 if response.get("shed") else 0
        events["coalesced"] += 1 if response.get("coalesced") else 0
        if response.get("status") == "retried":
            events["retried"] += 1

    try:
        # -- phase 1: the Zipf replay, issued in bursts so identical hot
        # requests can coalesce.  The chaos plan kills a worker on the hot
        # program's first touch; failover must answer it anyway.
        for start in range(0, len(schedule), args.burst):
            burst = schedule[start : start + args.burst]
            responses = await asyncio.gather(
                *[daemon.handle_request(request(name)) for name in burst]
            )
            for response in responses:
                check(response)

        # -- phase 2: shed burst.  Drop the soft threshold to 1 and fire
        # distinct programs concurrently: all but the first in flight must
        # shed to the degradation ladder (cheaper algorithm, same verdict).
        daemon.config.shed_threshold = 1
        responses = await asyncio.gather(
            *[daemon.handle_request(request(name, id=f"shed-{name}"))
              for name, _ in corpus]
        )
        for response in responses:
            check(response)
        daemon.config.shed_threshold = max(64, args.burst * 2)

        # -- phase 3: deadline storm.  Zero deadlines exhaust immediately
        # with typed errors; the pooled sessions must stay usable.
        storm = await asyncio.gather(
            *[
                daemon.handle_request(
                    request(name, id=f"storm-{name}", deadline_seconds=0.0)
                )
                for name, _ in corpus[: min(4, len(corpus))]
            ]
        )
        for response in storm:
            if response.get("status") == "timeout":
                events["timeouts"] += 1
            else:
                mismatches.append(
                    f"storm {response.get('name')}: expected a typed timeout, "
                    f"got {response.get('status')}"
                )

        # -- phase 4: memory pressure.  Clamp the budget below the pool and
        # touch the hot program: the LRU tail must be evicted worker-side,
        # and evicted programs must re-solve cold to the same verdict.
        total = daemon.pool_index.total_live_nodes()
        daemon.pool_index.memory_budget_nodes = max(1, int(total * 0.6))
        check(await daemon.handle_request(request(hot_name, id="pressure")))
        for _ in range(200):
            if daemon.counters["evicted_nodes"] > 0:
                break
            await asyncio.sleep(0.02)
        for name, _ in corpus:
            check(await daemon.handle_request(request(name, id=f"cold-{name}")))

        metrics = daemon.metrics()
        health = daemon.health()
    finally:
        await daemon.shutdown()

    late = await daemon.handle_request(request(hot_name, id="late"))
    return {
        "mismatches": mismatches,
        "events": events,
        "counters": metrics["counters"],
        "statuses": metrics["statuses"],
        "queries_per_solve": metrics["queries_per_solve"],
        "restarts": health["workers"]["restarts"],
        "drained": {
            "late_status": late.get("status"),
            "workers_alive": daemon._pool.alive_count(),
        },
        "chaos": chaos,
    }


def verify(report: Dict[str, object]) -> List[str]:
    problems = list(report["mismatches"])
    counters = report["counters"]
    if counters["warm_queries"] < 1:
        problems.append("no warm-session reuse was observed")
    if counters["shed_ladder"] < 1:
        problems.append("no shed-to-ladder event was observed")
    if counters["evictions"] < 1 or counters["evicted_nodes"] <= 0:
        problems.append("memory pressure never forced an eviction")
    if report["events"]["timeouts"] < 1:
        problems.append("the deadline storm produced no typed timeouts")
    if report["chaos"]:
        if counters["retried"] < 1:
            problems.append("the worker kill was never failed over (no retry)")
        if report["restarts"] < 1:
            problems.append("the killed worker was never rebuilt")
    if report["drained"]["late_status"] != "draining":
        problems.append("post-shutdown request was not answered with 'draining'")
    if report["drained"]["workers_alive"] != 0:
        problems.append("workers survived the drain")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", type=int, default=8, help="distinct programs")
    parser.add_argument("--requests", type=int, default=80, help="Zipf replay length")
    parser.add_argument("--zipf", type=float, default=1.2, help="Zipf exponent s")
    parser.add_argument("--burst", type=int, default=8, help="requests per burst")
    parser.add_argument("--seed", type=int, default=7, help="replay seed")
    parser.add_argument("--workers", type=int, default=2, help="pool workers (0 = inline)")
    parser.add_argument("--no-chaos", action="store_true", help="skip fault injection")
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument(
        "--smoke", action="store_true", help="small fast preset for CI (overrides sizes)"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.corpus, args.requests, args.burst = 4, 24, 6

    corpus = build_corpus(args.corpus, args.seed)
    schedule = zipf_schedule(corpus, args.requests, args.zipf, args.seed)
    expected = offline_verdicts(corpus)
    report = asyncio.run(drive(args, corpus, schedule, expected))
    problems = verify(report)

    if args.json:
        print(json.dumps({**report, "problems": problems}, indent=2, default=str))
    else:
        counters = report["counters"]
        print(
            f"replayed {counters['requests']} requests over {args.corpus} programs "
            f"(zipf s={args.zipf}, seed={args.seed}, workers={args.workers})"
        )
        print(
            f"  warm={counters['warm_queries']} solves={counters['solves']} "
            f"queries/solve={report['queries_per_solve']:.2f} "
            f"coalesced={counters['coalesced']}"
        )
        print(
            f"  shed_ladder={counters['shed_ladder']} retried={counters['retried']} "
            f"restarts={report['restarts']} evictions={counters['evictions']} "
            f"evicted_nodes={counters['evicted_nodes']}"
        )
        print(f"  statuses={report['statuses']}")
        print(f"  drain: late={report['drained']['late_status']} "
              f"alive={report['drained']['workers_alive']}")
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print("OK: all verdicts identical to the offline batch path")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
