"""Figure 3: bounded context-switching analysis of the Bluetooth driver model.

The paper reports, for four thread configurations (adders x stoppers) and
context-switch bounds 1..6: whether the assertion violation is reachable, the
size of the reachable set, and the analysis time.  Two groups of benchmarks
reproduce the figure:

* ``test_bluetooth_symbolic`` — the paper's fixed-point algorithm (Section 5)
  evaluated symbolically.  Pure-Python BDDs are orders of magnitude slower
  than MUCKE, so the symbolic sweep covers the small/medium bounds; the
  qualitative verdict pattern (which configuration finds the bug at which
  bound) matches Figure 3 exactly.
* ``test_bluetooth_explicit`` — the explicit-state engine covering the full
  k = 1..6 range of the figure, used for the Reachable? column and as a
  cross-check of the symbolic verdicts.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import pytest

from repro.algorithms import run_batch, run_concurrent
from repro.baselines import run_concurrent_explicit
from repro.benchgen import make_bluetooth
from repro.encode.concurrent import ConcurrentEncoder
from repro.parallel import BatchQuery

from conftest import measure

#: (configuration name, adders, stoppers, expected bound at which the bug appears
#:  or None if unreachable within 6 switches) — the Figure 3 pattern.
CONFIGURATIONS = [
    ("1A1S", 1, 1, None),
    ("1A2S", 1, 2, 3),
    ("2A1S", 2, 1, 4),
    ("2A2S", 2, 2, 3),
]

#: Symbolic sweep kept to bounds that finish in tens of seconds in pure Python.
SYMBOLIC_CASES = [
    ("1A1S", 1, 1, 1, False),
    ("1A1S", 1, 1, 2, False),
    ("1A2S", 1, 2, 2, False),
    ("1A2S", 1, 2, 3, True),
    ("2A2S", 2, 2, 3, True),
]


def _locations(program):
    return ConcurrentEncoder(program).error_locations()


@pytest.mark.parametrize("name,adders,stoppers,switches,expected", SYMBOLIC_CASES,
                         ids=[f"{c[0]}-k{c[3]}" for c in SYMBOLIC_CASES])
def test_bluetooth_symbolic(benchmark, name, adders, stoppers, switches, expected):
    program = make_bluetooth(adders, stoppers)
    locations = _locations(program)
    result = measure(
        benchmark, run_concurrent, program, locations, context_switches=switches,
    )
    assert result.reachable == expected
    benchmark.extra_info["configuration"] = name
    benchmark.extra_info["context_switches"] = switches
    benchmark.extra_info["reach_bdd_nodes"] = result.summary_nodes


@pytest.mark.parametrize("name,adders,stoppers,bug_at", CONFIGURATIONS,
                         ids=[c[0] for c in CONFIGURATIONS])
@pytest.mark.parametrize("switches", [1, 2, 3, 4, 5, 6])
def test_bluetooth_explicit(benchmark, name, adders, stoppers, bug_at, switches):
    program = make_bluetooth(adders, stoppers)
    locations = _locations(program)
    result = measure(
        benchmark,
        run_concurrent_explicit,
        program,
        locations,
        context_switches=switches,
    )
    expected = bug_at is not None and switches >= bug_at
    assert result.reachable == expected
    benchmark.extra_info["configuration"] = name
    benchmark.extra_info["context_switches"] = switches
    benchmark.extra_info["explored_configurations"] = result.details["configurations"]


def batch_queries(
    cases: Sequence[Tuple[str, int, int, int, bool]] = SYMBOLIC_CASES,
) -> List[BatchQuery]:
    """The symbolic Bluetooth sweep as picklable shard queries."""
    return [
        BatchQuery(
            name=f"{name}-k{switches}",
            program=make_bluetooth(adders, stoppers),
            target="error",
            concurrent=True,
            context_switches=switches,
            expected=expected,
        )
        for name, adders, stoppers, switches, expected in cases
    ]


@pytest.mark.parametrize("jobs", [1, 4], ids=["jobs1", "jobs4"])
def test_bluetooth_sharded(benchmark, jobs):
    """Parallel mode: the symbolic sweep fanned out over per-shard managers."""
    report = measure(benchmark, run_batch, batch_queries(), jobs=jobs)
    assert not report.failures() and not report.mismatches()
    benchmark.extra_info["mode"] = report.mode
    benchmark.extra_info["speedup"] = round(report.speedup, 2)


def test_bluetooth_grouping_shares_one_solve(benchmark):
    """Concurrent queries on one program under one bound share a session:
    the first query solves ``Reach``, the second is a post-pass over it."""
    from repro.parallel import group_queries

    program = make_bluetooth(1, 1)
    queries = [
        BatchQuery(
            name=f"1A1S-k1-{index}",
            program=program,
            target="error",
            concurrent=True,
            context_switches=1,
            expected=False,
        )
        for index in range(2)
    ]
    assert group_queries(queries) == [[0, 1]]
    report = measure(benchmark, run_batch, queries, jobs=1)
    assert not report.failures() and not report.mismatches()
    assert report.reused_count == 1
    assert report.queries_per_solve == 2.0
