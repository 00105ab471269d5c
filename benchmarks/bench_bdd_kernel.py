"""Micro-benchmarks of the BDD kernel, independent of the end-to-end figures.

The end-to-end tables (Figures 2/3) mix encoder, fixed-point and kernel time;
this module tracks the kernel's trajectory in isolation so a regression in
one apply recursion or quantifier path is visible without re-running whole
benchmark sweeps.  The workload is a synthetic symbolic transition system —
an ``n``-bit counter with nondeterministic stutter, encoded over interleaved
current/next bit variables exactly like the template encoders lay out state
copies — exercised through five kernel pillars:

* ``apply``     — building the transition relation (iff/and/or recursions),
* ``quantify``  — existential/universal quantification over the next-state cube,
* ``rename``    — the order-preserving prime/unprime shift (fast path) and a
                  deliberately order-reversing mapping (ite fall-back),
* ``relprod``   — reachability via ``and_exists`` image iteration,
* ``negation``  — an entry-forward-opt-shaped workload that negates the
                  running summary on every round (the ``Relevant`` relation
                  shape of Section 4.3), run with a low GC trigger so the
                  mark-and-sweep collector reclaims each round's residues,
* ``count``     — repeated model counting over the relation and reach sets
                  (each count is one exact memoised recursion over the
                  node vectors).

Each case is exposed two ways: as a plain callable returning a
:class:`KernelResult` (checksum + peak/live node counts + GC collections,
used by ``benchmarks/report.py kernel``), and — for the negation case —
through the ``--smoke`` CLI mode used by CI, which asserts the
complement-edge invariants:

* ``not_`` is O(1): no node allocation, no cache lookup, involution by edge
  arithmetic;
* peak node count on the negation-heavy workload is at most 60% of the value
  recorded for the pre-complement-edge seed kernel
  (:data:`SEED_NEGATION_PEAK`).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.bdd import BddManager

#: Default bit width of the synthetic counter for the report harness.
DEFAULT_BITS = 14

#: Increments of the multi-delta counter (``next = current + d`` for some d).
DELTAS = (1, 2, 3, 5, 7, 11)

#: Peak node counts of the negation workload measured on the seed kernel
#: (no complement edges, no GC) — the baseline for the ``--smoke`` assertion.
SEED_NEGATION_PEAK = {8: 2403, 10: 8035, 12: 29718}

#: The smoke mode must beat this fraction of the seed peak.
SMOKE_PEAK_RATIO = 0.60


class KernelResult(NamedTuple):
    """Outcome of one kernel case: a correctness checksum plus node/GC stats."""

    checksum: int
    peak_nodes: int
    live_nodes: int
    gc_collections: int


def _result(mgr: BddManager, checksum: int) -> KernelResult:
    stats = mgr.stats()
    return KernelResult(
        checksum=checksum,
        peak_nodes=stats["peak_nodes"],
        live_nodes=stats["nodes"],
        gc_collections=stats["gc"]["collections"],
    )


def _make_manager(bits: int, **kwargs) -> BddManager:
    """Interleaved current/next variables: c0, n0, c1, n1, ..."""
    names: List[str] = []
    for i in range(bits):
        names.append(f"c{i}")
        names.append(f"n{i}")
    return BddManager(names, **kwargs)


def _adder(mgr: BddManager, bits: int, delta: int) -> int:
    """``next = current + delta (mod 2**bits)``, ripple-carry encoded.

    A typical mix of xor/and/or/iff apply calls over interleaved variables —
    the same shape the template encoders produce for assignments.
    """
    node = mgr.TRUE
    carry = mgr.FALSE
    for i in range(bits):
        current = mgr.var(f"c{i}")
        nxt = mgr.var(f"n{i}")
        d = mgr.TRUE if (delta >> i) & 1 else mgr.FALSE
        total = mgr.xor(mgr.xor(current, d), carry)
        node = mgr.and_(node, mgr.iff(nxt, total))
        carry = mgr.or_(mgr.and_(current, d), mgr.and_(carry, mgr.xor(current, d)))
    return node


def _transition(mgr: BddManager, bits: int) -> int:
    """Disjunction of the adders for every delta in :data:`DELTAS`."""
    return mgr.disjoin(_adder(mgr, bits, delta) for delta in DELTAS)


def bench_apply(bits: int = DEFAULT_BITS) -> KernelResult:
    """Build the multi-delta transition relation (pure apply recursions)."""
    mgr = _make_manager(bits)
    relation = _transition(mgr, bits)
    # Extra apply pressure: constrain the relation by fixed low/high bits.
    evens = mgr.conjoin(mgr.nvar(f"c{i}") for i in range(0, bits, 2))
    odds = mgr.conjoin(mgr.var(f"c{i}") for i in range(1, bits, 2))
    node = mgr.or_(mgr.and_(relation, evens), mgr.and_(relation, odds))
    return _result(mgr, mgr.node_count(relation) + mgr.node_count(node))


def bench_quantify(bits: int = DEFAULT_BITS) -> KernelResult:
    """Partial existential/universal quantification of the transition."""
    mgr = _make_manager(bits)
    relation = _transition(mgr, bits)
    odd_next = [f"n{i}" for i in range(1, bits, 2)]
    even_next = [f"n{i}" for i in range(0, bits, 2)]
    exists_odd = mgr.exists(relation, odd_next)
    forall_even = mgr.forall(relation, even_next)
    exists_both = mgr.exists(exists_odd, even_next)
    return _result(
        mgr,
        mgr.node_count(exists_odd)
        + mgr.node_count(forall_even)
        + mgr.node_count(exists_both),
    )


def _image_set(mgr: BddManager, bits: int, relation: int, steps: int) -> int:
    """The set of states reachable from 0 in at most ``steps`` images."""
    current_bits = [f"c{i}" for i in range(bits)]
    unprime = {f"n{i}": f"c{i}" for i in range(bits)}
    reached = mgr.conjoin(mgr.nvar(bit) for bit in current_bits)
    for _ in range(steps):
        image = mgr.and_exists(reached, relation, current_bits)
        reached = mgr.or_(reached, mgr.rename(image, unprime))
    return reached


def bench_rename(bits: int = DEFAULT_BITS) -> KernelResult:
    """Prime/unprime shifts (fast path) and an order-reversing rename (fall-back)."""
    mgr = _make_manager(bits)
    # An extra block of variables for the order-reversing case.
    for i in range(bits):
        mgr.add_var(f"r{i}")
    relation = _transition(mgr, bits)
    state_set = _image_set(mgr, bits, relation, 6)
    # The prime/unprime shifts are order-preserving on the support (c and n
    # copies are interleaved), so these take the structural fast path.
    prime = {f"c{i}": f"n{i}" for i in range(bits)}
    unprime = {f"n{i}": f"c{i}" for i in range(bits)}
    total = 0
    for _ in range(5):
        primed = mgr.rename(state_set, prime)
        total += mgr.node_count(primed)
        assert mgr.rename(primed, unprime) == state_set
    # Order-reversing mapping: the c-bits land in the r-block in reverse,
    # violating the support order, which forces the ite rebuild.
    onto_reversed = {f"c{i}": f"r{bits - 1 - i}" for i in range(bits)}
    reversed_node = mgr.rename(state_set, onto_reversed)
    total += mgr.node_count(reversed_node)
    return _result(mgr, total)


def bench_relprod(bits: int = DEFAULT_BITS) -> KernelResult:
    """Full reachability from state 0 by ``and_exists`` image iteration."""
    mgr = _make_manager(bits)
    relation = _transition(mgr, bits)
    current_bits = [f"c{i}" for i in range(bits)]
    unprime = {f"n{i}": f"c{i}" for i in range(bits)}
    reached = mgr.conjoin(mgr.nvar(bit) for bit in current_bits)
    frontier = reached
    iterations = 0
    while frontier != mgr.FALSE:
        iterations += 1
        image = mgr.and_exists(frontier, relation, current_bits)
        image = mgr.rename(image, unprime)
        frontier = mgr.and_(image, mgr.not_(reached))
        reached = mgr.or_(reached, frontier)
    assert mgr.count_sat(reached, current_bits) == 1 << bits
    return _result(mgr, iterations)


def bench_negation(bits: int = DEFAULT_BITS, gc_threshold: int = 2048) -> KernelResult:
    """Negation-heavy reachability: the entry-forward-opt ``Relevant`` shape.

    Every round negates the running summary, the image and the frontier —
    the residue pattern of the non-monotone Section 4.3 system.  On the seed
    kernel each negation copied the whole BDD; with complement edges all
    three are edge flips.  The manager runs with a deliberately low GC
    trigger, and each round's safe point passes the genuinely live edges as
    roots so the collector reclaims the round residues.
    """
    mgr = _make_manager(bits, gc_threshold=gc_threshold)
    relation = mgr.ref(_transition(mgr, bits))
    current_bits = [f"c{i}" for i in range(bits)]
    unprime = {f"n{i}": f"c{i}" for i in range(bits)}
    reached = mgr.conjoin(mgr.nvar(b) for b in current_bits)
    frontier = reached
    checksum = 0
    while frontier != mgr.FALSE:
        image = mgr.and_exists(frontier, relation, current_bits)
        image = mgr.rename(image, unprime)
        relevant = mgr.and_(mgr.not_(reached), image)
        irrelevant = mgr.not_(relevant)
        blocked = mgr.or_(mgr.not_(image), mgr.not_(frontier))
        checksum += (
            mgr.node_count(relevant)
            + mgr.node_count(irrelevant)
            + mgr.node_count(blocked)
        )
        frontier = relevant
        reached = mgr.or_(reached, frontier)
        mgr.maybe_collect((reached, frontier))
    return _result(mgr, checksum)


def _hidden_weighted_bit(mgr: BddManager, names: List[str]) -> int:
    """``f(x) = x_{weight(x)}`` — a provably large ROBDD under any order.

    The weight-``k`` indicators are built by dynamic programming (binomial-
    sized intermediates); their var-selected disjunction is the classic
    hidden-weighted-bit blow-up.  This is the *summary relation* shape:
    thousands of nodes with heavy sharing, exactly what ``count_sat`` walks
    when a solver reports reachable-state counts.
    """
    nvars = len(names)
    weight = [mgr.TRUE] + [mgr.FALSE] * nvars
    for name in names:
        v = mgr.var(name)
        nv = mgr.not_(v)
        new = [mgr.and_(weight[0], nv)]
        for k in range(1, nvars + 1):
            new.append(
                mgr.or_(mgr.and_(weight[k], nv), mgr.and_(weight[k - 1], v))
            )
        weight = new
    f = mgr.FALSE
    for k in range(1, nvars + 1):
        f = mgr.or_(f, mgr.and_(weight[k], mgr.var(names[k - 1])))
    return f


def bench_count(bits: int = DEFAULT_BITS) -> KernelResult:
    """Repeated model counting over a large, heavily shared BDD.

    Builds the hidden-weighted-bit function over all ``2 * bits`` variables
    (a large, heavily shared BDD — the summary-relation shape), sweeps the
    construction residues, then counts it and several derived functions
    over and over, full-support and restricted — the ``count_sat`` pattern
    of summary-state reporting and the session post-passes, each answered
    by one exact memoised recursion over the flat node vectors.
    """
    mgr = _make_manager(bits)
    names = list(mgr.var_names)
    f = mgr.ref(_hidden_weighted_bit(mgr, names))
    mgr.collect_garbage()
    functions = (
        f,
        mgr.not_(f),
        mgr.xor(f, mgr.var(names[0])),
        mgr.and_(f, mgr.var(names[-1])),
    )
    checksum = 0
    for _ in range(8):
        for node in functions:
            checksum = (checksum + mgr.count_sat(node)) % (1 << 61)
        checksum = (checksum + mgr.count_sat(f, names)) % (1 << 61)
    return _result(mgr, checksum)


#: name -> callable for the report harness (each returns a KernelResult).
KERNEL_CASES: Dict[str, Callable[..., KernelResult]] = {
    "apply": bench_apply,
    "quantify": bench_quantify,
    "rename": bench_rename,
    "relprod": bench_relprod,
    "negation": bench_negation,
    "count": bench_count,
}


def kernel_report(bits: int = DEFAULT_BITS) -> List[Tuple[str, float, KernelResult]]:
    """Run every kernel case once; return (name, seconds, result) rows."""
    rows = []
    for name, case in KERNEL_CASES.items():
        started = time.perf_counter()
        result = case(bits)
        rows.append((name, time.perf_counter() - started, result))
    return rows


# ---------------------------------------------------------------------------
# CI smoke mode
# ---------------------------------------------------------------------------
def smoke(bits: int = 10) -> int:
    """Fast perf-smoke assertions for CI (complement edges + GC).

    Asserts that negation is O(1) — no node allocation, no cache traffic —
    and that the negation-heavy workload's peak node count is at most
    :data:`SMOKE_PEAK_RATIO` of the recorded seed value.  Returns 0 on
    success; raises AssertionError on regression.
    """
    # --- O(1) negation: flip a large BDD many times without allocating.
    mgr = _make_manager(bits)
    relation = _transition(mgr, bits)
    before = mgr.stats()
    node = relation
    for _ in range(1_000):
        node = mgr.not_(node)
    assert node == relation, "negation is not an involution"
    assert mgr.not_(relation) != relation
    after = mgr.stats()
    assert after["nodes"] == before["nodes"], "not_ allocated nodes"
    assert after["capacity"] == before["capacity"], "not_ grew the node table"
    assert after["cache_sizes"] == before["cache_sizes"], "not_ touched a cache"
    assert after["ops"] == before["ops"], "not_ performed cache lookups"
    print(f"smoke: O(1) negation ok (1000 flips of a {after['nodes']}-node table)")

    # --- Peak node count on the negation-heavy workload vs the seed kernel.
    seed_peak = SEED_NEGATION_PEAK[bits]
    result = bench_negation(bits)
    budget = int(seed_peak * SMOKE_PEAK_RATIO)
    assert result.peak_nodes <= budget, (
        f"negation workload peaked at {result.peak_nodes} nodes; "
        f"budget is {budget} (= {SMOKE_PEAK_RATIO:.0%} of seed {seed_peak})"
    )
    print(
        f"smoke: negation workload ok (peak {result.peak_nodes} <= {budget} "
        f"= {SMOKE_PEAK_RATIO:.0%} of seed {seed_peak}; live {result.live_nodes}, "
        f"{result.gc_collections} gc collections)"
    )
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the CI perf-smoke assertions (O(1) negation, peak-node budget)",
    )
    parser.add_argument(
        "--bits",
        type=int,
        default=None,
        help="counter width (default: 10 for --smoke, 14 otherwise)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        bits = args.bits if args.bits is not None else 10
        if bits not in SEED_NEGATION_PEAK:
            parser.error(
                f"--smoke needs a recorded seed baseline; have {sorted(SEED_NEGATION_PEAK)}"
            )
        return smoke(bits)
    bits = args.bits if args.bits is not None else DEFAULT_BITS
    for name, seconds, result in kernel_report(bits):
        print(
            f"{name:10s}  {seconds:9.3f}s  checksum={result.checksum}  "
            f"peak={result.peak_nodes}  live={result.live_nodes}  "
            f"gc={result.gc_collections}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
