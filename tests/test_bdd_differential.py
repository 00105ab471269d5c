"""Randomized differential suite: complement-edge manager vs a reference
no-complement build.

~200 seeded random formulas are compiled into both the production
:class:`BddManager` (complement edges, shared caches, GC machinery) and the
deliberately naive :class:`reference_bdd.ReferenceBdd` oracle, checking for
each one that

* the truth tables agree on every assignment,
* ``not_(not_(f))`` is *the same edge* as ``f`` and negation never allocates,
* satisfying-assignment counts agree,
* the complement-edge node count never exceeds the no-complement baseline
  (and wins strictly overall across the corpus),
* existential quantification agrees with the oracle,

and that the GC sweep, its tail trim and the exact ``count_sat`` meet the
same oracle under the sanitizer.
"""

import itertools
import random

import pytest

from repro.bdd import BddManager

from reference_bdd import ReferenceBdd

VAR_NAMES = ["a", "b", "c", "d", "e", "f"]
NUM_FORMULAS = 200
MAX_DEPTH = 5


def random_formula(rng: random.Random, depth: int = 0):
    """A random propositional AST with negation-heavy weighting."""
    if depth >= MAX_DEPTH or rng.random() < 0.25:
        if rng.random() < 0.1:
            return ("const", rng.random() < 0.5)
        return ("var", rng.choice(VAR_NAMES))
    op = rng.choices(
        ["not", "and", "or", "xor", "ite"], weights=[3, 2, 2, 2, 1], k=1
    )[0]
    if op == "not":
        return ("not", random_formula(rng, depth + 1))
    if op == "ite":
        return (
            "ite",
            random_formula(rng, depth + 1),
            random_formula(rng, depth + 1),
            random_formula(rng, depth + 1),
        )
    return (op, random_formula(rng, depth + 1), random_formula(rng, depth + 1))


def build(expr, mgr):
    tag = expr[0]
    if tag == "var":
        return mgr.var(expr[1])
    if tag == "const":
        return mgr.TRUE if expr[1] else mgr.FALSE
    if tag == "not":
        return mgr.not_(build(expr[1], mgr))
    if tag == "and":
        return mgr.and_(build(expr[1], mgr), build(expr[2], mgr))
    if tag == "or":
        return mgr.or_(build(expr[1], mgr), build(expr[2], mgr))
    if tag == "xor":
        return mgr.xor(build(expr[1], mgr), build(expr[2], mgr))
    if tag == "ite":
        return mgr.ite(build(expr[1], mgr), build(expr[2], mgr), build(expr[3], mgr))
    raise AssertionError(tag)


def all_envs():
    for values in itertools.product([False, True], repeat=len(VAR_NAMES)):
        yield dict(zip(VAR_NAMES, values))


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260729)
    return [random_formula(rng) for _ in range(NUM_FORMULAS)]


def test_truth_tables_and_node_counts_match_reference(corpus):
    mgr = BddManager(VAR_NAMES)
    ref = ReferenceBdd(VAR_NAMES)
    complement_total = 0
    reference_total = 0
    for expr in corpus:
        node = build(expr, mgr)
        oracle = build(expr, ref)
        for env in all_envs():
            assert mgr.eval(node, env) == ref.eval(oracle, env), expr
        n_new = mgr.node_count(node)
        n_ref = ref.node_count(oracle)
        assert n_new <= n_ref, (expr, n_new, n_ref)
        complement_total += n_new
        reference_total += n_ref
    # Across a negation-heavy corpus the complement-edge build must win
    # strictly, not just tie.
    assert complement_total < reference_total


def test_negation_is_the_identity_edge_flip(corpus):
    mgr = BddManager(VAR_NAMES)
    for expr in corpus:
        node = build(expr, mgr)
        stats_before = mgr.stats()
        negated = mgr.not_(node)
        assert mgr.not_(negated) == node
        if node > 1:
            assert negated != node
            # f and not f share every decision node.
            assert mgr.node_count(negated) == mgr.node_count(node)
        stats_after = mgr.stats()
        assert stats_after["nodes"] == stats_before["nodes"]
        assert stats_after["ops"] == stats_before["ops"]


def test_count_sat_matches_reference(corpus):
    mgr = BddManager(VAR_NAMES)
    ref = ReferenceBdd(VAR_NAMES)
    for expr in corpus:
        node = build(expr, mgr)
        oracle = build(expr, ref)
        expected = sum(1 for env in all_envs() if ref.eval(oracle, env))
        assert mgr.count_sat(node, VAR_NAMES) == expected


def test_exists_matches_reference(corpus):
    mgr = BddManager(VAR_NAMES)
    ref = ReferenceBdd(VAR_NAMES)
    rng = random.Random(4242)
    for expr in corpus[:80]:
        qvars = rng.sample(VAR_NAMES, rng.randint(1, 3))
        node = mgr.exists(build(expr, mgr), qvars)
        oracle = ref.exists(build(expr, ref), qvars)
        remaining = [name for name in VAR_NAMES if name not in qvars]
        for values in itertools.product([False, True], repeat=len(remaining)):
            env = dict(zip(remaining, values))
            env.update({name: False for name in qvars})
            assert mgr.eval(node, env) == ref.eval(oracle, env)


def test_count_sat_wide_variable_sets_fall_back_exactly():
    """Counts past 62 variables overflow the vectorised int64 pass; the
    manager must transparently produce exact big-int counts."""
    names = [f"w{i}" for i in range(70)]
    mgr = BddManager(names)
    # f = w0 or w35 or w69 over all 70 variables.
    f = mgr.disjoin([mgr.var("w0"), mgr.var("w35"), mgr.var("w69")])
    expected = (1 << 70) - (1 << 67)  # all minus the all-three-false space
    assert mgr.count_sat(f) == expected
    assert mgr.count_sat(f ^ 1) == (1 << 70) - expected
    assert mgr.count_sat(mgr.TRUE) == 1 << 70


def test_sweep_and_exact_count_match_reference(corpus):
    """The GC sweep, its tail trim and the exact ``count_sat`` recursion
    meet the same oracle, and every sweep passes the sanitizer."""
    mgr = BddManager(VAR_NAMES, debug_checks=True)
    ref = ReferenceBdd(VAR_NAMES)
    for expr in corpus:
        node = build(expr, mgr)
        oracle = build(expr, ref)
        for env in all_envs():
            assert mgr.eval(node, env) == ref.eval(oracle, env), expr
        expected = sum(1 for env in all_envs() if ref.eval(oracle, env))
        assert mgr.count_sat(node, VAR_NAMES) == expected
    # A sweep that keeps one function: the survivor is intact, and
    # rebuilding it after the sweep finds the identical edge.
    kept_expr = next(e for e in corpus if mgr.node_count(build(e, mgr)) > 3)
    kept = mgr.ref(build(kept_expr, mgr))
    assert mgr.collect_garbage() > 0
    oracle = build(kept_expr, ref)
    for env in all_envs():
        assert mgr.eval(kept, env) == ref.eval(oracle, env)
    assert build(kept_expr, mgr) == kept
    # An unprotected sweep reclaims everything and trims the table back to
    # the terminal.
    mgr.deref(kept)
    mgr.collect_garbage()
    assert len(mgr) == 1
    assert mgr.stats()["capacity"] == 1
