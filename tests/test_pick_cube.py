"""Property tests for the deterministic cube-picking kernel.

``pick_cube`` is the witness subsystem's only source of concrete values, so
its contract is load-bearing:

* **Soundness** — the picked cube evaluates the function to TRUE.
* **Totality and minimality** — the cube assigns every requested variable,
  and is the lexicographically smallest satisfying total assignment in
  level order with False < True.
* **Table independence** — the pick depends on the function alone, not on
  the table's history: a swept table, a fresh manager and either kernel
  pick the *identical* cube, so traces extracted from a pooled session or
  a shard worker are byte-for-byte equal.
* **Complement edges** — picking through a negated (complement-edge) root
  is just as sound; ``sat_one`` (the greedy seed) shares these properties
  on its restricted (partial-assignment) contract.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BddManager
from repro.bdd.manager import BddError

from test_bdd_properties import (
    VAR_NAMES,
    all_envs,
    build_bdd,
    eval_concrete,
    expr_strategy,
)


def _named(mgr, cube):
    """A pick_cube result keyed by variable name."""
    return {mgr.var_name(index): value for index, value in cube.items()}


def _lex_smallest(expr):
    """Brute-force reference: first satisfying env in False<True level order."""
    for values in itertools.product([False, True], repeat=len(VAR_NAMES)):
        env = dict(zip(VAR_NAMES, values))
        if eval_concrete(expr, env):
            return env
    return None


@settings(max_examples=150, deadline=None)
@given(expr_strategy())
def test_pick_cube_satisfies_and_is_lex_smallest(expr):
    mgr = BddManager(VAR_NAMES)
    node = build_bdd(expr, mgr)
    cube = mgr.pick_cube(node, VAR_NAMES)
    expected = _lex_smallest(expr)
    if expected is None:
        assert cube is None
        return
    assert cube is not None
    named = _named(mgr, cube)
    assert set(named) == set(VAR_NAMES)
    assert mgr.eval(node, named) is True
    assert named == expected


@settings(max_examples=100, deadline=None)
@given(expr_strategy())
def test_pick_cube_complement_edge(expr):
    mgr = BddManager(VAR_NAMES)
    node = mgr.not_(build_bdd(expr, mgr))
    cube = mgr.pick_cube(node, VAR_NAMES)
    if cube is None:
        assert node == mgr.FALSE
        return
    assert mgr.eval(node, _named(mgr, cube)) is True


@settings(max_examples=100, deadline=None)
@given(expr_strategy())
def test_sat_one_satisfies_on_its_support(expr):
    mgr = BddManager(VAR_NAMES)
    node = build_bdd(expr, mgr)
    assignment = mgr.sat_one(node)
    if assignment is None:
        assert node == mgr.FALSE
        return
    # sat_one is partial (support only); unmentioned variables are free.
    named = {mgr.var_name(index): value for index, value in assignment.items()}
    env = {name: named.get(name, False) for name in VAR_NAMES}
    assert mgr.eval(node, env) is True
    assert set(assignment) <= mgr.support(node)


def test_pick_cube_terminals_and_defaults():
    mgr = BddManager(VAR_NAMES)
    assert mgr.pick_cube(mgr.FALSE) is None
    assert mgr.pick_cube(mgr.FALSE, VAR_NAMES) is None
    # TRUE has empty support: without variables the cube is empty, with
    # variables it is the all-False assignment.
    assert mgr.pick_cube(mgr.TRUE) == {}
    cube = mgr.pick_cube(mgr.TRUE, VAR_NAMES)
    assert _named(mgr, cube) == {name: False for name in VAR_NAMES}


def test_pick_cube_requires_support_coverage():
    mgr = BddManager(VAR_NAMES)
    node = mgr.and_(mgr.var("p"), mgr.var("q"))
    with pytest.raises(BddError, match="support"):
        mgr.pick_cube(node, ["p"])


def test_pick_cube_ignores_table_history():
    from repro.bdd import manager as bdd_manager

    def build(mgr):
        return mgr.or_(
            mgr.and_(mgr.var("p"), mgr.not_(mgr.var("r"))),
            mgr.and_(mgr.var("q"), mgr.var("s")),
        )

    mgr = BddManager(VAR_NAMES)
    node = mgr.ref(build(mgr))
    baseline = mgr.pick_cube(node, VAR_NAMES)
    negated = mgr.not_(node)
    negated_cube = mgr.pick_cube(negated, VAR_NAMES)
    assert mgr.eval(negated, _named(mgr, negated_cube)) is True
    # The same function after a sweep leaves holes in the table.
    mgr.collect_garbage()
    assert mgr.pick_cube(node, VAR_NAMES) == baseline
    assert mgr.pick_cube(mgr.not_(node), VAR_NAMES) == negated_cube
    # A fresh manager under either kernel picks the same cubes.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bdd_manager, "_native", None)
        python = BddManager(VAR_NAMES)
    for other in (BddManager(VAR_NAMES), python):
        rebuilt = build(other)
        assert other.pick_cube(rebuilt, VAR_NAMES) == baseline
        assert other.pick_cube(other.not_(rebuilt), VAR_NAMES) == negated_cube


def test_pick_cube_exhaustive_three_vars():
    """Every 3-variable function: cube satisfies and matches brute force."""
    names = VAR_NAMES[:3]
    envs = list(itertools.product([False, True], repeat=3))
    for truth_table in range(1 << 8):
        mgr = BddManager(names)
        node = mgr.FALSE
        for i, values in enumerate(envs):
            if truth_table >> i & 1:
                cube_node = mgr.TRUE
                for name, value in zip(names, values):
                    literal = mgr.var(name) if value else mgr.not_(mgr.var(name))
                    cube_node = mgr.and_(cube_node, literal)
                node = mgr.or_(node, cube_node)
        cube = mgr.pick_cube(node, names)
        satisfying = [values for i, values in enumerate(envs) if truth_table >> i & 1]
        if not satisfying:
            assert cube is None
            continue
        named = _named(mgr, cube)
        assert tuple(named[name] for name in names) == min(satisfying)
