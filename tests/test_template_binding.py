"""Template relations bound into the static skeleton of compiled plans.

The load-bearing properties:

* **Parity** — a session's solved fixed point, computed with the template
  relations bound into its plans, is the very edge an unbound compile
  computes in the same manager, for every registered algorithm.
* **Invalidation** — a plan records the edges it bound; a call that binds
  other edges (or none) recompiles and releases the old plan, and a bound
  edge stays protected while a plan holds it, so a sweep can never recycle
  its node id for another function.
* **Aggressive GC** — with collections at nearly every safe point and the
  sanitizer on, the bound products stay alive and verdicts are unchanged.
"""

from __future__ import annotations

import pytest

from repro.api import AnalysisSession
from repro.benchgen import (
    DriverSpec,
    TerminatorSpec,
    bluetooth_source,
    make_driver,
    make_terminator,
)
from repro.fixedpoint import (
    And,
    EnumSort,
    Equation,
    EquationSystem,
    Exists,
    ExplicitBackend,
    Or,
    RelationDecl,
    SymbolicBackend,
    Var,
    evaluate_nested,
    evaluate_simultaneous,
)

DRIVER = DriverSpec(name="d3", handlers=3, flags=2, helpers=1, positive=False)
TERMINATOR = TerminatorSpec(name="t3", counter_bits=3, variant="iterative", positive=False)

PROGRAMS = {
    "driver": lambda: make_driver(DRIVER),
    "terminator": lambda: make_terminator(TERMINATOR),
    "bluetooth": lambda: bluetooth_source(1, 1),
}

CASES = [
    (program, algorithm)
    for program in ("driver", "terminator")
    for algorithm in ("summary", "ef", "ef-opt")
] + [("bluetooth", f"cbr-k{bound}") for bound in range(3)]


class _UnboundBackend(SymbolicBackend):
    """The reference: every relation application stays dynamic."""

    def eval_equation(self, equation, interps, bound=None):
        return super().eval_equation(equation, interps)


@pytest.mark.parametrize("program,algorithm", CASES)
def test_bound_solve_equals_the_unbound_compile(program, algorithm):
    with AnalysisSession(PROGRAMS[program](), default_algorithm=algorithm) as session:
        session.solve()
        state = session._state(algorithm)
        templates = set(state.base_interps)
        # The templates left the dynamic residue of every compiled plan.
        for _, _, _, plan in state.backend._equation_plans.values():
            assert not templates & set(plan.rel_names)
        assert not templates & set(state.query_plan.rel_names)
        mgr = state.backend.manager
        inputs = dict(state.base_interps, Target=mgr.FALSE)
        reference = _UnboundBackend(state.spec.system, manager=mgr)
        try:
            evaluate = (
                evaluate_nested if state.spec.evaluation == "nested" else evaluate_simultaneous
            )
            unbound = evaluate(
                state.spec.system, state.spec.target_relation, reference, inputs
            )
            assert state.solved.interps == {
                name: unbound.interpretations[name] for name in state.solved.interps
            }
            # The bound query plan answers as the unbound one does.
            query = reference.compile_formula(state.spec.query)
            for edge in (mgr.FALSE, mgr.TRUE):
                merged = dict(state.solved.interps, **state.base_interps, Target=edge)
                assert state.query_plan.eval(state.backend, merged) == query.eval(
                    reference, merged
                )
        finally:
            reference.close()


def _system():
    node = EnumSort("N", 4)
    Reach = RelationDecl("Reach", [("u", node)])
    # Init's parameter is not the variable it is applied to, so the bound
    # application is a renamed copy and only the plan protects Init's edge.
    Init = RelationDecl("Init", [("x", node)])
    Trans = RelationDecl("Trans", [("u", node), ("v", node)])
    u, v, x = Var("u", node), Var("v", node), Var("x", node)
    body = Or(Init(u), Exists(x, And(Reach(x), Trans(x, u))))
    system = EquationSystem([Equation(Reach, body)], inputs=[Init, Trans])
    return system, Reach, u, v, x


def _chain(backend, u, v, pairs):
    cube = backend.context.encode_cube
    mgr = backend.manager
    return mgr.disjoin(mgr.and_(cube(u, a), cube(v, b)) for a, b in pairs)


class TestInvalidation:
    def _reach(self, backend, equation, init, trans, bound):
        """Kleene iteration of ``Reach`` through ``eval_equation``."""
        mgr = backend.manager
        current = mgr.FALSE
        while True:
            interps = {"Init": init, "Trans": trans, "Reach": current}
            updated = backend.eval_equation(equation, interps, bound=bound)
            if updated == current:
                return current
            current = updated

    def test_changed_binding_recompiles_and_releases_the_old_plan(self):
        system, Reach, u, v, x = _system()
        backend = SymbolicBackend(system)
        mgr = backend.manager
        equation = system.equation("Reach")
        cube = backend.context.encode_cube
        trans = mgr.ref(_chain(backend, u, v, [(0, 1), (1, 2), (2, 3)]))
        first_init = mgr.ref(cube(x, 2))
        second_init = mgr.ref(cube(x, 0))
        first = self._reach(
            backend, equation, first_init, trans, {"Init": first_init, "Trans": trans}
        )
        assert set(backend.models(first, Reach)) == {(2,), (3,)}
        memos = len(backend._plan_memos)
        (_, _, binding, plan) = backend._equation_plans["Reach"]
        assert binding == (first_init, None, trans)  # Init, Reach, Trans
        assert first_init in plan.bound_edges
        # Another Init edge: the plan must not answer from the stale binding.
        second = self._reach(
            backend, equation, second_init, trans, {"Init": second_init, "Trans": trans}
        )
        assert set(backend.models(second, Reach)) == {(0,), (1,), (2,), (3,)}
        assert backend._equation_plans["Reach"][3] is not plan
        assert plan.released
        assert len(backend._plan_memos) == memos
        assert first_init not in backend._protected
        # Dropping the binding recompiles too: Init is read from interps.
        third = self._reach(backend, equation, first_init, trans, {})
        assert third == first
        assert not backend._equation_plans["Reach"][3].bound_edges
        assert not backend._protected.get(second_init)

    def test_a_bound_edge_outlives_its_callers_reference(self):
        system, Reach, u, v, x = _system()
        backend = SymbolicBackend(system)
        mgr = backend.manager
        equation = system.equation("Reach")
        cube = backend.context.encode_cube
        trans = mgr.ref(_chain(backend, u, v, [(1, 3)]))
        init = mgr.ref(mgr.or_(cube(x, 1), cube(x, 2)))
        expected = self._reach(backend, equation, init, trans, {"Init": init, "Trans": trans})
        truth = {value: mgr.eval(init, _assignment(x, value)) for value in range(4)}
        # The caller lets go of Init; the plan still holds the edge, so a
        # sweep keeps it, and its id cannot be handed to a new function.
        mgr.deref(init)
        mgr.collect_garbage(roots=[expected])
        assert {value: mgr.eval(init, _assignment(x, value)) for value in range(4)} == truth
        assert self._reach(backend, equation, init, trans, {"Init": init, "Trans": trans}) == expected
        backend.close()
        assert mgr.external_references() == 1  # only the caller's Trans

    def test_explicit_backend_ignores_the_binding(self):
        system, Reach, u, v, x = _system()
        explicit = ExplicitBackend()
        inputs = {"Init": frozenset({(0,)}), "Trans": frozenset({(0, 1), (1, 2)})}
        bound = evaluate_nested(system, "Reach", explicit, inputs)
        interps = dict(inputs, Reach=frozenset())
        assert explicit.eval_equation(
            system.equation("Reach"), interps, bound={"Init": frozenset()}
        ) == explicit.eval_equation(system.equation("Reach"), interps)
        assert bound.value == frozenset({(0,), (1,), (2,)})


def _assignment(var, value):
    bits = var.bit_names()
    return dict(zip(bits, var.sort.encode(value)))


@pytest.mark.parametrize("algorithm", ["summary", "ef", "ef-opt"])
def test_aggressive_gc_keeps_bound_products_alive(algorithm, monkeypatch):
    spec = DriverSpec(name="d2", handlers=2, flags=2, helpers=1, positive=True)
    program = make_driver(spec)
    with AnalysisSession(program, default_algorithm=algorithm) as reference:
        reference.solve()
        expected = reference.check(spec.target)
    monkeypatch.setenv("REPRO_DEBUG_CHECKS", "1")
    with AnalysisSession(program, default_algorithm=algorithm) as session:
        mgr = session._state(algorithm).backend.manager
        assert mgr._debug_checks
        mgr._gc_floor = mgr._gc_threshold = 1
        session.solve()
        result = session.check(spec.target)
        assert result.reachable and expected.reachable
        assert (result.summary_states, result.summary_nodes, result.iterations) == (
            expected.summary_states,
            expected.summary_nodes,
            expected.iterations,
        )
        assert mgr.stats()["gc"]["collections"] > 0
        # The witness extractor's plans bind the templates as well.
        assert session.explain(spec.target) is not None
