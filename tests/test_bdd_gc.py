"""Garbage-collection liveness tests for the BDD manager.

Covers the GC contract end to end: protected roots survive collection with
their semantics intact, dropped functions are reclaimed and their slots
reused, operation caches can never resurrect dead nodes, the growth triggers
fire and adapt, ``ref``/``deref`` track external references, a swept table
rebuilds, counts and finds its live nodes as before under either kernel,
and the symbolic backend's plan memos are invalidated by sweeps.
"""

import itertools

import pytest

from repro.bdd import BddManager

VAR_NAMES = ["a", "b", "c", "d"]


def all_envs():
    for values in itertools.product([False, True], repeat=len(VAR_NAMES)):
        yield dict(zip(VAR_NAMES, values))


def build_junk(mgr, rounds=20):
    """Allocate nodes that nothing protects."""
    for i in range(rounds):
        node = mgr.cube({name: bool((i >> k) & 1) for k, name in enumerate(VAR_NAMES)})
        mgr.or_(node, mgr.var("a"))
        mgr.xor(node, mgr.var("b"))


class TestMarkAndSweep:
    def test_protected_roots_survive_collection(self):
        mgr = BddManager(VAR_NAMES)
        f = mgr.ref(mgr.ite(mgr.var("a"), mgr.xor(mgr.var("b"), mgr.var("c")), mgr.var("d")))
        truth = {tuple(env.values()): mgr.eval(f, env) for env in all_envs()}
        build_junk(mgr)
        reclaimed = mgr.collect_garbage()
        assert reclaimed > 0
        for env in all_envs():
            assert mgr.eval(f, env) == truth[tuple(env.values())]
        # Dropping the only reference leaves no root, and the next sweep
        # reclaims everything down to the terminal.
        assert mgr.external_references() == 1
        mgr.deref(f)
        assert mgr.external_references() == 0
        assert mgr.collect_garbage() > 0
        assert len(mgr) == 1
        # Second input: fewer than half the nodes die, in several separate
        # runs, so the sweep deletes dead unique keys instead of rebuilding
        # the table and clears each run in place.
        names = [f"v{i}" for i in range(11)]
        mgr = BddManager(names, debug_checks=True)
        edges = [mgr.var(name) for name in names]  # v{i} sits in slot i + 1
        dead = {1, 2, 5, 8, 10}
        for i, edge in enumerate(edges):
            if i not in dead:
                mgr.ref(edge)
        assert len(dead) * 2 < len(mgr._unique)
        assert mgr.collect_garbage() == len(dead)
        for i, name in enumerate(names):
            if i not in dead:
                assert mgr.var(name) == edges[i]
                assert mgr.eval(edges[i], {n: n == name for n in names})
        # Free: the dead slots below the last live one (10), descending;
        # the trailing dead slot 11 is trimmed.
        assert mgr._free == [9, 6, 3, 2]
        assert mgr.stats()["capacity"] == 11
        assert mgr.var("v1") >> 1 == 2

    def test_extra_roots_survive_collection(self):
        mgr = BddManager(VAR_NAMES)
        f = mgr.and_(mgr.var("a"), mgr.not_(mgr.var("b")))
        build_junk(mgr)
        mgr.collect_garbage(roots=[f])
        # f's nodes are intact: rebuilding yields the identical edge.
        assert mgr.and_(mgr.var("a"), mgr.not_(mgr.var("b"))) == f
        assert mgr.eval(f, {"a": True, "b": False, "c": False, "d": False})

    def test_unreferenced_nodes_are_reclaimed_and_slots_reused(self):
        mgr = BddManager(VAR_NAMES)
        build_junk(mgr)
        live_before = len(mgr)
        capacity_before = mgr.stats()["capacity"]
        reclaimed = mgr.collect_garbage()
        assert reclaimed > 0
        assert len(mgr) == live_before - reclaimed
        stats = mgr.stats()
        # Every reclaimed slot is either free-listed for reuse or compacted
        # away entirely (the sweep trims the trailing free run).  Nothing was
        # protected, so everything down to the terminal is reclaimed and the
        # table is trimmed back to the terminal's slot.
        trimmed = capacity_before - stats["capacity"]
        assert trimmed >= 0
        assert stats["gc"]["free_slots"] + trimmed == reclaimed
        assert len(mgr) == 1
        assert stats["capacity"] == 1
        # New allocations reuse freed slots / trimmed capacity instead of
        # growing the table past its pre-collection size.
        node = mgr.and_(mgr.var("a"), mgr.var("b"))
        assert mgr.stats()["capacity"] <= capacity_before
        assert mgr.eval(node, {"a": True, "b": True})

    def test_op_caches_never_resurrect_dead_nodes(self):
        mgr = BddManager(VAR_NAMES)
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        g = mgr.xor(f, mgr.var("c"))
        assert mgr._and_cache and mgr._xor_cache
        mgr.collect_garbage()
        # Everything was garbage: the caches must be empty, not serving
        # entries that point into reclaimed slots.
        assert not mgr._and_cache
        assert not mgr._xor_cache
        rebuilt = mgr.xor(mgr.and_(mgr.var("a"), mgr.var("b")), mgr.var("c"))
        for env in all_envs():
            expected = (env["a"] and env["b"]) != env["c"]
            assert mgr.eval(rebuilt, env) == expected

    def test_variable_projections_can_be_rebuilt_after_collection(self):
        mgr = BddManager(VAR_NAMES)
        mgr.var("a")
        mgr.collect_garbage()
        rebuilt = mgr.var("a")
        assert mgr.eval(rebuilt, {"a": True})
        assert not mgr.eval(rebuilt, {"a": False})
        assert mgr.support_names(rebuilt) == {"a"}

    def test_gc_hooks_run_on_reclaiming_sweeps(self):
        mgr = BddManager(VAR_NAMES)
        calls = []
        mgr.add_gc_hook(lambda: calls.append(1))
        mgr.collect_garbage()  # nothing to reclaim: hook not needed
        assert calls == []
        build_junk(mgr)
        mgr.collect_garbage()
        assert calls == [1]


def _ripple(mgr, bits=6):
    """A mid-sized function with shared structure: sum-parity of two words."""
    node = mgr.TRUE
    carry = mgr.FALSE
    for i in range(bits):
        a = mgr.var(f"a{i}")
        b = mgr.var(f"b{i}")
        node = mgr.and_(node, mgr.xor(mgr.xor(a, b), carry))
        carry = mgr.or_(mgr.and_(a, b), mgr.and_(carry, mgr.xor(a, b)))
    return mgr.and_(node, mgr.not_(carry))


@pytest.mark.parametrize("kernel", ["default", "python"])
class TestSweptTables:
    """A solved table after a sweep: what a session keeps between queries.

    The sweep keeps only the protected function's nodes, so later queries
    run against a table with holes below ``_top`` and spare slots above.
    Rebuilding, counting and allocating there must behave as on the
    unswept table, under either kernel.
    """

    def _solved(self, kernel, monkeypatch, bits=6):
        from repro.bdd import manager as bdd_manager

        names = [f"a{i}" for i in range(bits)] + [f"b{i}" for i in range(bits)]
        with monkeypatch.context() as patch:
            if kernel == "python":
                patch.setattr(bdd_manager, "_native", None)
            mgr = BddManager(names, debug_checks=True)
        f = mgr.ref(_ripple(mgr, bits))
        assert mgr.collect_garbage() > 0
        return mgr, f

    def test_rebuild_after_a_sweep_finds_the_identical_edge(self, kernel, monkeypatch):
        mgr, f = self._solved(kernel, monkeypatch)
        baseline = mgr.stats()["nodes"]
        expected = mgr.count_sat(f)
        # The intermediates were swept and re-allocate, but the result is
        # found in the unique table: the identical signed edge, so an
        # ``edge == TRUE`` verdict check stays sound after a sweep.
        rebuilt = _ripple(mgr)
        assert rebuilt == f
        assert mgr.stats()["nodes"] > baseline
        assert mgr.count_sat(rebuilt) == expected
        # A sweep rooted at the result drops every residue of the rebuild.
        mgr.collect_garbage(roots=(rebuilt,))
        assert mgr.stats()["nodes"] == baseline

    def test_counts_agree_before_and_after_a_sweep(self, kernel, monkeypatch):
        mgr, f = self._solved(kernel, monkeypatch)
        fresh = BddManager(mgr.var_names)
        g = _ripple(fresh)
        count = fresh.count_sat(g)
        support = sorted(fresh.support(g))
        assert mgr.count_sat(f) == count
        # Complement edges and counts over a chosen variable set too.
        assert mgr.count_sat(f ^ 1) == (1 << mgr.num_vars) - count
        assert sorted(mgr.support(f)) == support
        assert mgr.count_sat(f, support) == fresh.count_sat(g, support)

    def test_sweep_reclaims_junk_and_leaves_live_slots_alone(self, kernel, monkeypatch):
        mgr, f = self._solved(kernel, monkeypatch)
        baseline = mgr.stats()["nodes"]
        expected = mgr.count_sat(f)
        used = mgr._top
        image = (mgr._level[:used].tolist(), mgr._lo[:used].tolist(), mgr._hi[:used].tolist())
        # Junk of a pairing the protected function never built.
        mgr.conjoin(mgr.xor(mgr.var(f"a{i}"), mgr.var(f"b{(i + 3) % 6}")) for i in range(6))
        assert mgr.stats()["nodes"] > baseline
        assert mgr.collect_garbage(roots=(f,)) > 0
        assert mgr.stats()["nodes"] == baseline
        # Every slot that held a node of ``f`` before holds it still.
        assert mgr._top == used
        level = mgr._level[:used].tolist()
        for index, node_level in enumerate(image[0]):
            if node_level != mgr._FREE_LEVEL:
                assert level[index] == node_level
                assert mgr._lo[index] == image[1][index]
                assert mgr._hi[index] == image[2][index]
        assert mgr.count_sat(f) == expected

    def test_every_live_slot_is_found_again_after_a_sweep(self, kernel, monkeypatch):
        mgr, f = self._solved(kernel, monkeypatch)
        capacity = mgr.stats()["capacity"]
        assert capacity == mgr._top < len(mgr._level)
        live = mgr.stats()["nodes"]
        for index in range(1, capacity):
            level = mgr._level[index]
            if level == mgr._FREE_LEVEL:
                continue
            assert mgr._mk(level, mgr._lo[index], mgr._hi[index]) == index << 1
        # Looking nodes up allocates nothing.
        assert mgr.stats()["nodes"] == live
        assert mgr.stats()["capacity"] == capacity
        mgr.collect_garbage([f])


class TestTriggers:
    def test_maybe_collect_fires_above_threshold(self):
        mgr = BddManager(VAR_NAMES, gc_threshold=8)
        build_junk(mgr)
        assert len(mgr) >= 8
        assert mgr.maybe_collect() is True
        assert mgr.stats()["gc"]["collections"] == 1
        assert len(mgr) < 8

    def test_threshold_grows_with_the_live_set(self):
        mgr = BddManager(VAR_NAMES, gc_threshold=4, gc_growth=2.0)
        roots = [mgr.ref(mgr.cube({"a": True, "b": bool(i & 1), "c": bool(i & 2)}))
                 for i in range(4)]
        build_junk(mgr)
        mgr.maybe_collect()
        stats = mgr.stats()
        assert stats["gc"]["threshold"] >= 4
        assert all(mgr.eval(r, {"a": True, "b": False, "c": False, "d": False}) in (True, False)
                   for r in roots)


class TestClearCachesLifecycle:
    def test_clear_caches_resets_stats_and_gc_bookkeeping(self):
        mgr = BddManager(VAR_NAMES, gc_threshold=8)
        build_junk(mgr)
        mgr.maybe_collect()
        stats = mgr.stats()
        assert stats["gc"]["collections"] == 1
        assert stats["ops"]["and"]["misses"] > 0
        mgr.clear_caches()
        stats = mgr.stats()
        assert stats["gc"]["collections"] == 0
        assert stats["gc"]["reclaimed"] == 0
        assert all(op["hits"] == 0 and op["misses"] == 0 for op in stats["ops"].values())
        assert stats["peak_nodes"] == stats["nodes"]
        assert all(size == 0 for size in stats["cache_sizes"].values())

    def test_clear_caches_keeps_external_references(self):
        mgr = BddManager(VAR_NAMES)
        f = mgr.ref(mgr.and_(mgr.var("a"), mgr.var("b")))
        mgr.clear_caches()
        assert mgr.external_references() == 1
        build_junk(mgr)
        mgr.collect_garbage()
        assert mgr.eval(f, {"a": True, "b": True})


class TestSymbolicBackendGc:
    def _system(self):
        from repro.fixedpoint import (
            And,
            EnumSort,
            Equation,
            EquationSystem,
            Exists,
            Or,
            RelationDecl,
            Var,
        )

        node_sort = EnumSort("N", 4)
        Reach = RelationDecl("Reach", [("u", node_sort)])
        Init = RelationDecl("Init", [("u", node_sort)])
        Trans = RelationDecl("Trans", [("u", node_sort), ("v", node_sort)])
        u = Var("u", node_sort)
        x = Var("x", node_sort)
        body = Or(Init(u), Exists(x, And(Reach(x), Trans(x, u))))
        system = EquationSystem([Equation(Reach, body)], inputs=[Init, Trans])
        return system, Reach, Init, Trans, u

    def test_gc_sweep_clears_plan_memos_not_static_skeletons(self):
        from repro.fixedpoint import SymbolicBackend, Var

        system, Reach, Init, Trans, u = self._system()
        backend = SymbolicBackend(system)
        mgr = backend.manager
        plan = backend.compile_formula(system.equation("Reach").body)
        init = mgr.ref(backend.context.encode_cube(u, 0))
        trans = mgr.ref(mgr.FALSE)
        interps = {"Init": init, "Trans": trans, "Reach": mgr.FALSE}
        first = plan.eval(backend, interps)
        assert plan.memo
        build_junk_vars = [mgr.var(name) for name in mgr.var_names[:2]]
        mgr.xor(build_junk_vars[0], build_junk_vars[1])
        mgr.collect_garbage(roots=[first, init, trans])
        # The sweep invalidated the interpretation-keyed memos...
        assert not plan.memo
        # ...but protected static skeletons survive and evaluation re-derives
        # the same result.
        assert plan.eval(backend, interps) == first

    def test_rebuilt_equations_release_superseded_plans(self):
        from repro.fixedpoint import Equation, SymbolicBackend

        system, Reach, Init, Trans, u = self._system()
        backend = SymbolicBackend(system)
        mgr = backend.manager
        equation = system.equation("Reach")
        init = mgr.ref(backend.context.encode_cube(u, 0))
        interps = {"Init": init, "Trans": mgr.FALSE, "Reach": mgr.FALSE}
        backend.eval_equation(equation, interps)
        memos_after_first = len(backend._plan_memos)
        protected_after_first = len(backend._protected)
        # A caller that rebuilds the Equation object every round must not
        # accumulate plan memos or protected skeletons.
        for _ in range(5):
            rebuilt = Equation(equation.decl, equation.body)
            assert backend.eval_equation(rebuilt, interps) == init
        assert len(backend._plan_memos) == memos_after_first
        assert len(backend._protected) == protected_after_first

    def test_missing_interpretation_raises_named_error(self):
        import pytest

        from repro.fixedpoint import SymbolicBackend

        system, Reach, Init, Trans, u = self._system()
        backend = SymbolicBackend(system)
        with pytest.raises(KeyError, match="no interpretation provided for relation 'Init'"):
            backend.eval_equation(system.equation("Reach"), {"Trans": 0, "Reach": 0})

    def test_backend_close_detaches_from_shared_manager(self):
        from repro.fixedpoint import SymbolicBackend

        system, Reach, Init, Trans, u = self._system()
        keeper = SymbolicBackend(system)
        context = keeper.context
        mgr = keeper.manager
        keeper.compile_formula(system.equation("Reach").body)
        hooks_before = len(mgr._gc_hooks)
        roots_before = mgr.external_references()
        # A second, short-lived backend over the same long-lived context.
        transient = SymbolicBackend(system, context=context)
        transient.compile_formula(system.equation("Reach").body)
        assert len(mgr._gc_hooks) == hooks_before + 1
        transient.close()
        transient.close()  # idempotent
        assert len(mgr._gc_hooks) == hooks_before
        assert mgr.external_references() == roots_before
        # The surviving backend still evaluates after a sweep.
        init = mgr.ref(keeper.context.encode_cube(u, 0))
        mgr.collect_garbage(roots=[init])
        plan = keeper.compile_formula(system.equation("Reach").body)
        interps = {"Init": init, "Trans": mgr.FALSE, "Reach": mgr.FALSE}
        assert plan.eval(keeper, interps) == init

    def test_close_returns_live_nodes_to_baseline_on_shared_context(self):
        """A short-lived backend over a shared context must leave no nodes
        behind: after ``close()`` + a sweep, ``live_nodes`` is back to the
        keeper-only baseline."""
        from repro.fixedpoint import And, Exists, SymbolicBackend, Var

        system, Reach, Init, Trans, u = self._system()
        keeper = SymbolicBackend(system)
        context = keeper.context
        mgr = keeper.manager
        keeper.compile_formula(system.equation("Reach").body)
        mgr.collect_garbage()
        baseline = len(mgr)
        # The transient backend compiles a *different* formula so it builds
        # static skeleton nodes of its own (not shared with the keeper's).
        x = Var("x", Trans.params[0][1])
        transient = SymbolicBackend(system, context=context)
        plan = transient.compile_formula(Exists(x, And(Init(x), Trans(x, u), Reach(x))))
        init = mgr.ref(transient.context.encode_cube(u, 2))
        plan.eval(transient, {"Init": init, "Trans": mgr.FALSE, "Reach": mgr.FALSE})
        assert len(mgr) > baseline
        transient.close()
        mgr.deref(init)
        mgr.collect_garbage()
        assert len(mgr) == baseline

    def test_release_after_close_does_not_steal_references(self):
        """Releasing a plan whose bookkeeping entry is gone (the backend was
        closed) must not deref again — the manager reference may belong to
        another owner by then."""
        from repro.fixedpoint import Eq, SymbolicBackend
        from repro.fixedpoint.terms import Const

        system, Reach, Init, Trans, u = self._system()
        backend = SymbolicBackend(system)
        mgr = backend.manager
        plan = backend.compile_formula(Eq(u, Const(Init.params[0][1], 3)))
        (edge,) = plan.protected_edges()
        backend.close()
        # Another owner now holds the only external reference to the edge.
        mgr.ref(edge)
        refs_before = mgr.external_references()
        backend.release_plan(plan)
        backend.release_plan(plan)
        assert mgr.external_references() == refs_before
        # The other owner's reference still protects the edge across sweeps.
        mgr.collect_garbage()
        assert mgr.eval(edge, {mgr.var_name(i): True for i in range(mgr.num_vars)}) in (
            True,
            False,
        )

    def test_double_release_does_not_steal_sibling_plan_protection(self):
        """Two plans baking in the same static edge: releasing one of them
        twice must deref exactly once, leaving the sibling's protection
        intact (each plan node releases at most once)."""
        from repro.fixedpoint import Eq, SymbolicBackend
        from repro.fixedpoint.terms import Const

        system, Reach, Init, Trans, u = self._system()
        backend = SymbolicBackend(system)
        formula = Eq(u, Const(Init.params[0][1], 1))
        plan_a = backend.compile_formula(formula)
        plan_b = backend.compile_formula(formula)
        (edge,) = plan_a.protected_edges()
        assert plan_b.protected_edges() == (edge,)  # canonical: same static edge
        assert backend._protected[edge] == 2
        backend.release_plan(plan_a)
        backend.release_plan(plan_a)  # second release must be a no-op
        assert backend._protected[edge] == 1
        backend.manager.collect_garbage()
        # plan_b still evaluates against the protected skeleton.
        assert plan_b.eval(backend, {}) == edge

    def test_session_close_returns_manager_to_baseline(self):
        """A session retains templates, Target BDDs, query plans and solved
        interpretations; ``close()`` must release every one of them — zero
        external references, and a sweep empties the node table."""
        from repro.api import AnalysisSession

        source = """
        decl g;
        main() begin
          g := T;
          if (g) then yes: skip; fi
          if (!g) then no: skip; fi
        end
        """
        session = AnalysisSession(source, default_algorithm="ef")
        session.solve()
        session.check("main:yes")
        session.check("main:no")
        session.check("main:yes", algorithm="summary")  # second algorithm state
        managers = [state.backend.manager for state in session._states.values()]
        assert len(managers) == 2
        for mgr in managers:
            assert mgr.external_references() > 0
            assert len(mgr) > 1
        session.close()
        for mgr in managers:
            assert mgr.external_references() == 0
            mgr.collect_garbage()
            assert len(mgr) == 1  # only the shared terminal survives

    def test_session_close_after_resource_failure_returns_to_baseline(self):
        """A query killed mid-solve by its resource envelope must not leak:
        the exception path sweeps the failed run's garbage, later queries
        still work, and ``close()`` returns the manager to its baseline
        exactly as on the happy path."""
        import pytest

        from repro.api import AnalysisSession
        from repro.errors import ResourceExhausted
        from repro.limits import ResourceLimits

        source = """
        decl g;
        main() begin
          g := T;
          if (g) then yes: skip; fi
        end
        """
        session = AnalysisSession(
            source, default_algorithm="ef", limits=ResourceLimits(max_iterations=1)
        )
        with pytest.raises(ResourceExhausted):
            session.check("main:yes")
        mgr = next(iter(session._states.values())).backend.manager
        live_after_failure = len(mgr)
        # The compiled templates (external roots) survived; the failed
        # run's intermediates did not pin the table open.
        assert mgr.external_references() > 0
        session.set_limits(None)
        assert session.check("main:yes").reachable
        session.close()
        assert mgr.external_references() == 0
        mgr.collect_garbage()
        assert len(mgr) == 1
        assert live_after_failure >= 1  # sanity: the failure left a live table
        """retain/release pin interpretation edges across sweeps; release is
        count-guarded so strangers' references are never stolen."""
        from repro.fixedpoint import SymbolicBackend

        system, Reach, Init, Trans, u = self._system()
        backend = SymbolicBackend(system)
        mgr = backend.manager
        edge = backend.context.encode_cube(u, 2)
        backend.retain(edge)
        backend.retain(edge)
        assert backend.retained_count() == 1
        mgr.collect_garbage()
        assert backend.context.encode_cube(u, 2) == edge  # survived the sweep
        backend.release(edge)
        backend.release(edge)
        backend.release(edge)  # over-release: must be a no-op
        assert backend.retained_count() == 0
        # Another owner's reference must survive a close after over-release.
        mgr.ref(edge)
        refs = mgr.external_references()
        backend.release(edge)
        assert mgr.external_references() == refs

    def test_nested_evaluation_with_aggressive_gc_is_correct(self):
        from repro.fixedpoint import SymbolicBackend, evaluate_nested, Var

        system, Reach, Init, Trans, u = self._system()
        # Tiny threshold: collections fire at nearly every safe point.
        backend = SymbolicBackend(system)
        backend.manager._gc_floor = backend.manager._gc_threshold = 1
        mgr = backend.manager
        v = Var("v", Trans.params[1][1])
        init = mgr.ref(backend.context.encode_cube(u, 0))
        trans = mgr.ref(
            mgr.disjoin(
                mgr.and_(
                    backend.context.encode_cube(u, a),
                    backend.context.encode_cube(v, b),
                )
                for a, b in ((0, 1), (1, 2), (2, 3))
            )
        )
        result = evaluate_nested(
            system, "Reach", backend, {"Init": init, "Trans": trans}
        )
        reached = set(backend.models(result.value, Reach))
        assert reached == {(0,), (1,), (2,), (3,)}
        stats = backend.stats_snapshot()
        assert stats["gc_steps"] > 0
        assert stats["manager"]["gc"]["collections"] > 0
