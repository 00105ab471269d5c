"""Guard tests for the fused symbolic kernel.

Covers the pieces the PR's kernel rework touches:

* the ``_rel_app`` rename fall-back (non-injective applications, clashing
  targets, and the staged-overlap case) against brute-force set semantics,
* ``and_exists`` vs ``exists(and_(...))`` on randomized BDDs,
* the order-preserving rename fast path vs the ite rebuild fall-back,
* rename's validation fused into the rebuild (no support walk on the fast
  path, unchanged errors), on both the native and the Python kernel,
* deep variable orders past the interpreter's default recursion limit,
* static-formula hoisting (compiled plans agree with direct evaluation),
* the static constructions built directly in level order (cubes, enum
  domain constraints) and relation maps interned at compile time, against
  the apply-based constructions and the dict path, on both kernels,
* cache clearing and statistics plumbing.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BddError, BddManager
from repro.bdd import manager as bdd_manager
from repro.fixedpoint import (
    And,
    EnumSort,
    Equation,
    EquationSystem,
    Exists,
    Or,
    RelationDecl,
    StructSort,
    SymbolicBackend,
    SymbolicContext,
    Var,
    evaluate_nested,
)

E = EnumSort("E", 3)
VALUES = tuple(E.values())

pair_sets = st.sets(
    st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)), max_size=9
)
triple_sets = st.sets(
    st.tuples(
        st.sampled_from(VALUES), st.sampled_from(VALUES), st.sampled_from(VALUES)
    ),
    max_size=12,
)


def _backend(decl, extra_names=("x",)):
    system = EquationSystem([], inputs=[decl])
    extra = [Var(name, E) for name in extra_names]
    return SymbolicBackend(system, extra_variables=extra)


def _interp(backend, decl, tuples):
    mgr = backend.manager
    return mgr.disjoin(
        mgr.conjoin(
            backend.context.encode_cube(var, value)
            for var, value in zip(decl.param_vars(), tup)
        )
        for tup in tuples
    )


def _holds(backend, node, assignment):
    """Evaluate ``node`` under typed-variable values given as {var: value}."""
    mgr = backend.manager
    bits = {}
    for var, value in assignment.items():
        bits.update(dict(zip(var.bit_names(), var.sort.encode(value))))
    return mgr.eval(node, bits)


class TestRelAppRenameFallback:
    """The relation-application paths against brute-force set semantics."""

    @settings(max_examples=60, deadline=None)
    @given(pair_sets)
    def test_non_injective_duplicate_argument(self, tuples):
        # R(x, x): both canonical parameters rename onto the same bits.
        R = RelationDecl("R", [("a", E), ("b", E)])
        backend = _backend(R)
        x = Var("x", E)
        node = backend.eval_formula(R(x, x), {"R": _interp(backend, R, tuples)})
        for i in VALUES:
            assert _holds(backend, node, {x: i}) == ((i, i) in tuples)

    @settings(max_examples=60, deadline=None)
    @given(pair_sets)
    def test_swapped_parameters(self, tuples):
        # R(b, a): an order-violating permutation of the canonical parameters.
        R = RelationDecl("R", [("a", E), ("b", E)])
        backend = _backend(R)
        a, b = Var("a", E), Var("b", E)
        node = backend.eval_formula(R(b, a), {"R": _interp(backend, R, tuples)})
        for i in VALUES:
            for j in VALUES:
                assert _holds(backend, node, {a: i, b: j}) == ((j, i) in tuples)

    @settings(max_examples=60, deadline=None)
    @given(pair_sets)
    def test_clashing_target_in_support(self, tuples):
        # R(b, b): the target bits are already in the interpretation's
        # support, forcing the equality-conjunction fall-back.
        R = RelationDecl("R", [("a", E), ("b", E)])
        backend = _backend(R)
        b = Var("b", E)
        node = backend.eval_formula(R(b, b), {"R": _interp(backend, R, tuples)})
        for j in VALUES:
            assert _holds(backend, node, {b: j}) == ((j, j) in tuples)

    @settings(max_examples=40, deadline=None)
    @given(triple_sets)
    def test_non_injective_with_source_target_overlap(self, tuples):
        # R3(b, a, a): non-injective and the sources overlap the targets, so
        # the fall-back must stage through temporary bits.
        R3 = RelationDecl("R3", [("a", E), ("b", E), ("c", E)])
        backend = _backend(R3)
        a, b = Var("a", E), Var("b", E)
        node = backend.eval_formula(R3(b, a, a), {"R3": _interp(backend, R3, tuples)})
        for i in VALUES:
            for j in VALUES:
                assert _holds(backend, node, {a: i, b: j}) == ((j, i, i) in tuples)

    @settings(max_examples=40, deadline=None)
    @given(pair_sets)
    def test_constant_and_variable_arguments(self, tuples):
        # R(1, x): a restrict plus a rename in the same application.
        R = RelationDecl("R", [("a", E), ("b", E)])
        backend = _backend(R)
        x = Var("x", E)
        node = backend.eval_formula(R(1, x), {"R": _interp(backend, R, tuples)})
        for j in VALUES:
            assert _holds(backend, node, {x: j}) == ((1, j) in tuples)


VAR8 = list("abcdefgh")

cube_lists = st.lists(
    st.dictionaries(st.sampled_from(VAR8), st.booleans(), min_size=1), max_size=6
)


def _random_bdd(mgr, cubes):
    return mgr.disjoin(mgr.cube(cube) for cube in cubes)


class TestAndExistsRandomized:
    @settings(max_examples=100, deadline=None)
    @given(cube_lists, cube_lists, st.sets(st.sampled_from(VAR8)))
    def test_and_exists_equals_two_step(self, cubes_f, cubes_g, qvars):
        mgr = BddManager(VAR8)
        f = _random_bdd(mgr, cubes_f)
        g = _random_bdd(mgr, cubes_g)
        assert mgr.and_exists(f, g, qvars) == mgr.exists(mgr.and_(f, g), qvars)


class TestRenameFastPath:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.dictionaries(st.sampled_from(["a", "b", "c"]), st.booleans(), min_size=1),
            max_size=5,
        )
    )
    def test_order_preserving_shift(self, cubes):
        # a/b/c -> x/y/z preserves the support order: structural fast path.
        mgr = BddManager(["a", "b", "c", "x", "y", "z"])
        f = _random_bdd(mgr, cubes)
        before_fast = mgr.stats()["rename_fast_path"]
        g = mgr.rename(f, {"a": "x", "b": "y", "c": "z"})
        if mgr.support(f):
            assert mgr.stats()["rename_fast_path"] > before_fast
        for values in itertools.product([False, True], repeat=3):
            env_f = dict(zip(["a", "b", "c"], values))
            env_g = dict(zip(["x", "y", "z"], values))
            assert mgr.eval(f, env_f) == mgr.eval(g, env_g)
        assert mgr.rename(g, {"x": "a", "y": "b", "z": "c"}) == f

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.dictionaries(st.sampled_from(["a", "b", "c"]), st.booleans(), min_size=1),
            max_size=5,
        )
    )
    def test_order_reversing_fallback(self, cubes):
        # a/b/c -> z/y/x reverses the order: must take the ite rebuild and
        # still agree with the semantics.
        mgr = BddManager(["a", "b", "c", "x", "y", "z"])
        f = _random_bdd(mgr, cubes)
        g = mgr.rename(f, {"a": "z", "b": "y", "c": "x"})
        for values in itertools.product([False, True], repeat=3):
            env_f = dict(zip(["a", "b", "c"], values))
            env_g = dict(zip(["z", "y", "x"], values))
            assert mgr.eval(f, env_f) == mgr.eval(g, env_g)


@pytest.fixture(params=["native", "python"])
def kernel_manager(request, monkeypatch):
    """A manager factory for each kernel (native only when it was built)."""
    if request.param == "python":
        monkeypatch.setattr(bdd_manager, "_native", None)
    elif bdd_manager._native is None:
        pytest.skip("the native kernel could not be built")

    def make(names):
        mgr = BddManager(names)
        assert mgr.stats()["kernel"] == request.param
        return mgr

    return make


class TestFusedRenameValidation:
    """``rename`` validates the map inside the structural rebuild; only the
    rare ``ite`` fall-back still walks the operand's support."""

    NAMES = ["a", "b", "c", "x", "y", "z"]

    def _f(self, mgr, names):
        a, b, c = (mgr.var(name) for name in names)
        return mgr.or_(mgr.and_(a, b ^ 1), mgr.and_(b, c))

    def test_order_preserving_rename_walks_no_support(self, kernel_manager, monkeypatch):
        mgr = kernel_manager(self.NAMES)
        f = self._f(mgr, "abc")

        def no_support(self, edge):
            raise AssertionError("support() walked on the rename fast path")

        monkeypatch.setattr(BddManager, "support", no_support)
        g = mgr.rename(f, {"a": "x", "b": "y", "c": "z"})
        assert g == self._f(mgr, "xyz")
        assert mgr.stats()["rename_fast_path"] == 1
        assert mgr.stats()["rename_fallback"] == 0

    def test_order_violating_map_falls_back_to_ite(self, kernel_manager):
        mgr = kernel_manager(self.NAMES)
        f = self._f(mgr, "abc")
        g = mgr.rename(f, {"a": "z", "b": "y", "c": "x"})
        assert g == self._f(mgr, "zyx")
        assert mgr.rename(f ^ 1, {"a": "z", "b": "y", "c": "x"}) == g ^ 1
        assert mgr.stats()["rename_fallback"] == 1

    def test_non_injective_map_is_rejected(self, kernel_manager):
        mgr = kernel_manager(self.NAMES)
        f = self._f(mgr, "abc")
        for _ in range(2):
            with pytest.raises(BddError, match="rename mapping must be injective"):
                mgr.rename(f, {"a": "x", "b": "x"})
        with pytest.raises(BddError, match="injective"):
            mgr.rename(mgr.TRUE, {"a": "x", "b": "x"})

    @pytest.mark.parametrize(
        "mapping",
        [
            {"a": "z", "b": "y"},  # order-preserving: the rebuild meets the clash
            {"b": "z", "a": "y"},  # also order-violating
        ],
    )
    def test_clash_lists_every_clashing_name_sorted(self, kernel_manager, mapping):
        # Level order x < z < y, so sorted names differ from level order.
        mgr = kernel_manager(["a", "b", "x", "z", "y"])
        f = mgr.conjoin([mgr.var("a"), mgr.var("b"), mgr.var("z"), mgr.var("y")])
        before = mgr.stats()
        with pytest.raises(BddError) as info:
            mgr.rename(f, mapping)
        assert str(info.value) == "rename targets already in support: ['y', 'z']"
        after = mgr.stats()
        assert after["rename_fast_path"] == before["rename_fast_path"]
        assert after["rename_fallback"] == before["rename_fallback"]
        # The same map still renames a function without the clashing names.
        g = mgr.and_(mgr.var("a"), mgr.var("b"))
        assert mgr.rename(g, mapping) == mgr.and_(mgr.var("z"), mgr.var("y"))


class TestStaticConstructions:
    """Cubes and enum domain constraints are built directly with ``_mk``,
    and compiled relation applications carry interned maps; each must equal
    the construction it replaced, on both kernels."""

    NAMES = list("abcdefgh")

    def test_cube_matches_a_conjunction_of_literals(self, kernel_manager, monkeypatch):
        mgr = kernel_manager(self.NAMES)
        rng = random.Random(3)
        cases = [{}, {"a": True, 0: True}, {"a": True, 0: False}, {7: False, "h": True}]
        for _ in range(300):
            # Names and indices as keys, so a variable may appear twice, with
            # the same value or a conflicting one.
            cases.append(
                {
                    rng.choice((name, index)): rng.random() < 0.5
                    for index, name in (
                        (i, self.NAMES[i])
                        for i in (rng.randrange(len(self.NAMES)) for _ in range(rng.randint(1, 9)))
                    )
                }
            )
        expected = [
            mgr.conjoin(mgr.var(key) if value else mgr.nvar(key) for key, value in case.items())
            for case in cases
        ]
        assert mgr.cube(cases[2]) == mgr.cube(cases[3]) == mgr.FALSE
        assert mgr.cube(cases[0]) == mgr.TRUE

        def no_apply(*args):
            raise AssertionError("cube ran an apply operation")

        monkeypatch.setattr(BddManager, "and_", no_apply)
        assert [mgr.cube(case) for case in cases] == expected
        with pytest.raises(BddError):
            mgr.cube({"nope": True})
        with pytest.raises(BddError):
            mgr.cube({len(self.NAMES): True})

    @pytest.mark.parametrize("order", ["default", "reversed", "shuffled"])
    def test_enum_domain_constraint_matches_the_value_cubes(self, kernel_manager, order):
        for size in range(1, 34):
            sort = EnumSort("E", size)
            var = Var("e", sort)
            bits = var.bit_names()
            names = {
                "default": bits,
                "reversed": bits[::-1],
                "shuffled": random.Random(size).sample(bits, len(bits)),
            }[order]
            mgr = kernel_manager(names)
            context = SymbolicContext([var], manager=mgr)
            expected = mgr.disjoin(
                mgr.cube(dict(zip(bits, sort.encode(value)))) for value in sort.values()
            )
            assert context.domain_constraint(var) == expected, size

    def test_struct_domain_constraint_conjoins_its_fields(self, kernel_manager):
        sort = StructSort("S", [("p", EnumSort("P", 3)), ("q", EnumSort("Q", 5))])
        var = Var("s", sort)
        mgr = kernel_manager(var.bit_names())
        context = SymbolicContext([var], manager=mgr)
        expected = mgr.disjoin(
            mgr.cube(dict(zip(var.bit_names(), sort.encode(value)))) for value in sort.values()
        )
        assert context.domain_constraint(var) == expected

    def test_at_most_matches_the_value_cubes_in_any_order(self, kernel_manager):
        mgr = kernel_manager(self.NAMES[:5])
        rng = random.Random(5)
        for width in range(1, 6):
            for _ in range(4):
                bits = rng.sample(self.NAMES[:5], width)
                for bound in range(-1, (1 << width) + 1):
                    expected = mgr.disjoin(
                        mgr.cube({bit: bool((value >> i) & 1) for i, bit in enumerate(bits)})
                        for value in range(min(bound + 1, 1 << width))
                    )
                    assert mgr.at_most(bits, bound) == expected, (bits, bound)
        with pytest.raises(BddError, match="distinct"):
            mgr.at_most(["a", 0], 1)

    def test_interned_maps_match_the_dict_path(self, kernel_manager):
        # Two managers, one per path, through the same operations: the same
        # edges, the same errors and the same node tables.
        names = ["a", "b", "c", "x", "y", "z"]
        renames = [
            {"a": "x", "b": "y", "c": "z"},  # shift
            {"a": "z", "b": "y", "c": "x"},  # order-reversing: ite fall-back
            {"a": "b", "b": "a"},  # swap
            {"a": "b"},  # clashes when b is in the support
        ]
        restricts = [{"a": True}, {"b": False, "z": True}, {0: True, "c": False}]
        by_dict, interned = kernel_manager(names), kernel_manager(names)
        results = []
        for mgr, intern in ((by_dict, False), (interned, True)):
            a, b, c = (mgr.var(name) for name in "abc")
            functions = [a, mgr.or_(mgr.and_(a, b ^ 1), mgr.and_(b, c)), mgr.xor(a, c)]
            outcomes = []
            for f in functions:
                for mapping in renames:
                    rmap = mgr.rename_map(mapping) if intern else mapping
                    try:
                        outcomes.append(mgr.rename(f, rmap))
                    except BddError as error:
                        outcomes.append(str(error))
                for assignment in restricts:
                    fmap = mgr.restrict_map(assignment) if intern else assignment
                    outcomes.append(mgr.restrict(f, fmap))
            results.append(outcomes)
        assert results[0] == results[1]
        assert any(isinstance(outcome, str) for outcome in results[0])
        assert by_dict._level == interned._level
        assert dict(by_dict._unique.items()) == dict(interned._unique.items())
        assert by_dict.stats() == interned.stats()
        assert interned.rename_map(renames[0]) is interned.rename_map(renames[0])
        assert interned.rename_map({"a": "a"}) is None
        with pytest.raises(BddError, match="injective"):
            interned.rename_map({"a": "x", "b": "x"})

    @pytest.mark.parametrize(
        "arguments", ["xx", "ba", "bb", "bx", "1x"], ids=lambda args: f"R({','.join(args)})"
    )
    def test_compiled_applications_match_direct_evaluation(self, arguments):
        # Non-injective (R(x,x)), swapped (R(b,a)) and clashing (R(b,b))
        # applications still reach the general fall-back from a compiled
        # plan with interned maps.
        R = RelationDecl("R", [("a", E), ("b", E)])
        backend = _backend(R)
        args = [int(arg) if arg.isdigit() else Var(arg, E) for arg in arguments]
        formula = R(*args)
        plan = backend.compile_formula(formula)
        if arguments == "xx":
            assert plan.maps.rename_map is None
        rng = random.Random(arguments)
        for _ in range(20):
            tuples = {(rng.choice(VALUES), rng.choice(VALUES)) for _ in range(rng.randint(0, 6))}
            interps = {"R": _interp(backend, R, tuples)}
            assert plan.eval(backend, interps) == backend.eval_formula(formula, interps)


class TestDeepRecursion:
    """Apply recursions descend one frame per variable level, so deep orders
    rely on ``add_var`` raising the interpreter's recursion limit."""

    def test_survives_deep_chains(self):
        # A conjunction chain over many variables: ~n frames per apply.
        names = [f"v{i}" for i in range(600)]
        mgr = BddManager(names)
        node = mgr.conjoin(mgr.var(name) for name in names)
        assert mgr.count_sat(node, names) == 1

    def test_survives_deep_ite(self):
        # A genuinely 3-operand ite spanning ~1500 levels (no 2-operand
        # delegation applies): past the interpreter's default limit of 1000.
        n = 1500
        names = [f"v{i}" for i in range(n)]
        mgr = BddManager(names)
        evens = mgr.conjoin(mgr.var(f"v{i}") for i in range(0, n, 2))
        odds = mgr.conjoin(mgr.var(f"v{i}") for i in range(1, n, 2))
        node = mgr.ite(mgr.var(f"v{n - 1}"), evens, odds)
        env = {f"v{i}": True for i in range(n)}
        assert mgr.eval(node, env)
        env[f"v{n - 1}"] = False
        assert not mgr.eval(node, env)

    def test_survives_deep_quantify_and_rename(self):
        # Quantification and both rename paths over a deep order; the
        # order-reversing mapping exercises the ite rebuild fall-back, the
        # deepest nesting (rename -> ite).
        n = 600
        names = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
        mgr = BddManager(names)
        node = mgr.conjoin(mgr.var(f"a{i}") for i in range(n))
        assert mgr.exists(node, [f"a{i}" for i in range(0, n, 2)]) == mgr.conjoin(
            mgr.var(f"a{i}") for i in range(1, n, 2)
        )
        assert mgr.forall(node, [f"a{0}"]) == mgr.FALSE
        shifted = mgr.rename(node, {f"a{i}": f"b{i}" for i in range(n)})
        assert mgr.count_sat(shifted, [f"b{i}" for i in range(n)]) == 1
        reversed_ = mgr.rename(node, {f"a{i}": f"b{n - 1 - i}" for i in range(n)})
        assert mgr.count_sat(reversed_, [f"b{i}" for i in range(n)]) == 1


NODE = EnumSort("Node", 6)


def _reachability_system():
    Reach = RelationDecl("Reach", [("u", NODE)])
    Init = RelationDecl("Init", [("u", NODE)])
    Trans = RelationDecl("Trans", [("u", NODE), ("v", NODE)])
    u = Var("u", NODE)
    x = Var("x", NODE)
    body = Or(Init(u), Exists(x, And(Reach(x), Trans(x, u))))
    system = EquationSystem([Equation(Reach, body)], inputs=[Init, Trans])
    return system, Reach, Init, Trans, body


class TestStaticHoisting:
    def _inputs(self, backend):
        u, v = Var("u", NODE), Var("v", NODE)
        mgr = backend.manager
        init = mgr.disjoin(backend.context.encode_cube(u, n) for n in (0,))
        trans = mgr.disjoin(
            mgr.and_(
                backend.context.encode_cube(u, a), backend.context.encode_cube(v, b)
            )
            for a, b in ((0, 1), (1, 2), (2, 3), (4, 5))
        )
        return {"Init": init, "Trans": trans}

    def test_compiled_plan_matches_direct_evaluation(self):
        system, Reach, Init, Trans, body = _reachability_system()
        backend = SymbolicBackend(system)
        inputs = self._inputs(backend)
        plan = backend.compile_formula(body)
        assert backend.static_hoists > 0
        for reach_tuples in ((), (0,), (0, 1), (0, 1, 2, 3)):
            u = Var("u", NODE)
            mgr = backend.manager
            reach = mgr.disjoin(
                backend.context.encode_cube(u, n) for n in reach_tuples
            )
            interps = dict(inputs)
            interps["Reach"] = reach
            assert plan.eval(backend, interps) == backend.eval_formula(body, interps)

    def test_plan_memo_short_circuits_repeats(self):
        system, Reach, Init, Trans, body = _reachability_system()
        backend = SymbolicBackend(system)
        inputs = self._inputs(backend)
        interps = dict(inputs)
        interps["Reach"] = backend.manager.FALSE
        equation = system.equation("Reach")
        first = backend.eval_equation(equation, interps)
        hits_before = backend.plan_memo_hits
        second = backend.eval_equation(equation, interps)
        assert first == second
        assert backend.plan_memo_hits > hits_before

    def test_nested_evaluation_reports_backend_stats(self):
        system, Reach, Init, Trans, body = _reachability_system()
        backend = SymbolicBackend(system)
        result = evaluate_nested(system, "Reach", backend, self._inputs(backend))
        stats = backend.stats_snapshot()
        assert stats["static_hoists"] > 0
        assert "manager" in stats and stats["manager"]["nodes"] > 2
        u = Var("u", NODE)
        expected = {(n,) for n in (0, 1, 2, 3)}
        assert set(backend.models(result.value, Reach)) == expected


class TestCacheClearing:
    def test_manager_has_no_dead_count_cache(self):
        mgr = BddManager(["a"])
        assert not hasattr(mgr, "_count_cache")

    def test_context_clear_caches_composes_with_manager(self):
        system, Reach, Init, Trans, body = _reachability_system()
        backend = SymbolicBackend(system)
        u = Var("u", NODE)
        constraint = backend.context.domain_constraint(u)
        assert backend.context._domain_cache
        backend.manager.and_(constraint, backend.manager.var(u.bit_names()[0]))
        backend.context.clear_caches()
        assert not backend.context._domain_cache
        assert not backend.manager._and_cache
        # Results stay valid: the node table is untouched.
        assert backend.context.domain_constraint(u) == constraint

    def test_backend_clear_caches_resets_counters_consistently(self):
        # clear_caches must reset plan-memo counters, manager op stats and GC
        # bookkeeping together, so stats_snapshot() does not leak across runs.
        system, Reach, Init, Trans, body = _reachability_system()
        backend = SymbolicBackend(system)
        u = Var("u", NODE)
        mgr = backend.manager
        init = mgr.disjoin(backend.context.encode_cube(u, n) for n in (0,))
        v = Var("v", NODE)
        trans = mgr.disjoin(
            mgr.and_(
                backend.context.encode_cube(u, a), backend.context.encode_cube(v, b)
            )
            for a, b in ((0, 1), (1, 2))
        )
        evaluate_nested(system, "Reach", backend, {"Init": init, "Trans": trans})
        assert backend.plan_memo_hits + backend.plan_memo_misses > 0
        backend.clear_caches()
        snap = backend.stats_snapshot()
        assert snap["plan_memo_hits"] == 0
        assert snap["plan_memo_misses"] == 0
        assert snap["gc_steps"] == 0
        manager_stats = snap["manager"]
        assert all(
            op["hits"] == 0 and op["misses"] == 0
            for op in manager_stats["ops"].values()
        )
        assert manager_stats["peak_nodes"] == manager_stats["nodes"]
        assert manager_stats["gc"]["collections"] == 0
        assert all(size == 0 for size in manager_stats["cache_sizes"].values())
        # Compiled plans (and their protected skeletons) survive the clear.
        assert snap["compiled_equations"] == 1
        assert snap["protected_nodes"] > 0

    def test_engine_threads_stats_into_result(self):
        from repro.algorithms import run_sequential
        from repro.boolprog import parse_program
        from repro.frontends import resolve_target

        source = """
        decl g;
        main() begin
            g := T;
            if (g) then
                target: skip;
            fi
        end
        """
        program = parse_program(source)
        locations = resolve_target(program, "main:target")
        result = run_sequential(program, locations, algorithm="ef-opt")
        assert result.reachable
        assert result.stats["static_hoists"] > 0
        assert result.cache_hit_rate("and") is not None
        assert result.stats["manager"]["peak_nodes"] > 2
        assert result.gc_stats() is not None
        assert result.live_nodes() is not None and result.live_nodes() > 2
        assert result.details["bdd_live_nodes"] == result.live_nodes()
