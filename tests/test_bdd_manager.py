"""Unit tests for the ROBDD manager."""

import pytest

from repro.bdd import BddError, BddManager


@pytest.fixture()
def mgr():
    return BddManager(["a", "b", "c", "d"])


class TestVariables:
    def test_declared_names(self, mgr):
        assert mgr.var_names == ("a", "b", "c", "d")
        assert mgr.num_vars == 4

    def test_var_index_roundtrip(self, mgr):
        for index, name in enumerate("abcd"):
            assert mgr.var_index(name) == index
            assert mgr.var_name(index) == name

    def test_unknown_variable_raises(self, mgr):
        with pytest.raises(BddError):
            mgr.var_index("zzz")

    def test_duplicate_declaration_raises(self, mgr):
        with pytest.raises(BddError):
            mgr.add_var("a")

    def test_add_var_appends_level(self, mgr):
        index = mgr.add_var("e")
        assert index == 4
        assert mgr.var_name(4) == "e"


class TestBasicOperations:
    def test_terminals(self, mgr):
        assert mgr.TRUE == 1
        assert mgr.FALSE == 0

    def test_var_and_negation(self, mgr):
        a = mgr.var("a")
        assert mgr.not_(a) == mgr.nvar("a")
        assert mgr.not_(mgr.not_(a)) == a

    def test_and_or_identities(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.and_(a, mgr.TRUE) == a
        assert mgr.and_(a, mgr.FALSE) == mgr.FALSE
        assert mgr.or_(a, mgr.FALSE) == a
        assert mgr.or_(a, mgr.TRUE) == mgr.TRUE
        assert mgr.and_(a, b) == mgr.and_(b, a)

    def test_excluded_middle_and_contradiction(self, mgr):
        a = mgr.var("a")
        assert mgr.or_(a, mgr.not_(a)) == mgr.TRUE
        assert mgr.and_(a, mgr.not_(a)) == mgr.FALSE

    def test_xor_iff_duality(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.not_(mgr.xor(a, b)) == mgr.iff(a, b)

    def test_implies(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.implies(a, b) == mgr.or_(mgr.not_(a), b)

    def test_ite_canonical(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = mgr.ite(a, b, c)
        g = mgr.or_(mgr.and_(a, b), mgr.and_(mgr.not_(a), c))
        assert f == g

    def test_conjoin_disjoin(self, mgr):
        literals = [mgr.var("a"), mgr.var("b"), mgr.var("c")]
        assert mgr.conjoin([]) == mgr.TRUE
        assert mgr.disjoin([]) == mgr.FALSE
        assert mgr.conjoin(literals) == mgr.and_(literals[0], mgr.and_(literals[1], literals[2]))
        assert mgr.disjoin(literals) == mgr.or_(literals[0], mgr.or_(literals[1], literals[2]))

    def test_hash_consing_shares_nodes(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f1 = mgr.and_(a, b)
        f2 = mgr.and_(a, b)
        assert f1 == f2


class TestQuantification:
    def test_exists_removes_variable(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.and_(a, b)
        assert mgr.exists(f, ["a"]) == b
        assert mgr.exists(f, ["a", "b"]) == mgr.TRUE

    def test_forall(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.or_(a, b)
        assert mgr.forall(f, ["a"]) == b
        assert mgr.forall(mgr.and_(a, b), ["a"]) == mgr.FALSE

    def test_exists_is_disjunction_of_cofactors(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = mgr.ite(a, b, c)
        expected = mgr.or_(
            mgr.restrict(f, {"a": True}), mgr.restrict(f, {"a": False})
        )
        assert mgr.exists(f, ["a"]) == expected

    def test_and_exists_matches_two_step(self, mgr):
        a, b, c, d = (mgr.var(name) for name in "abcd")
        f = mgr.or_(mgr.and_(a, b), c)
        g = mgr.or_(mgr.and_(b, d), mgr.not_(c))
        direct = mgr.and_exists(f, g, ["b", "c"])
        two_step = mgr.exists(mgr.and_(f, g), ["b", "c"])
        assert direct == two_step

    def test_quantify_nothing(self, mgr):
        a = mgr.var("a")
        assert mgr.exists(a, []) == a
        assert mgr.forall(a, []) == a


class TestRenameRestrict:
    def test_rename_simple(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.and_(a, mgr.not_(b))
        g = mgr.rename(f, {"a": "c", "b": "d"})
        assert g == mgr.and_(mgr.var("c"), mgr.not_(mgr.var("d")))

    def test_rename_against_order(self, mgr):
        # Renaming a low variable to a high one and vice versa must still work.
        c, d = mgr.var("c"), mgr.var("d")
        f = mgr.and_(c, d)
        g = mgr.rename(f, {"c": "a", "d": "b"})
        assert g == mgr.and_(mgr.var("a"), mgr.var("b"))

    def test_rename_non_injective_raises(self, mgr):
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        with pytest.raises(BddError):
            mgr.rename(f, {"a": "c", "b": "c"})

    def test_rename_clash_raises(self, mgr):
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        with pytest.raises(BddError):
            mgr.rename(f, {"a": "b"})

    def test_rename_swap_is_allowed(self, mgr):
        f = mgr.and_(mgr.var("a"), mgr.not_(mgr.var("b")))
        g = mgr.rename(f, {"a": "b", "b": "a"})
        assert g == mgr.and_(mgr.var("b"), mgr.not_(mgr.var("a")))

    def test_restrict(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.ite(a, b, mgr.not_(b))
        assert mgr.restrict(f, {"a": True}) == b
        assert mgr.restrict(f, {"a": False}) == mgr.not_(b)
        assert mgr.restrict(f, {"a": True, "b": True}) == mgr.TRUE


class TestInspection:
    def test_support(self, mgr):
        f = mgr.and_(mgr.var("a"), mgr.or_(mgr.var("c"), mgr.var("d")))
        assert mgr.support_names(f) == {"a", "c", "d"}
        assert mgr.support(mgr.TRUE) == set()

    def test_node_count(self, mgr):
        assert mgr.node_count(mgr.TRUE) == 0
        assert mgr.node_count(mgr.var("a")) == 1
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        assert mgr.node_count(f) == 2

    def test_count_sat_full_space(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.or_(a, b)
        # Over all 4 declared vars: 3 * 4 assignments of c,d.
        assert mgr.count_sat(f) == 12
        assert mgr.count_sat(f, ["a", "b"]) == 3
        assert mgr.count_sat(mgr.TRUE, ["a"]) == 2
        assert mgr.count_sat(mgr.FALSE, ["a", "b"]) == 0

    def test_count_sat_missing_support_raises(self, mgr):
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        with pytest.raises(BddError):
            mgr.count_sat(f, ["a"])

    def test_count_sat_negation_heavy(self):
        """count_sat on complement-edge-rich formulas (signed-edge memo).

        Every arrival at a complemented edge must hit the same memo as the
        regular polarity; the regression builds formulas where shared signed
        subgraphs are reached under different variable gaps and checks the
        counts against brute-force enumeration, in both polarities.
        """
        names = ["a", "b", "c", "d", "e", "f"]
        mgr = BddManager(names)
        v = {name: mgr.var(name) for name in names}
        # XOR chains are maximally complement-edge-shared.
        xor_chain = mgr.xor(v["a"], mgr.xor(v["b"], mgr.xor(v["c"], v["d"])))
        # A shared negated subformula reached under different gap positions.
        shared = mgr.not_(mgr.xor(v["e"], v["f"]))
        formulas = [
            xor_chain,
            mgr.not_(xor_chain),
            mgr.or_(mgr.and_(v["a"], shared), mgr.and_(mgr.not_(v["c"]), shared)),
            mgr.iff(mgr.not_(mgr.and_(v["a"], v["b"])), mgr.not_(mgr.or_(v["d"], shared))),
            mgr.not_(mgr.implies(mgr.not_(v["b"]), mgr.not_(shared))),
        ]
        total = 1 << len(names)
        for formula in formulas:
            expected = 0
            for bits in range(total):
                env = {name: bool((bits >> k) & 1) for k, name in enumerate(names)}
                if mgr.eval(formula, env):
                    expected += 1
            assert mgr.count_sat(formula, names) == expected
            # The two polarities must partition the space exactly.
            assert mgr.count_sat(mgr.not_(formula), names) == total - expected

    def test_count_sat_negation_memo_is_polarity_shared(self):
        """A wide disjunction of negated shared xors stays cheap: the memo
        must serve complemented arrivals, not redo the subtraction walk."""
        names = [f"x{i}" for i in range(16)]
        mgr = BddManager(names)
        parity = mgr.var(names[0])
        for name in names[1:]:
            parity = mgr.xor(parity, mgr.var(name))
        # Parity of 16 variables is satisfied by exactly half the space.
        assert mgr.count_sat(parity, names) == 1 << 15
        assert mgr.count_sat(mgr.not_(parity), names) == 1 << 15

    def test_sat_one(self, mgr):
        f = mgr.and_(mgr.var("a"), mgr.not_(mgr.var("c")))
        model = mgr.sat_one(f)
        assert model is not None
        assert mgr.eval(f, {**{"b": False, "d": False}, **{mgr.var_name(k): v for k, v in model.items()}})
        assert mgr.sat_one(mgr.FALSE) is None

    def test_sat_all(self, mgr):
        f = mgr.xor(mgr.var("a"), mgr.var("b"))
        models = list(mgr.sat_all(f, ["a", "b"]))
        assert len(models) == 2
        values = {tuple(sorted(m.items())) for m in models}
        a_idx, b_idx = mgr.var_index("a"), mgr.var_index("b")
        assert ((a_idx, False), (b_idx, True)) in values
        assert ((a_idx, True), (b_idx, False)) in values

    def test_eval(self, mgr):
        f = mgr.ite(mgr.var("a"), mgr.var("b"), mgr.var("c"))
        assert mgr.eval(f, {"a": True, "b": True, "c": False})
        assert not mgr.eval(f, {"a": False, "b": True, "c": False})
        # Level keys, alone (read as they are) or mixed with names.
        a, b, c = (mgr.var_index(name) for name in "abc")
        assert mgr.eval(f, {a: 1, b: 1, c: 0})
        assert not mgr.eval(f, {a: 0, "b": True, c: 0})
        with pytest.raises(BddError, match="does not cover variable 'b'"):
            mgr.eval(f, {a: True, c: False})

    def test_cube(self, mgr):
        f = mgr.cube({"a": True, "b": False})
        assert f == mgr.and_(mgr.var("a"), mgr.not_(mgr.var("b")))

    def test_clear_caches_preserves_results(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.and_(a, b)
        mgr.clear_caches()
        assert mgr.and_(a, b) == f


def test_package_imports_do_not_load_numpy():
    """No module in ``src/`` imports numpy: a fresh interpreter that loads
    every public package still has no ``numpy`` in ``sys.modules``."""
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    script = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import repro.api, repro.witness, repro.service, repro.frontends, "
        "repro.algorithms; "
        "sys.exit('numpy' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", script], timeout=60).returncode == 0


@pytest.mark.parametrize("kernel", ["default", "python"])
def test_node_store_grows_logarithmically_often(kernel, monkeypatch):
    """Allocating ~200k nodes calls `_grow` O(log n) times, under either kernel."""
    import math

    from repro.bdd import manager as bdd_manager

    bits = 15
    names = [f"x{i}" for i in range(bits)] + [f"y{i}" for i in range(bits)]
    with monkeypatch.context() as patch:
        if kernel == "python":
            patch.setattr(bdd_manager, "_native", None)
        big = BddManager(names)
    sizes = []
    grow = big._grow

    def spy():
        sizes.append(len(big._level))
        grow()

    big._grow = spy
    # Equality of two words with the x bits all above the y bits: ~3 * 2**bits nodes.
    big.conjoin(big.iff(big.var(f"x{i}"), big.var(f"y{i}")) for i in range(bits))
    capacity = big.stats()["capacity"]
    assert capacity >= 100_000
    assert len(sizes) <= math.ceil(math.log2(capacity / 1024)) + 2
    assert all(after >= 2 * before for before, after in zip(sizes, sizes[1:]))
    assert capacity <= len(big._level) <= 2 * capacity + 1024
