"""Differential suite: the native apply loop against the Python kernel.

The native module (``repro/bdd/_native.c``) must leave a manager in exactly
the state the Python recursions would.  Each test drives two managers, one
per kernel, through the same operations and asserts after every step that
they agree on

* the returned signed edges,
* the node vectors ``_level``/``_lo``/``_hi`` (spare slots included), the
  bump index ``_top``, the unique table and the free list,
* every ``stats()`` counter (only the ``kernel`` field may differ),

including the typed errors raised under a node budget, a deadline and a
full node table, and the clash/injectivity errors of ``rename``.  The op
mix also covers the constructions built directly with ``_mk`` (``cube``,
``at_most``) and ``rename``/``restrict`` through interned maps.  The
single-probe inserts get their own cases: top-level calls whose recursion
grows their cache between the probe and the store, and ``mk`` inserts that
land on the unique table's resize threshold.  The Python manager is
selected by patching the module's ``_native`` attribute while it is
constructed.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BddError, BddManager
from repro.bdd import manager as bdd_manager
from repro.errors import AnalysisTimeout, NodeBudgetExceeded

pytestmark = pytest.mark.skipif(
    bdd_manager._native is None, reason="the native kernel could not be built"
)

VARS = ["a", "b", "c", "d", "x", "y", "z", "w"]

#: Rename maps: an order-preserving shift, an order reversal (falls back
#: to ite), a swap, a map whose target ``b`` clashes unless renamed away,
#: a non-injective map, and one that can both clash and break the order.
RENAMES = [
    {"a": "x", "b": "y", "c": "z", "d": "w"},
    {"a": "w", "b": "z", "c": "y", "d": "x"},
    {"a": "b", "b": "a"},
    {"a": "b"},
    {"x": "d", "y": "d"},
    {"c": "w", "d": "x"},
]

#: Operand picks (see ``pick``) and the operation mix; a ``gc`` op keeps the
#: pool entries whose position bit is set in its mask.
INDEX = st.integers(0, 20)
OPS = st.one_of(
    st.tuples(st.sampled_from(["and", "or", "xor"]), INDEX, INDEX),
    st.tuples(st.just("not"), INDEX),
    st.tuples(
        st.sampled_from(["exists", "forall"]),
        INDEX,
        st.sets(st.sampled_from(VARS), min_size=1, max_size=4),
    ),
    st.tuples(
        st.just("and_exists"),
        INDEX,
        INDEX,
        st.sets(st.sampled_from(VARS), min_size=1, max_size=4),
    ),
    st.tuples(st.just("rename"), INDEX, st.integers(0, len(RENAMES) - 1)),
    st.tuples(
        st.sampled_from(["restrict", "restrict_map"]),
        INDEX,
        st.dictionaries(st.sampled_from(VARS), st.booleans(), min_size=1, max_size=3),
    ),
    st.tuples(st.just("rename_map"), INDEX, st.integers(0, len(RENAMES) - 1)),
    # Keys are names or indices, so a variable may appear twice.
    st.tuples(
        st.just("cube"),
        INDEX,
        st.dictionaries(
            st.sampled_from(VARS + list(range(len(VARS)))), st.booleans(), max_size=5
        ),
    ),
    st.tuples(
        st.just("at_most"),
        INDEX,
        st.lists(st.sampled_from(VARS), min_size=1, max_size=4, unique=True),
        st.integers(-1, 16),
    ),
    st.tuples(st.just("gc"), st.integers(0, 127)),
)


def python_manager(*args, **kwargs) -> BddManager:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bdd_manager, "_native", None)
        return BddManager(*args, **kwargs)


def pair():
    """A native and a Python manager, each with a node per variable."""
    native, python = BddManager(VARS), python_manager(VARS)
    assert native.stats()["kernel"] == "native"
    assert python.stats()["kernel"] == "python"
    for mgr in (native, python):
        for name in VARS:
            mgr.var(name)
    return native, python


def assert_same_state(native: BddManager, python: BddManager) -> None:
    assert native._top == python._top
    assert native._level == python._level
    assert native._lo == python._lo
    assert native._hi == python._hi
    assert native._unique == python._unique
    assert native._free == python._free
    assert native._deadline_countdown == python._deadline_countdown
    left, right = native.stats(), python.stats()
    left.pop("kernel")
    right.pop("kernel")
    assert left == right


def pick(pool: list, index: int) -> int:
    """Small indices pick recent results, so operations build on each other."""
    return pool[-1 - index % len(pool)]


def apply(mgr: BddManager, pool: list, op: tuple):
    """Run ``op`` on ``mgr``; the result edge, or the raised error."""
    name, first = op[0], pick(pool, op[1])
    try:
        if name == "and":
            return mgr.and_(first, pick(pool, op[2]))
        if name == "or":
            return mgr.or_(first, pick(pool, op[2]))
        if name == "xor":
            return mgr.xor(first, pick(pool, op[2]))
        if name == "not":
            return mgr.not_(first)
        if name == "exists":
            return mgr.exists(first, sorted(op[2]))
        if name == "forall":
            return mgr.forall(first, sorted(op[2]))
        if name == "and_exists":
            return mgr.and_exists(first, pick(pool, op[2]), sorted(op[3]))
        if name == "rename":
            return mgr.rename(first, RENAMES[op[2]])
        if name == "restrict":
            return mgr.restrict(first, op[2])
        if name == "rename_map":
            return mgr.rename(first, mgr.rename_map(RENAMES[op[2]]))
        if name == "restrict_map":
            return mgr.restrict(first, mgr.restrict_map(op[2]))
        if name == "cube":
            return mgr.cube(op[2])
        if name == "at_most":
            return mgr.at_most(op[2], op[3])
    except (BddError, NodeBudgetExceeded, AnalysisTimeout) as error:
        return error
    raise AssertionError(f"unknown op {name}")


def same_outcome(left, right) -> None:
    if isinstance(left, Exception) or isinstance(right, Exception):
        assert type(left) is type(right), (left, right)
        if not isinstance(left, AnalysisTimeout):
            assert str(left) == str(right)
        if isinstance(left, NodeBudgetExceeded):
            assert (left.consumed, left.budget) == (right.consumed, right.budget)
    else:
        assert left == right


def run(native: BddManager, python: BddManager, ops) -> list:
    """Apply ``ops`` to both managers in step; the native outcomes."""
    pool = [BddManager.FALSE, BddManager.TRUE] + [native.var(v) for v in VARS]
    assert pool[2:] == [python.var(v) for v in VARS]
    assert_same_state(native, python)
    outcomes = []
    for op in ops:
        if op[0] == "gc":
            keep = [edge for i, edge in enumerate(pool) if (op[1] >> (i % 7)) & 1]
            pool = [BddManager.FALSE, BddManager.TRUE] + keep
            assert native.collect_garbage(pool) == python.collect_garbage(pool)
        else:
            left, right = apply(native, pool, op), apply(python, pool, op)
            same_outcome(left, right)
            outcomes.append(left)
            if not isinstance(left, Exception):
                pool.append(left)
        assert_same_state(native, python)
    return outcomes


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, min_size=1, max_size=40))
def test_op_sequences_match_the_python_kernel(ops):
    native, python = pair()
    run(native, python, ops)


@settings(max_examples=60, deadline=None)
@given(st.lists(OPS, min_size=1, max_size=40), st.integers(8, 40))
def test_node_budget_errors_match(ops, budget):
    native, python = pair()
    native.set_node_budget(budget)
    python.set_node_budget(budget)
    run(native, python, ops)


@settings(max_examples=30, deadline=None)
@given(st.lists(OPS, min_size=1, max_size=30))
def test_expired_deadline_errors_match(ops):
    native, python = pair()
    native.set_deadline(0.0)
    python.set_deadline(0.0)
    run(native, python, ops)


@settings(max_examples=40, deadline=None)
@given(st.lists(OPS, min_size=1, max_size=30), st.integers(10, 30))
def test_full_node_table_errors_match(ops, bound):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bdd_manager, "MAX_NODE_INDEX", bound)
        native, python = pair()
        run(native, python, ops)


def spy_grow(mgr: BddManager) -> list:
    """Record the vector length at each of the instance's `_grow` calls."""
    sizes = []
    grow = mgr._grow

    def spy():
        sizes.append(len(mgr._level))
        grow()

    mgr._grow = spy
    return sizes


def test_growth_trim_and_reuse_match_the_python_kernel():
    # Equality of two words with one word's bits all above the other's
    # takes ~6k nodes: several `_grow` steps.  A sweep that keeps one early
    # node trims the tail, and a rebuild reuses its holes and then bumps.
    names = [f"x{i}" for i in range(10)] + [f"y{i}" for i in range(10)]
    native, python = BddManager(names), python_manager(names)
    grown = [spy_grow(mgr) for mgr in (native, python)]
    keep = [mgr.ref(mgr.and_(mgr.var("x0"), mgr.var("y0"))) for mgr in (native, python)]
    assert keep[0] == keep[1]
    for order in (range(10), reversed(range(10))):
        edges = [BddManager.TRUE, BddManager.TRUE]
        for i in order:
            edges = [
                mgr.and_(edge, mgr.iff(mgr.var(f"x{i}"), mgr.var(f"y{i}")))
                for mgr, edge in zip((native, python), edges)
            ]
            assert edges[0] == edges[1]
            assert_same_state(native, python)
        top = native._top
        assert native.collect_garbage() == python.collect_garbage()
        assert_same_state(native, python)
        assert native._top < top
        assert native._top < len(native._level)
        assert native._free
    assert grown[0] == grown[1]
    assert len(grown[0]) >= 3


def test_every_map_and_cube_on_small_functions():
    # Exhaustive over two-literal and/or/xor functions of every ordered
    # variable pair, so each rename map meets every child shape (order
    # breaks on the low or the high side, clashes) on every run.
    native, python = pair()
    functions = []
    for x, y in itertools.permutations(VARS, 2):
        for sx, sy, op in itertools.product((0, 1), (0, 1), ("and_", "or_", "xor")):
            args = (native.var(x) ^ sx, native.var(y) ^ sy)
            f, g = (getattr(mgr, op)(*args) for mgr in (native, python))
            assert f == g
            functions.append(f)
    cubes = [["a"], ["b", "x"], ["a", "c", "z"], VARS]
    for f, g in zip(functions, functions[1:] + functions[:1]):
        ops = [("rename", 0, index) for index in range(len(RENAMES))]
        ops += [("exists", 0, set(cube)) for cube in cubes]
        ops += [("and_exists", 0, 1, set(cube)) for cube in cubes]
        ops += [("restrict", 0, {"a": True, "y": False}), ("restrict", 1, {"b": False})]
        for op in ops:
            same_outcome(apply(native, [g, f], op), apply(python, [g, f], op))
    assert_same_state(native, python)


def conjoin_in_step(native: BddManager, python: BddManager, partners=VARS[4:]) -> list:
    """Conjoin ``a|~x``, ``b|~y``, ... (``partners`` pairs with a, b, c, d)
    and quantify, on both managers in step; the native outcomes."""
    outcomes = []

    def step(method, *args):
        results = []
        for mgr in (native, python):
            try:
                results.append(getattr(mgr, method)(*args))
            except (NodeBudgetExceeded, AnalysisTimeout) as error:
                results.append(error)
        same_outcome(*results)
        assert_same_state(native, python)
        outcomes.append(results[0])
        return results[0]

    f = BddManager.TRUE
    for x, y in zip(VARS[:4], partners):
        g = step("or_", native.var(x), native.var(y) ^ 1)
        if not isinstance(g, Exception):
            f = step("and_", f, g)
        if isinstance(f, Exception):
            break
    if not isinstance(f, Exception):
        step("and_exists", f, native.var("c") ^ 1, ["a", "x"])
    return outcomes


def test_deadline_countdown_trips_inside_the_native_loop():
    # Arm a far deadline so the countdown runs without expiring, then let it
    # expire: both kernels check at the same allocation and raise the same
    # typed error.
    native, python = pair()
    for mgr in (native, python):
        mgr._deadline_interval = 3
        mgr.set_deadline(3600.0)
    assert not any(isinstance(o, Exception) for o in conjoin_in_step(native, python))
    for mgr in (native, python):
        mgr._deadline = 0.0
    outcomes = conjoin_in_step(native, python, partners=VARS[:3:-1])
    assert any(isinstance(o, AnalysisTimeout) for o in outcomes)


def test_managers_stay_usable_after_a_budget_error():
    native, python = pair()
    for mgr in (native, python):
        mgr.set_node_budget(12)
    assert any(isinstance(o, NodeBudgetExceeded) for o in conjoin_in_step(native, python))
    for mgr in (native, python):
        mgr.set_node_budget(None)
        mgr.collect_garbage()
    for mgr in (native, python):
        for name in VARS:
            mgr.var(name)
    assert not any(isinstance(o, Exception) for o in conjoin_in_step(native, python))


def test_wide_cache_keys_match_the_python_kernel():
    # Once a cube's uid reaches 2**15, an and_exists key ((uid << 24 | f)
    # << 24) | g no longer fits 63 bits.  Intern 2**15 cubes that each hold
    # one of eight padding levels first, so every cube the ops below name
    # gets such a uid, then check that both kernels file and find the wide
    # keys alike, across a GC.
    padding = [f"p{i}" for i in range(8)]
    native, python = BddManager(VARS + padding), python_manager(VARS + padding)
    levels = range(len(VARS) + len(padding))
    fillers = (
        subset
        for size in range(1, len(levels) + 1)
        for subset in itertools.combinations(levels, size)
        if subset[-1] >= len(VARS)
    )
    for subset in itertools.islice(fillers, 1 << 15):
        for mgr in (native, python):
            mgr.quant_cube(subset)
    for mgr in (native, python):
        for name in VARS:
            mgr.var(name)
    ops = [
        ("or", 0, 1),
        ("and", 0, 2),
        ("xor", 1, 3),
        ("and_exists", 0, 1, {"a", "x"}),
        ("exists", 1, {"b", "c", "y"}),
        ("forall", 2, {"a", "d"}),
        ("gc", 0b1010101),
        ("and", 1, 3),
        ("and_exists", 0, 2, {"a", "x"}),
        ("and_exists", 1, 2, {"c", "z", "w"}),
        ("exists", 0, {"b", "c", "y"}),
    ]
    run(native, python, ops)
    for mgr in (native, python):
        for name in VARS:
            mgr.var(name)
    conjoin_in_step(native, python)
    assert min(cube.uid for cube in python._cube_table.values() if cube.levels[-1] < 8) >= 1 << 15
    assert max(python._and_exists_cache) >= 1 << 63
    assert native._and_exists_cache == python._and_exists_cache
    assert native._exists_cache == python._exists_cache


#: A native ``Table`` slot holds a key's two words and its value.
SLOT_BYTES = 24


def slot_count(table) -> int:
    """The length of a native ``Table``'s slot array (0 without storage)."""
    return (table.__sizeof__() - type(table)().__sizeof__()) // SLOT_BYTES


def growth_steps(table) -> int:
    """How many times a native ``Table`` doubled past its first slot array
    (-1 while it holds no storage)."""
    return (slot_count(table) // slot_count(type(table)([(0, 0)]))).bit_length() - 1


def word_pair():
    """Managers holding ``f``, the equality of two 10-bit words with one
    word's bits all above the other's (~2k nodes), over variables ``x`` and
    ``y``, and ``g = x1 | y8``; rename targets ``z``/``w`` lie below."""
    names = [f"{word}{i}" for word in "xyzw" for i in range(10)]
    native, python = BddManager(names), python_manager(names)
    for mgr in (native, python):
        f = BddManager.TRUE
        for i in range(10):
            f = mgr.and_(f, mgr.iff(mgr.var(f"x{i}"), mgr.var(f"y{i}")))
        g = mgr.or_(mgr.var("x1"), mgr.var("y8"))
    assert_same_state(native, python)
    return native, python, f, g


SOME_Y = [f"y{i}" for i in range(0, 10, 3)]
SHIFT = {**{f"x{i}": f"z{i}" for i in range(10)}, **{f"y{i}": f"w{i}" for i in range(10)}}

SINGLE_PROBE_CALLS = {
    "and": lambda mgr, f, g: mgr.and_(f, g),
    "exists": lambda mgr, f, g: mgr.exists(f, SOME_Y),
    "and_exists": lambda mgr, f, g: mgr.and_exists(f, g, SOME_Y),
    "rename": lambda mgr, f, g: mgr.rename(f, SHIFT),
    "restrict": lambda mgr, f, g: mgr.restrict(f, {"x3": True, "y5": False}),
}


@pytest.mark.parametrize("op", sorted(SINGLE_PROBE_CALLS))
def test_single_probe_store_after_the_call_grew_its_cache(op):
    # The top-level probe misses on a cache without storage, and the call's
    # own recursion then grows that cache at least twice, so its store
    # cannot use the remembered slot and must insert afresh.
    native, python, f, g = word_pair()
    cache = f"_{op}_cache"
    for mgr in (native, python):
        mgr.clear_caches()
    assert slot_count(getattr(native, cache)) == 0
    results = [SINGLE_PROBE_CALLS[op](mgr, f, g) for mgr in (native, python)]
    assert results[0] == results[1]
    assert growth_steps(getattr(native, cache)) >= 2
    assert getattr(native, cache) == getattr(python, cache)
    assert_same_state(native, python)
    if op == "rename":
        assert native.stats()["rename_fast_path"] == 1
    for table in (native._unique, getattr(native, cache)):
        table.validate()


def test_mk_inserts_on_the_unique_table_resize_threshold():
    # One-node conjunctions and disjunctions of variable pairs, each a
    # native call that makes a single node, until the unique table's load
    # sits one below the resize threshold: the next node's insert is the one
    # with (used + 1) * 3 > slots * 2, so it resizes and must look up its slot
    # again.  Do this for two successive thresholds.
    names = [f"v{i}" for i in range(24)]
    native, python = BddManager(names), python_manager(names)
    for mgr in (native, python):
        for name in names:
            mgr.var(name)
    thresholds = 0
    for left, right in itertools.combinations(names, 2):
        for op in ("and_", "or_"):
            slots = slot_count(native._unique)
            on_threshold = (len(native._unique) + 1) * 3 > slots * 2
            edges = [
                getattr(mgr, op)(mgr.var(left), mgr.var(right)) for mgr in (native, python)
            ]
            assert edges[0] == edges[1]
            assert_same_state(native, python)
            native._unique.validate()
            assert slot_count(native._unique) == (2 * slots if on_threshold else slots)
            thresholds += on_threshold
        if thresholds >= 2:
            break
    assert thresholds >= 2
