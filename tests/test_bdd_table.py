"""Differential suite: the native kernel's ``Table`` against a dict.

``Table`` (``repro/bdd/_native.c``) is the unique table and the native op
caches of a manager that runs the native kernel, and GC, snapshots and the
sanitizer read it through the dict operations the manager uses.  Each test
drives a ``Table`` and a dict through the same operations and asserts that
they agree after every step, and that the table's probe runs stay sound
(``validate()``).  Keys come from a small pool, so most of them
share a probe run in a small table and deletions shift runs back, and the
pool reaches past 2**63 (wide ``and_exists`` keys) up to the 2**111 bound.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import manager as bdd_manager

pytestmark = pytest.mark.skipif(
    bdd_manager._native is None, reason="the native kernel could not be built"
)

#: Keys a table can hold: small ones, both sides of the 48-bit split and of
#: 2**63, and the largest.
KEYS = (
    list(range(12))
    + [(1 << 48) - 1, 1 << 48, (1 << 48) + 5, (7 << 48) | 3]
    + [(1 << 63) - 1, 1 << 63, (1 << 63) + 1, (1 << 100) | 9, (1 << 111) - 1]
)
KEY = st.sampled_from(KEYS)
VALUE = st.integers(-(1 << 63), (1 << 63) - 1)

OPS = st.one_of(
    st.tuples(st.just("set"), KEY, VALUE),
    st.tuples(st.sampled_from(["get", "getitem", "del", "in"]), KEY),
    st.tuples(st.sampled_from(["len", "iter", "items", "clear", "eq"])),
)


def new_table(items=()):
    return bdd_manager._native.Table(items)


def outcome(call):
    """``call()``'s result, or the type of the error it raised."""
    try:
        return call()
    except (KeyError, TypeError, OverflowError) as error:
        return type(error)


def step(table, model: dict, op: tuple):
    """Apply ``op`` to both containers; their results."""
    name = op[0]
    results = []
    for target in (table, model):
        if name == "set":
            results.append(outcome(lambda: target.__setitem__(op[1], op[2])))
        elif name == "get":
            results.append(target.get(op[1], "missing"))
        elif name == "getitem":
            results.append(outcome(lambda: target[op[1]]))
        elif name == "del":
            results.append(outcome(lambda: target.__delitem__(op[1])))
        elif name == "in":
            results.append(op[1] in target)
        elif name == "len":
            results.append(len(target))
        elif name == "iter":
            results.append(sorted(target))
        elif name == "items":
            results.append(sorted(target.items()))
        elif name == "clear":
            results.append(target.clear())
        elif name == "eq":
            results.append((target == model, model == target, target != model))
    return results


@settings(max_examples=400, deadline=None)
@given(st.lists(OPS, max_size=60))
def test_op_sequences_match_a_dict(ops):
    table, model = new_table(), {}
    for op in ops:
        left, right = step(table, model, op)
        assert left == right, op
        assert table == model and not table != model
        assert len(table) == len(model)
        assert all(table[key] == value for key, value in model.items())
        table.validate()


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(KEY, VALUE), st.dictionaries(KEY, VALUE))
def test_equality_against_dicts(left, right):
    table = new_table(left.items())
    assert (table == right) == (left == right)
    assert (right == table) == (left == right)
    assert table != list(left.items())


def test_long_probe_runs_survive_deletion():
    # Enough keys that runs form and wrap around the slot array; deleting
    # in random order shifts entries back over each freed slot.
    rng = random.Random(7)
    keys = rng.sample(range(1 << 20), 3000) + [(1 << 70) + k for k in range(500)]
    table, model = new_table(), {}
    for key in keys:
        table[key] = model[key] = key & 0xFFFF
    rng.shuffle(keys)
    for index, key in enumerate(keys):
        del table[key]
        del model[key]
        if index % 250 == 0:
            assert table == model
            assert all(key in table for key in model)
            table.validate()
    assert len(table) == 0 and table == {}


def test_clear_releases_storage():
    empty = new_table().__sizeof__()
    table = new_table((key, key) for key in range(10_000))
    assert table.__sizeof__() > empty + 10_000 * 16
    table.clear()
    assert table.__sizeof__() == empty
    assert sys.getsizeof(table) < sys.getsizeof({})
    table[3] = 4
    assert table == {3: 4}


def test_unrepresentable_keys_and_values():
    table = new_table([(1, 2)])
    for key in (-1, 1 << 111):
        with pytest.raises(OverflowError):
            table[key] = 0
        assert key not in table
        assert table.get(key) is None
        with pytest.raises(KeyError):
            table[key]
        with pytest.raises(KeyError):
            del table[key]
    with pytest.raises(TypeError):
        table["a"] = 1
    with pytest.raises(TypeError):
        "a" in table
    with pytest.raises(OverflowError):
        table[2] = 1 << 63
    with pytest.raises(TypeError):
        hash(table)
    with pytest.raises(TypeError):
        new_table([(1, 2, 3)])
    assert table == {1: 2} and table != {1: 2, "a": 1} and table != {1: 2.5}
    assert repr(table) == "Table({1: 2})"
