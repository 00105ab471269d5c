"""Unit tests for the sorts of the fixed-point calculus."""

import pytest

from repro.fixedpoint import BOOL, BoolSort, EnumSort, StructSort, Var


class TestBoolSort:
    def test_width_and_paths(self):
        assert BOOL.width == 1
        assert BOOL.bit_paths() == ("",)

    def test_encode_decode_roundtrip(self):
        for value in (False, True):
            assert BOOL.decode(BOOL.encode(value)) == value

    def test_values(self):
        assert list(BOOL.values()) == [False, True]
        assert BOOL.size() == 2

    def test_validity(self):
        assert BOOL.is_valid(True)
        assert BOOL.is_valid(0)
        assert not BOOL.is_valid(2)


class TestEnumSort:
    def test_width(self):
        assert EnumSort("pc", 1).width == 1
        assert EnumSort("pc", 2).width == 1
        assert EnumSort("pc", 3).width == 2
        assert EnumSort("pc", 8).width == 3
        assert EnumSort("pc", 9).width == 4

    def test_encode_decode_roundtrip(self):
        sort = EnumSort("pc", 11)
        for value in sort.values():
            assert sort.decode(sort.encode(value)) == value

    def test_out_of_range_encode_raises(self):
        sort = EnumSort("pc", 5)
        with pytest.raises(ValueError):
            sort.encode(5)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            EnumSort("bad", 0)

    def test_values_and_validity(self):
        sort = EnumSort("k", 4)
        assert list(sort.values()) == [0, 1, 2, 3]
        assert sort.is_valid(3)
        assert not sort.is_valid(4)
        assert not sort.is_valid(-1)

    def test_equality(self):
        assert EnumSort("pc", 3) == EnumSort("pc", 3)
        assert EnumSort("pc", 3) != EnumSort("pc", 4)


class TestStructSort:
    @pytest.fixture()
    def state(self):
        return StructSort(
            "State", [("pc", EnumSort("PC", 3)), ("x", BOOL), ("y", BOOL)]
        )

    def test_bit_paths(self, state):
        assert state.bit_paths() == ("pc.0", "pc.1", "x", "y")
        assert state.width == 4

    def test_bit_paths_are_computed_once_and_immutable(self, state):
        # Every caller shares one layout per sort, so it must not be mutable.
        for sort in (BOOL, EnumSort("PC", 5), state):
            paths = sort.bit_paths()
            assert isinstance(paths, tuple)
            assert sort.bit_paths() is paths
            with pytest.raises(AttributeError):
                paths.append("junk")
        u = Var("u", state)
        names = u.bit_names()
        names.append("junk")
        assert u.bit_names() == ["u.pc.0", "u.pc.1", "u.x", "u.y"]
        assert u.pc.prefix == "u.pc"
        assert state.width == len(state.bit_paths()) == 4

    def test_field_access(self, state):
        assert state.field_sort("pc") == EnumSort("PC", 3)
        assert state.field_sort("x") == BOOL
        assert state.has_field("y")
        assert not state.has_field("z")
        with pytest.raises(KeyError):
            state.field_sort("z")

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ValueError):
            StructSort("Bad", [("x", BOOL), ("x", BOOL)])

    def test_encode_decode_roundtrip(self, state):
        value = {"pc": 2, "x": True, "y": False}
        assert state.decode(state.encode(value)) == value

    def test_encode_accepts_canonical_tuple(self, state):
        assert state.encode((2, True, False)) == state.encode({"pc": 2, "x": True, "y": False})

    def test_values_enumeration(self, state):
        values = list(state.values())
        assert len(values) == 3 * 2 * 2
        assert state.size() == 12
        assert len(set(values)) == len(values)

    def test_canonical_and_as_dict(self, state):
        value = {"pc": 1, "x": False, "y": True}
        canonical = state.canonical(value)
        assert canonical == (1, False, True)
        assert state.as_dict(canonical) == value

    def test_validity(self, state):
        assert state.is_valid({"pc": 0, "x": True, "y": True})
        assert not state.is_valid({"pc": 3, "x": True, "y": True})
        assert not state.is_valid({"pc": 0, "x": True})
        assert state.is_valid((2, False, False))
        assert not state.is_valid((2, False))
