"""Typed finite domains ("sorts") for the fixed-point calculus.

The calculus of the paper is first-order logic over the Boolean domain; in
practice (and in MUCKE) formulas quantify over *typed* finite domains such as
program counters, module names, or whole program states.  Every sort in this
module has a fixed binary encoding, so a typed variable is just a named group
of BDD bits and a typed value is a vector of Booleans.

Three sorts are provided:

* :class:`BoolSort` — a single bit.
* :class:`EnumSort` — the integers ``0 .. size-1``, encoded in
  ``ceil(log2(size))`` bits (little-endian).
* :class:`StructSort` — a record of named fields, each with its own sort;
  its encoding is the concatenation of the field encodings.  Program states
  (module, pc, locals, globals) are struct sorts whose leaves are Booleans and
  enums.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Sequence, Tuple

__all__ = ["Sort", "BoolSort", "EnumSort", "StructSort", "BOOL"]


class Sort:
    """Base class of all sorts."""

    name: str
    #: The bit paths, fixed when the sort is built (sorts are immutable).
    _paths: Tuple[str, ...]

    def bit_paths(self) -> Tuple[str, ...]:
        """The dotted paths of the bits of this sort, in encoding order.

        A scalar sort has the single path ``""``; a struct sort returns paths
        like ``"pc.0"`` or ``"L.x"``.  The tuple is computed once, when the
        sort is built, and shared by every caller.
        """
        return self._paths

    @property
    def width(self) -> int:
        """Number of bits in the encoding."""
        return len(self._paths)

    def encode(self, value: Any) -> List[bool]:
        """Encode a value of this sort as a list of bits (in bit-path order)."""
        raise NotImplementedError

    def decode(self, bits: Sequence[bool]) -> Any:
        """Decode a bit vector (in bit-path order) back into a value."""
        raise NotImplementedError

    def values(self) -> Iterator[Any]:
        """Iterate over every value of the sort (used by the explicit backend)."""
        raise NotImplementedError

    def size(self) -> int:
        """Number of values of the sort."""
        raise NotImplementedError

    def is_valid(self, value: Any) -> bool:
        """True iff ``value`` belongs to this sort."""
        raise NotImplementedError

    def canonical(self, value: Any) -> Any:
        """Return the canonical (hashable) representation of a value."""
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.name!r})"


class BoolSort(Sort):
    """The Boolean sort (a single bit)."""

    def __init__(self) -> None:
        self.name = "bool"
        self._paths = ("",)

    def encode(self, value: Any) -> List[bool]:
        return [bool(value)]

    def decode(self, bits: Sequence[bool]) -> bool:
        if len(bits) != 1:
            raise ValueError("BoolSort decodes exactly one bit")
        return bool(bits[0])

    def values(self) -> Iterator[bool]:
        yield False
        yield True

    def size(self) -> int:
        return 2

    def is_valid(self, value: Any) -> bool:
        return isinstance(value, bool) or value in (0, 1)

    def canonical(self, value: Any) -> bool:
        return bool(value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BoolSort)

    def __hash__(self) -> int:
        return hash("BoolSort")


#: The shared Boolean sort instance.
BOOL = BoolSort()


class EnumSort(Sort):
    """The finite domain ``{0, ..., size - 1}`` with a binary encoding."""

    def __init__(self, name: str, size: int) -> None:
        if size < 1:
            raise ValueError("EnumSort size must be at least 1")
        self.name = name
        self._size = size
        self._width = max(1, (size - 1).bit_length())
        self._paths = tuple(str(i) for i in range(self._width))

    def encode(self, value: Any) -> List[bool]:
        value = int(value)
        if not 0 <= value < self._size:
            raise ValueError(f"value {value} out of range for {self.name} (size {self._size})")
        return [bool((value >> i) & 1) for i in range(self._width)]

    def decode(self, bits: Sequence[bool]) -> int:
        if len(bits) != self._width:
            raise ValueError(f"{self.name} decodes exactly {self._width} bits")
        value = sum((1 << i) for i, bit in enumerate(bits) if bit)
        return value

    def values(self) -> Iterator[int]:
        return iter(range(self._size))

    def size(self) -> int:
        return self._size

    def is_valid(self, value: Any) -> bool:
        return isinstance(value, int) and 0 <= value < self._size

    def canonical(self, value: Any) -> int:
        return int(value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EnumSort)
            and other.name == self.name
            and other._size == self._size
        )

    def __hash__(self) -> int:
        return hash(("EnumSort", self.name, self._size))

    def __repr__(self) -> str:  # pragma: no cover
        return f"EnumSort({self.name!r}, size={self._size})"


class StructSort(Sort):
    """A record sort: an ordered collection of named, typed fields.

    Values are dictionaries mapping each field name to a value of the field's
    sort; the canonical (hashable) representation is the tuple of canonical
    field values in declaration order.
    """

    def __init__(self, name: str, fields: Sequence[Tuple[str, Sort]]) -> None:
        self.name = name
        self.fields: Tuple[Tuple[str, Sort], ...] = tuple(fields)
        names = [field_name for field_name, _ in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in struct {name!r}")
        self._field_index: Dict[str, int] = {field: i for i, (field, _) in enumerate(self.fields)}
        self._paths = tuple(
            field if sub == "" else f"{field}.{sub}"
            for field, sort in self.fields
            for sub in sort.bit_paths()
        )
        self._hash = hash(("StructSort", self.name, self.fields))

    def field_sort(self, field: str) -> Sort:
        """Return the sort of a field."""
        try:
            return self.fields[self._field_index[field]][1]
        except KeyError:
            raise KeyError(f"struct {self.name!r} has no field {field!r}") from None

    def has_field(self, field: str) -> bool:
        """True iff the struct declares the field."""
        return field in self._field_index

    def field_names(self) -> List[str]:
        """Field names in declaration order."""
        return [field for field, _ in self.fields]

    def encode(self, value: Any) -> List[bool]:
        bits: List[bool] = []
        for field, sort in self.fields:
            if isinstance(value, dict):
                field_value = value[field]
            else:  # allow canonical tuples
                field_value = value[self._field_index[field]]
            bits.extend(sort.encode(field_value))
        return bits

    def decode(self, bits: Sequence[bool]) -> Dict[str, Any]:
        result: Dict[str, Any] = {}
        offset = 0
        for field, sort in self.fields:
            width = sort.width
            result[field] = sort.decode(bits[offset : offset + width])
            offset += width
        if offset != len(bits):
            raise ValueError(f"{self.name} decodes exactly {offset} bits")
        return result

    def values(self) -> Iterator[Tuple[Any, ...]]:
        def recurse(index: int, partial: List[Any]) -> Iterator[Tuple[Any, ...]]:
            if index == len(self.fields):
                yield tuple(partial)
                return
            _, sort = self.fields[index]
            for value in sort.values():
                partial.append(sort.canonical(value))
                yield from recurse(index + 1, partial)
                partial.pop()

        return recurse(0, [])

    def size(self) -> int:
        total = 1
        for _, sort in self.fields:
            total *= sort.size()
        return total

    def is_valid(self, value: Any) -> bool:
        if isinstance(value, dict):
            if set(value) != set(self._field_index):
                return False
            return all(sort.is_valid(value[field]) for field, sort in self.fields)
        if isinstance(value, tuple):
            if len(value) != len(self.fields):
                return False
            return all(sort.is_valid(value[i]) for i, (_, sort) in enumerate(self.fields))
        return False

    def canonical(self, value: Any) -> Tuple[Any, ...]:
        if isinstance(value, tuple):
            return tuple(
                sort.canonical(value[i]) for i, (_, sort) in enumerate(self.fields)
            )
        return tuple(sort.canonical(value[field]) for field, sort in self.fields)

    def as_dict(self, value: Any) -> Dict[str, Any]:
        """Convert a canonical tuple (or dict) value into a field dictionary."""
        if isinstance(value, dict):
            return dict(value)
        return {field: value[i] for i, (field, _) in enumerate(self.fields)}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StructSort)
            and other.name == self.name
            and other.fields == self.fields
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover
        return f"StructSort({self.name!r}, fields={[f for f, _ in self.fields]})"
