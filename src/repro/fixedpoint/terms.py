"""Terms of the fixed-point calculus: typed variables, field access, constants.

A term denotes a value of some :class:`~repro.fixedpoint.sorts.Sort`.  In the
symbolic backend a variable term corresponds to a named group of BDD bits
(``u`` of sort ``Conf`` owns the bits ``u.pc.0``, ``u.L.x`` and so on); a field
access selects a sub-group of those bits; constants have no bits at all.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .sorts import BOOL, EnumSort, Sort, StructSort

__all__ = ["Term", "Var", "Field", "Const", "as_term"]


class Term:
    """Base class of calculus terms."""

    sort: Sort

    @property
    def prefix(self) -> str:
        """The bit-name prefix of this term: ``u`` for ``u``, ``u.pc`` for ``u.pc``."""
        raise NotImplementedError

    def bit_names(self) -> List[str]:
        """The fully qualified BDD bit names of this term, in encoding order."""
        prefix = self.prefix
        return [prefix if path == "" else f"{prefix}.{path}" for path in self.sort.bit_paths()]

    def root_var(self) -> Optional["Var"]:
        """The variable at the root of this term, or None for constants."""
        raise NotImplementedError

    def __getattr__(self, field: str) -> "Field":
        # Only called when normal attribute lookup fails, i.e. for field access
        # on struct-sorted terms: ``u.pc``, ``conf.L`` ...
        if field.startswith("_"):
            raise AttributeError(field)
        sort = self.__dict__.get("sort")
        if isinstance(sort, StructSort) and sort.has_field(field):
            return Field(self, field)
        raise AttributeError(
            f"term of sort {getattr(sort, 'name', sort)!r} has no field {field!r}"
        )

    def field(self, name: str) -> "Field":
        """Explicit field access (equivalent to attribute access)."""
        if not isinstance(self.sort, StructSort):
            raise TypeError(f"cannot select field {name!r} from non-struct term")
        return Field(self, name)


class Var(Term):
    """A typed variable (free or bound, depending on context)."""

    def __init__(self, name: str, sort: Sort) -> None:
        self.__dict__["name"] = name
        self.__dict__["sort"] = sort

    @property
    def prefix(self) -> str:
        return self.__dict__["name"]

    def root_var(self) -> "Var":
        return self

    @property
    def path(self) -> str:
        """The dotted path of this term relative to its root variable ('' here)."""
        return ""

    def __repr__(self) -> str:
        return f"Var({self.__dict__['name']!r}:{self.sort.name})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Var)
            and other.__dict__["name"] == self.__dict__["name"]
            and other.sort == self.sort
        )

    def __hash__(self) -> int:
        return hash(("Var", self.__dict__["name"], self.sort))


class Field(Term):
    """A field selection on a struct-sorted term (``u.pc``, ``u.L.x``, ...)."""

    def __init__(self, base: Term, field: str) -> None:
        base_sort = base.sort
        if not isinstance(base_sort, StructSort):
            raise TypeError("Field base must have a struct sort")
        self.__dict__["base"] = base
        self.__dict__["field_name"] = field
        self.__dict__["sort"] = base_sort.field_sort(field)

    @property
    def prefix(self) -> str:
        return f"{self.__dict__['base'].prefix}.{self.__dict__['field_name']}"

    def root_var(self) -> Optional[Var]:
        return self.__dict__["base"].root_var()

    @property
    def path(self) -> str:
        base: Term = self.__dict__["base"]
        field: str = self.__dict__["field_name"]
        base_path = base.path
        return field if base_path == "" else f"{base_path}.{field}"

    def __repr__(self) -> str:
        root = self.root_var()
        name = root.__dict__["name"] if root is not None else "?"
        return f"Field({name}.{self.path})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and other.__dict__["base"] == self.__dict__["base"]
            and other.__dict__["field_name"] == self.__dict__["field_name"]
        )

    def __hash__(self) -> int:
        return hash(("Field", self.__dict__["base"], self.__dict__["field_name"]))


class Const(Term):
    """A constant of a given sort."""

    def __init__(self, sort: Sort, value: Any) -> None:
        if not sort.is_valid(value):
            raise ValueError(f"{value!r} is not a value of sort {sort.name}")
        self.__dict__["sort"] = sort
        self.__dict__["value"] = sort.canonical(value)

    @property
    def value(self) -> Any:
        return self.__dict__["value"]

    @property
    def prefix(self) -> str:
        raise TypeError("constants have no bit names")

    def root_var(self) -> Optional[Var]:
        return None

    def __repr__(self) -> str:
        return f"Const({self.value!r}:{self.sort.name})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Const)
            and other.sort == self.sort
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("Const", self.sort, self.value))


def as_term(value: Any, sort: Optional[Sort] = None) -> Term:
    """Coerce a Python value (or pass through a term) into a :class:`Term`.

    ``bool`` becomes a Boolean constant, ``int`` requires an explicit enum
    ``sort`` to determine the encoding width.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        return Const(BOOL if sort is None else sort, value)
    if isinstance(value, int):
        if sort is None or not isinstance(sort, EnumSort):
            raise TypeError("integer constants need an explicit EnumSort")
        return Const(sort, value)
    raise TypeError(f"cannot interpret {value!r} as a term")
