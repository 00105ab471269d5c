"""Formulas of the fixed-point calculus.

A formula is built from:

* atoms — relation applications, (in)equalities over terms, Boolean terms used
  directly as atoms, the constants ``TRUE`` and ``FALSE``;
* connectives — negation, conjunction, disjunction, implication, biconditional;
* first-order quantifiers over typed variables (``Exists`` / ``Forall``).

Relation applications refer to :class:`~repro.fixedpoint.relations.RelationDecl`
objects; a formula never stores an interpretation itself — interpretations are
supplied by the evaluation backends.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple

from .sorts import BoolSort, EnumSort
from .terms import Term, Var, as_term

__all__ = [
    "Formula",
    "Top",
    "Bottom",
    "TRUE",
    "FALSE",
    "BoolAtom",
    "RelApp",
    "Eq",
    "Le",
    "Lt",
    "Succ",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Exists",
    "Forall",
    "free_vars",
    "all_vars",
    "relations_of",
    "coerce",
]


class Formula:
    """Base class of calculus formulas (immutable)."""

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, coerce(other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, coerce(other))

    def __invert__(self) -> "Formula":
        return Not(self)

    def children(self) -> Tuple["Formula", ...]:
        """Immediate sub-formulas."""
        return ()

    def terms(self) -> Tuple[Term, ...]:
        """Terms appearing directly in this node."""
        return ()


def coerce(value: Any) -> Formula:
    """Coerce a Python Boolean or Boolean-sorted term into a formula."""
    if isinstance(value, Formula):
        return value
    if isinstance(value, bool):
        return TRUE if value else FALSE
    if isinstance(value, Term) and isinstance(value.sort, BoolSort):
        return BoolAtom(value)
    raise TypeError(f"cannot interpret {value!r} as a formula")


class Top(Formula):
    """The constant-true formula."""

    def __repr__(self) -> str:
        return "TRUE"


class Bottom(Formula):
    """The constant-false formula."""

    def __repr__(self) -> str:
        return "FALSE"


TRUE = Top()
FALSE = Bottom()


class BoolAtom(Formula):
    """A Boolean-sorted term used directly as an atomic formula."""

    def __init__(self, term: Term) -> None:
        if not isinstance(term.sort, BoolSort):
            raise TypeError("BoolAtom requires a Boolean-sorted term")
        self.term = term

    def terms(self) -> Tuple[Term, ...]:
        return (self.term,)

    def __repr__(self) -> str:
        return f"BoolAtom({self.term!r})"


class RelApp(Formula):
    """Application of a declared relation to argument terms."""

    def __init__(self, decl: "RelationDecl", args: Sequence[Term]) -> None:  # noqa: F821
        from .relations import RelationDecl  # local import to avoid a cycle

        if not isinstance(decl, RelationDecl):
            raise TypeError("RelApp requires a RelationDecl")
        if len(args) != len(decl.params):
            raise TypeError(
                f"relation {decl.name} expects {len(decl.params)} arguments, got {len(args)}"
            )
        args = [as_term(arg, sort) for arg, (_, sort) in zip(args, decl.params)]
        for arg, (param_name, sort) in zip(args, decl.params):
            if arg.sort != sort:
                raise TypeError(
                    f"argument {param_name} of {decl.name}: expected sort "
                    f"{sort.name}, got {arg.sort.name}"
                )
        self.decl = decl
        self.args = tuple(args)

    def terms(self) -> Tuple[Term, ...]:
        return self.args

    def __repr__(self) -> str:
        return f"{self.decl.name}({', '.join(map(repr, self.args))})"


class _BinaryTermAtom(Formula):
    """Shared implementation of the binary atoms on terms."""

    op_name = "?"

    def __init__(self, left: Any, right: Any) -> None:
        left_term = left if isinstance(left, Term) else None
        right_term = right if isinstance(right, Term) else None
        if left_term is None and right_term is None:
            raise TypeError(f"{self.op_name} needs at least one proper term")
        # Coerce Python constants using the sort of the other side.
        if left_term is None:
            left_term = as_term(left, right_term.sort)
        if right_term is None:
            right_term = as_term(right, left_term.sort)
        self.left = left_term
        self.right = right_term
        self._check_sorts()

    def _check_sorts(self) -> None:
        if self.left.sort != self.right.sort:
            raise TypeError(
                f"{self.op_name} requires equal sorts, got "
                f"{self.left.sort.name} and {self.right.sort.name}"
            )

    def terms(self) -> Tuple[Term, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"{self.op_name}({self.left!r}, {self.right!r})"


class Eq(_BinaryTermAtom):
    """Equality of two terms of the same sort (bitwise for structs)."""

    op_name = "Eq"


class _EnumTermAtom(_BinaryTermAtom):
    def _check_sorts(self) -> None:
        super()._check_sorts()
        if not isinstance(self.left.sort, EnumSort):
            raise TypeError(f"{self.op_name} is only defined on enum sorts")


class Le(_EnumTermAtom):
    """``left <= right`` on enum-sorted terms."""

    op_name = "Le"


class Lt(_EnumTermAtom):
    """``left < right`` on enum-sorted terms."""

    op_name = "Lt"


class Succ(_EnumTermAtom):
    """``right = left + 1`` on enum-sorted terms."""

    op_name = "Succ"


class Not(Formula):
    """Negation."""

    def __init__(self, body: Any) -> None:
        self.body = coerce(body)

    def children(self) -> Tuple[Formula, ...]:
        return (self.body,)

    def __repr__(self) -> str:
        return f"Not({self.body!r})"


class _Nary(Formula):
    symbol = "?"

    def __init__(self, *parts: Any) -> None:
        flat: List[Formula] = []
        for part in parts:
            part = coerce(part)
            if isinstance(part, type(self)):
                flat.extend(part.parts)
            else:
                flat.append(part)
        self.parts: Tuple[Formula, ...] = tuple(flat)

    def children(self) -> Tuple[Formula, ...]:
        return self.parts

    def __repr__(self) -> str:
        return f"({f' {self.symbol} '.join(map(repr, self.parts))})"


class And(_Nary):
    """Conjunction of zero or more formulas (empty conjunction is TRUE)."""

    symbol = "&"


class Or(_Nary):
    """Disjunction of zero or more formulas (empty disjunction is FALSE)."""

    symbol = "|"


class Implies(Formula):
    """Implication."""

    def __init__(self, antecedent: Any, consequent: Any) -> None:
        self.antecedent = coerce(antecedent)
        self.consequent = coerce(consequent)

    def children(self) -> Tuple[Formula, ...]:
        return (self.antecedent, self.consequent)

    def __repr__(self) -> str:
        return f"({self.antecedent!r} -> {self.consequent!r})"


class Iff(Formula):
    """Biconditional."""

    def __init__(self, left: Any, right: Any) -> None:
        self.left = coerce(left)
        self.right = coerce(right)

    def children(self) -> Tuple[Formula, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} <-> {self.right!r})"


class _Quantifier(Formula):
    word = "?"

    def __init__(self, variables: Sequence[Var] | Var, body: Any) -> None:
        if isinstance(variables, Var):
            variables = [variables]
        variables = list(variables)
        if not variables:
            raise ValueError(f"{self.word} needs at least one variable")
        for var in variables:
            if not isinstance(var, Var):
                raise TypeError(f"{self.word} binds Var objects, got {var!r}")
        names = [var.__dict__["name"] for var in variables]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.word} binds a variable twice: {names}")
        self.variables: Tuple[Var, ...] = tuple(variables)
        self.body = coerce(body)

    def children(self) -> Tuple[Formula, ...]:
        return (self.body,)

    def __repr__(self) -> str:
        names = ", ".join(var.__dict__["name"] for var in self.variables)
        return f"({self.word} {names}. {self.body!r})"


class Exists(_Quantifier):
    """Existential quantification over typed variables."""

    word = "exists"


class Forall(_Quantifier):
    """Universal quantification over typed variables."""

    word = "forall"


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------
def free_vars(formula: Formula) -> Dict[str, Var]:
    """The free typed variables of a formula, keyed by name."""
    result: Dict[str, Var] = {}

    def walk(node: Formula, bound: Set[str]) -> None:
        for term in node.terms():
            root = term.root_var()
            if root is not None and root.__dict__["name"] not in bound:
                _record(result, root)
        if isinstance(node, _Quantifier):
            inner = bound | {var.__dict__["name"] for var in node.variables}
            walk(node.body, inner)
        else:
            for child in node.children():
                walk(child, bound)

    walk(formula, set())
    return result


def all_vars(formula: Formula) -> Dict[str, Var]:
    """All typed variables of a formula (free and bound), keyed by name."""
    result: Dict[str, Var] = {}

    def walk(node: Formula) -> None:
        for term in node.terms():
            root = term.root_var()
            if root is not None:
                _record(result, root)
        if isinstance(node, _Quantifier):
            for var in node.variables:
                _record(result, var)
        for child in node.children():
            walk(child)

    walk(formula)
    return result


def _record(result: Dict[str, Var], var: Var) -> None:
    name = var.__dict__["name"]
    existing = result.get(name)
    if existing is not None and existing.sort != var.sort:
        raise TypeError(
            f"variable {name!r} used with two different sorts "
            f"({existing.sort.name} and {var.sort.name})"
        )
    result[name] = var


def relations_of(formula: Formula) -> Set[str]:
    """Names of all relations applied anywhere inside the formula."""
    result: Set[str] = set()

    def walk(node: Formula) -> None:
        if isinstance(node, RelApp):
            result.add(node.decl.name)
        for child in node.children():
            walk(child)

    walk(formula)
    return result
