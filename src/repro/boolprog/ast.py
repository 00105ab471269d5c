"""Abstract syntax of recursive Boolean programs (Section 2 of the paper).

A program is a list of global variable declarations followed by procedures;
every variable ranges over the Booleans, expressions may be nondeterministic
(``*``), procedures take call-by-value parameters and may return multiple
values.  The syntax here also includes the small extensions needed by the
benchmark suites: labels, ``goto``, ``assert`` and ``assume``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "Expr",
    "Lit",
    "Nondet",
    "VarRef",
    "NotE",
    "BinOp",
    "Stmt",
    "Skip",
    "Assign",
    "CallAssign",
    "Call",
    "Return",
    "If",
    "While",
    "Goto",
    "Assert",
    "Assume",
    "Procedure",
    "Program",
]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
class Expr:
    """Base class of Boolean expressions."""

    def variables(self) -> set:
        """Names of the program variables read by this expression."""
        raise NotImplementedError


@dataclass(frozen=True)
class Lit(Expr):
    """A Boolean literal (``T`` or ``F``)."""

    value: bool

    def variables(self) -> set:
        return set()

    def __str__(self) -> str:
        return "T" if self.value else "F"


@dataclass(frozen=True)
class Nondet(Expr):
    """The nondeterministic expression ``*``."""

    def variables(self) -> set:
        return set()

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class VarRef(Expr):
    """A reference to a global, local or formal-parameter variable."""

    name: str

    def variables(self) -> set:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class NotE(Expr):
    """Negation."""

    operand: Expr

    def variables(self) -> set:
        return self.operand.variables()

    def __str__(self) -> str:
        return f"!{self.operand}"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary Boolean operation: ``&``, ``|``, ``^``, ``==`` or ``!=``."""

    op: str
    left: Expr
    right: Expr

    OPS = ("&", "|", "^", "==", "!=")

    def __post_init__(self) -> None:
        if self.op not in self.OPS:
            raise ValueError(f"unknown operator {self.op!r}")

    def variables(self) -> set:
        return self.left.variables() | self.right.variables()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------
class Stmt:
    """Base class of statements.  Every statement may carry a label."""

    label: Optional[str] = None


@dataclass
class Skip(Stmt):
    """``skip;``"""

    label: Optional[str] = None


@dataclass
class Assign(Stmt):
    """Simultaneous assignment ``x1, ..., xm := e1, ..., em;``"""

    targets: List[str]
    values: List[Expr]
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.targets) != len(self.values):
            raise ValueError("assignment arity mismatch")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("assignment targets must be distinct")


@dataclass
class CallAssign(Stmt):
    """Call with return values: ``x1, ..., xk := f(e1, ..., eh);``"""

    targets: List[str]
    callee: str
    args: List[Expr]
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("call targets must be distinct")


@dataclass
class Call(Stmt):
    """Plain call ``call f(e1, ..., eh);`` (no return values)."""

    callee: str
    args: List[Expr]
    label: Optional[str] = None


@dataclass
class Return(Stmt):
    """``return;`` or ``return e1, ..., ek;``"""

    values: List[Expr]
    label: Optional[str] = None


@dataclass
class If(Stmt):
    """``if (e) then ... else ... fi`` (else branch optional)."""

    condition: Expr
    then_branch: List[Stmt]
    else_branch: List[Stmt]
    label: Optional[str] = None


@dataclass
class While(Stmt):
    """``while (e) do ... od``"""

    condition: Expr
    body: List[Stmt]
    label: Optional[str] = None


@dataclass
class Goto(Stmt):
    """``goto L;``"""

    target: str
    label: Optional[str] = None


@dataclass
class Assert(Stmt):
    """``assert(e);`` — violating the assertion reaches the error location."""

    condition: Expr
    label: Optional[str] = None


@dataclass
class Assume(Stmt):
    """``assume(e);`` — execution continues only when ``e`` holds."""

    condition: Expr
    label: Optional[str] = None


# ---------------------------------------------------------------------------
# Procedures and programs
# ---------------------------------------------------------------------------
@dataclass
class Procedure:
    """A procedure ``f(params) begin decl locals; body end``.

    ``num_returns`` is the number of values every ``return`` in the body must
    produce (0 when the procedure returns nothing).
    """

    name: str
    params: List[str]
    locals: List[str]
    body: List[Stmt]
    num_returns: int = 0

    def all_locals(self) -> List[str]:
        """Formal parameters followed by declared locals (no return slots)."""
        return list(self.params) + list(self.locals)


@dataclass
class Program:
    """A sequential recursive Boolean program."""

    globals: List[str]
    procedures: Dict[str, Procedure]
    main: str = "main"
    name: str = "program"

    def procedure(self, name: str) -> Procedure:
        """Look up a procedure by name."""
        try:
            return self.procedures[name]
        except KeyError:
            raise KeyError(f"program has no procedure {name!r}") from None
