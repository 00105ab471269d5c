"""Compilation of Boolean-program expressions into BDDs over state bits.

An expression is evaluated over a particular *state copy* (a typed variable of
the state sort, such as the encoder's canonical ``x``): program variables
resolve either to a global field or to the local slot assigned to them by the
enclosing module.  Each occurrence of the nondeterministic expression ``*``
turns into a fresh *choice bit*; the caller existentially quantifies the
choice bits once the full edge constraint has been assembled.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..bdd import BddManager
from ..boolprog.ast import BinOp, Expr, Lit, Nondet, NotE, VarRef
from ..fixedpoint import Var
from .statespace import StateSpace

__all__ = ["ChoicePool", "VariableResolver", "compile_expr"]


class ChoicePool:
    """A pool of auxiliary BDD bits used to model nondeterministic choices."""

    PREFIX = "__choice"

    def __init__(self, manager: BddManager) -> None:
        self._manager = manager
        self._allocated: List[str] = []
        self._active: List[str] = []

    def fresh(self) -> str:
        """Return a choice bit unused in the current edge."""
        index = len(self._active)
        if index == len(self._allocated):
            name = f"{self.PREFIX}{index}"
            if not self._manager.has_var(name):
                self._manager.add_var(name)
            self._allocated.append(name)
        name = self._allocated[index]
        self._active.append(name)
        return name

    def active(self) -> List[str]:
        """Choice bits handed out since the last :meth:`reset`."""
        return list(self._active)

    def reset(self) -> None:
        """Start a new edge: previously handed-out bits become reusable."""
        self._active = []

    def quantify(self, node: int) -> int:
        """Existentially quantify the active choice bits out of ``node``."""
        active = self.active()
        if not active:
            return node
        return self._manager.exists(node, active)


class VariableResolver:
    """Maps program variable names to state bits for one module.

    ``global_map`` maps a source-level global name to the field name used in
    the globals struct (identical for sequential programs; prefixed with the
    thread name for thread-private globals of concurrent programs).
    ``slot_of`` is the module's local-slot map from the CFG.
    """

    def __init__(
        self,
        space: StateSpace,
        slot_of: Dict[str, int],
        global_map: Optional[Dict[str, str]] = None,
    ) -> None:
        self._space = space
        self._slot_of = dict(slot_of)
        if global_map is None:
            global_map = {name: name for name in space.global_names}
        self._global_map = dict(global_map)

    def is_global(self, name: str) -> bool:
        """True iff the name denotes a global variable in this module."""
        return name in self._global_map and name not in self._slot_of

    def bit_name(self, state: Var, name: str) -> str:
        """The BDD bit carrying ``name`` in the given state copy."""
        if name in self._slot_of:
            field = self._space.local_field(self._slot_of[name])
            return f"{state.__dict__['name']}.L.{field}"
        if name in self._global_map:
            field = self._global_map[name]
            return f"{state.__dict__['name']}.G.{field}"
        raise KeyError(f"variable {name!r} is neither a local slot nor a global")

    def global_fields(self) -> List[str]:
        """All globals-struct field names."""
        return self._space.globals_sort.field_names()


def compile_expr(
    expression: Expr,
    state: Var,
    resolver: VariableResolver,
    manager: BddManager,
    choices: ChoicePool,
) -> int:
    """Compile an expression into a BDD over the bits of ``state``.

    Occurrences of ``*`` draw fresh bits from ``choices``; the caller is
    responsible for quantifying them over the complete edge constraint.
    """
    if isinstance(expression, Lit):
        return manager.TRUE if expression.value else manager.FALSE
    if isinstance(expression, Nondet):
        return manager.var(choices.fresh())
    if isinstance(expression, VarRef):
        return manager.var(resolver.bit_name(state, expression.name))
    if isinstance(expression, NotE):
        return manager.not_(compile_expr(expression.operand, state, resolver, manager, choices))
    if isinstance(expression, BinOp):
        left = compile_expr(expression.left, state, resolver, manager, choices)
        right = compile_expr(expression.right, state, resolver, manager, choices)
        if expression.op == "&":
            return manager.and_(left, right)
        if expression.op == "|":
            return manager.or_(left, right)
        if expression.op == "^":
            return manager.xor(left, right)
        if expression.op == "==":
            return manager.iff(left, right)
        if expression.op == "!=":
            return manager.xor(left, right)
        raise ValueError(f"unknown operator {expression.op!r}")
    raise TypeError(f"cannot compile expression {expression!r}")
