"""Explicit-state building blocks shared by the baseline engines.

The explicit engines (the BEBOP-style summary solver and the MOPED-style
pushdown saturation) work with concrete valuations:

* a *global valuation* is a tuple of Booleans in the order of
  ``program.globals``;
* a *local valuation* of a procedure is a tuple of Booleans over that
  procedure's local slots (parameters, locals, return registers) in slot
  order.

Expression evaluation returns the **set** of possible Boolean values, because
the ``*`` expression may yield either; assignments therefore produce a set of
successor valuations.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, Set, Tuple

from ..boolprog.ast import BinOp, Expr, Lit, Nondet, NotE, VarRef
from ..boolprog.cfg import CallEdge, InternalEdge, ProgramCfg

__all__ = [
    "GlobalVal",
    "LocalVal",
    "ExplicitContext",
    "eval_expr",
]

GlobalVal = Tuple[bool, ...]
LocalVal = Tuple[bool, ...]


class ExplicitContext:
    """Variable lookup and successor computation for one program."""

    def __init__(self, cfg: ProgramCfg) -> None:
        self.cfg = cfg
        self.program = cfg.program
        self.global_index: Dict[str, int] = {
            name: index for index, name in enumerate(self.program.globals)
        }

    # -- valuations ------------------------------------------------------
    def initial_globals(self, init: Dict[str, bool] | None = None) -> GlobalVal:
        """All-False globals, overridden by an optional ``init`` mapping."""
        init = init or {}
        return tuple(bool(init.get(name, False)) for name in self.program.globals)

    def initial_locals(self, procedure: str) -> LocalVal:
        """All-False locals of a procedure."""
        return tuple(False for _ in self.cfg.procedure_cfg(procedure).slot_of)

    def slot(self, procedure: str, name: str) -> int:
        """Slot index of a local variable of a procedure."""
        return self.cfg.procedure_cfg(procedure).slot_of[name]

    def lookup(self, procedure: str, name: str, locals_: LocalVal, globals_: GlobalVal) -> bool:
        """Value of a variable in the given valuations."""
        slots = self.cfg.procedure_cfg(procedure).slot_of
        if name in slots:
            return locals_[slots[name]]
        return globals_[self.global_index[name]]

    # -- successor computation -------------------------------------------
    def internal_successors(
        self,
        procedure: str,
        edge: InternalEdge,
        locals_: LocalVal,
        globals_: GlobalVal,
    ) -> Iterator[Tuple[LocalVal, GlobalVal]]:
        """Successor valuations of one guarded simultaneous assignment."""
        guard_values = (
            eval_expr(edge.guard, self, procedure, locals_, globals_)
            if edge.guard is not None
            else {True}
        )
        if True not in guard_values:
            return
        if not edge.assigns:
            yield locals_, globals_
            return
        names = list(edge.assigns)
        value_sets = [
            eval_expr(edge.assigns[name], self, procedure, locals_, globals_) for name in names
        ]
        slots = self.cfg.procedure_cfg(procedure).slot_of
        for combo in product(*value_sets):
            new_locals = list(locals_)
            new_globals = list(globals_)
            for name, value in zip(names, combo):
                if name in slots:
                    new_locals[slots[name]] = value
                else:
                    new_globals[self.global_index[name]] = value
            yield tuple(new_locals), tuple(new_globals)

    def call_entry_locals(
        self,
        caller: str,
        edge: CallEdge,
        locals_: LocalVal,
        globals_: GlobalVal,
    ) -> Iterator[LocalVal]:
        """Possible initial local valuations of the callee for one call."""
        callee_cfg = self.cfg.procedure_cfg(edge.callee)
        callee = self.program.procedure(edge.callee)
        value_sets = [
            eval_expr(argument, self, caller, locals_, globals_) for argument in edge.args
        ]
        base = [False] * len(callee_cfg.slot_of)
        for combo in product(*value_sets):
            entry = list(base)
            for param, value in zip(callee.params, combo):
                entry[callee_cfg.slot_of[param]] = value
            yield tuple(entry)

    def apply_return(
        self,
        caller: str,
        edge: CallEdge,
        caller_locals: LocalVal,
        exit_locals: LocalVal,
        exit_globals: GlobalVal,
    ) -> Tuple[LocalVal, GlobalVal]:
        """Caller valuation after returning from ``edge`` with the given exit state."""
        callee_cfg = self.cfg.procedure_cfg(edge.callee)
        caller_slots = self.cfg.procedure_cfg(caller).slot_of
        new_locals = list(caller_locals)
        new_globals = list(exit_globals)
        for index, target in enumerate(edge.targets):
            value = exit_locals[callee_cfg.slot_of[f"__ret{index}"]]
            if target in caller_slots:
                new_locals[caller_slots[target]] = value
            else:
                new_globals[self.global_index[target]] = value
        return tuple(new_locals), tuple(new_globals)


def eval_expr(
    expression: Expr,
    context: ExplicitContext,
    procedure: str,
    locals_: LocalVal,
    globals_: GlobalVal,
) -> Set[bool]:
    """The set of possible values of an expression (``*`` yields both)."""
    if isinstance(expression, Lit):
        return {expression.value}
    if isinstance(expression, Nondet):
        return {False, True}
    if isinstance(expression, VarRef):
        return {context.lookup(procedure, expression.name, locals_, globals_)}
    if isinstance(expression, NotE):
        return {not value for value in eval_expr(expression.operand, context, procedure, locals_, globals_)}
    if isinstance(expression, BinOp):
        lefts = eval_expr(expression.left, context, procedure, locals_, globals_)
        rights = eval_expr(expression.right, context, procedure, locals_, globals_)
        results = set()
        for left in lefts:
            for right in rights:
                if expression.op == "&":
                    results.add(left and right)
                elif expression.op == "|":
                    results.add(left or right)
                elif expression.op == "^" or expression.op == "!=":
                    results.add(left != right)
                elif expression.op == "==":
                    results.add(left == right)
                else:
                    raise ValueError(f"unknown operator {expression.op!r}")
        return results
    raise TypeError(f"cannot evaluate expression {expression!r}")
