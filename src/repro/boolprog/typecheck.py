"""Static checks for Boolean programs.

The checks mirror the "obvious restrictions" of Section 2 of the paper:
globals and locals are disjoint, formal parameters are locals, bodies only
mention declared variables, return statements agree with the procedure's
return arity, calls match the callee's signature, and ``main`` exists, takes
no parameters and is never called.
"""

from __future__ import annotations

from typing import List, Set

from .ast import (
    Assert,
    Assign,
    Assume,
    Call,
    CallAssign,
    Expr,
    Goto,
    If,
    Procedure,
    Program,
    Return,
    Skip,
    Stmt,
    While,
)
from .concurrent import ConcurrentProgram
from .errors import StaticError

__all__ = ["check_program", "check_concurrent_program"]


def check_program(program: Program) -> None:
    """Validate a sequential program; raise :class:`StaticError` on problems."""
    errors: List[str] = []
    global_set = set(program.globals)
    if len(global_set) != len(program.globals):
        errors.append("duplicate global variable declarations")
    if program.main not in program.procedures:
        errors.append(f"program has no {program.main!r} procedure")
    else:
        main = program.procedures[program.main]
        if main.params:
            errors.append(f"{program.main!r} must not take parameters")
    for procedure in program.procedures.values():
        errors.extend(_check_procedure(program, procedure, global_set))
    if errors:
        raise StaticError("; ".join(errors))


def check_concurrent_program(program: ConcurrentProgram) -> None:
    """Validate a concurrent program thread by thread."""
    errors: List[str] = []
    if len(set(program.shared)) != len(program.shared):
        errors.append("duplicate shared variable declarations")
    unknown_init = set(program.init) - set(program.shared)
    if unknown_init:
        errors.append(f"init mentions non-shared variables {sorted(unknown_init)}")
    for thread in program.threads:
        shared_plus_private = list(program.shared) + list(thread.program.globals)
        widened = Program(
            globals=shared_plus_private,
            procedures=thread.program.procedures,
            main=thread.program.main,
            name=thread.program.name,
        )
        try:
            check_program(widened)
        except StaticError as error:
            errors.append(f"thread {thread.name!r}: {error}")
    if errors:
        raise StaticError("; ".join(errors))


def _check_procedure(program: Program, procedure: Procedure, global_set: Set[str]) -> List[str]:
    errors: List[str] = []
    prefix = f"procedure {procedure.name!r}"
    locals_ = procedure.all_locals()
    local_set = set(locals_)
    if len(local_set) != len(locals_):
        errors.append(f"{prefix}: duplicate local/parameter declarations")
    shadowed = local_set & global_set
    if shadowed:
        errors.append(f"{prefix}: locals shadow globals {sorted(shadowed)}")
    visible = local_set | global_set
    labels: Set[str] = set()
    label_targets: Set[str] = set()

    def check_expr(expression: Expr, where: str) -> None:
        unknown = expression.variables() - visible
        if unknown:
            errors.append(f"{prefix}: {where} uses undeclared variables {sorted(unknown)}")

    def check_call(callee_name: str, args: List[Expr], targets: List[str], is_plain: bool) -> None:
        if callee_name == program.main:
            errors.append(f"{prefix}: calls {program.main!r}, which is not allowed")
        callee = program.procedures.get(callee_name)
        if callee is None:
            errors.append(f"{prefix}: calls unknown procedure {callee_name!r}")
            return
        if len(args) != len(callee.params):
            errors.append(
                f"{prefix}: call to {callee_name!r} passes {len(args)} arguments, "
                f"expected {len(callee.params)}"
            )
        if is_plain:
            if callee.num_returns != 0:
                errors.append(
                    f"{prefix}: 'call {callee_name}' discards {callee.num_returns} return values"
                )
        elif len(targets) != callee.num_returns:
            errors.append(
                f"{prefix}: call to {callee_name!r} assigns {len(targets)} values, "
                f"the procedure returns {callee.num_returns}"
            )
        for expression in args:
            check_expr(expression, f"call to {callee_name!r}")

    def check_targets(targets: List[str], where: str) -> None:
        unknown = set(targets) - visible
        if unknown:
            errors.append(f"{prefix}: {where} assigns undeclared variables {sorted(unknown)}")

    def walk(statements: List[Stmt]) -> None:
        for statement in statements:
            if statement.label is not None:
                if statement.label in labels:
                    errors.append(f"{prefix}: duplicate label {statement.label!r}")
                labels.add(statement.label)
            if isinstance(statement, Skip):
                continue
            if isinstance(statement, Assign):
                check_targets(statement.targets, "assignment")
                for expression in statement.values:
                    check_expr(expression, "assignment")
            elif isinstance(statement, CallAssign):
                check_targets(statement.targets, "call assignment")
                check_call(statement.callee, statement.args, statement.targets, is_plain=False)
            elif isinstance(statement, Call):
                check_call(statement.callee, statement.args, [], is_plain=True)
            elif isinstance(statement, Return):
                if len(statement.values) != procedure.num_returns:
                    errors.append(
                        f"{prefix}: return with {len(statement.values)} values, "
                        f"procedure returns {procedure.num_returns}"
                    )
                for expression in statement.values:
                    check_expr(expression, "return")
            elif isinstance(statement, (Assert, Assume)):
                check_expr(statement.condition, type(statement).__name__.lower())
            elif isinstance(statement, Goto):
                label_targets.add(statement.target)
            elif isinstance(statement, If):
                check_expr(statement.condition, "if condition")
                walk(statement.then_branch)
                walk(statement.else_branch)
            elif isinstance(statement, While):
                check_expr(statement.condition, "while condition")
                walk(statement.body)
            else:
                errors.append(f"{prefix}: unknown statement {statement!r}")

    walk(procedure.body)
    missing = label_targets - labels
    if missing:
        errors.append(f"{prefix}: goto targets {sorted(missing)} are not defined")
    return errors
