"""Static dataflow passes over Boolean programs (pre-analysis, PR 9).

The fixed-point engines pay for every variable the encoder declares — each
global or local slot is a BDD level in every frame constraint — and for every
program location the Kleene iteration revisits.  The passes here shrink the
program *before* encoding, as a source-to-source ``Program -> Program``
rewrite, the way the Bebop/Moped frontends did:

* :func:`fold_constants` — constant propagation with ``assume``/``assert``
  condition strengthening.  A greatest-fixpoint finds variables that are
  constantly ``False`` (every variable starts ``False``; a variable stays
  in the set while every write to it is provably ``False``), a local
  flow-sensitive pass tracks literal values through straight-line code, and
  every read of a known variable is replaced by its literal.  Expressions
  are algebraically folded throughout.
* :func:`eliminate_dead` — interprocedural live-variable analysis.  The
  verdict of a reachability query depends only on control flow, so the
  *relevant* variables are the backward closure of the branch/``assume``/
  ``assert`` condition variables under assignment, parameter and
  return-value dependency edges.  Everything else is deleted: declarations,
  dead parameters (and the matching arguments at every call site), dead
  return indexes (and the matching call-assignment targets), and every
  write to a dead variable.  A flow-sensitive dead-store elimination then
  drops writes that are re-written before any read.
* :func:`prune_branches` — removes statically decided branches
  (``if (T)``, ``while (F)``) and code made unreachable by
  ``assume(F)``/``return``/``goto``.
* :func:`slice_to_targets` — target-directed slicing: given the query's
  target specs, deletes statements and regions from which no execution can
  reach any target.
* :func:`prune_unreachable` — drops procedures not transitively callable
  from ``main``.

:func:`optimize` composes them, returning the rewritten program and a
:class:`PassReport`.  The first two passes are *pc-stable*: the CFG assigns
program counters by statement structure only (one pc per simple statement,
independent of assignment or call arity), so replacing a dead assignment by
``skip`` or rewriting an expression never renumbers locations and numeric
``(module, pc)`` targets stay valid.  The last three are *structural* —
they renumber pcs and module indexes — so they only run at level 2, and
callers holding numeric targets must cap the level at 1 (see
:attr:`PassReport.pc_stable`).

Soundness invariants shared by every pass:

* labelled statements, ``assert``, ``return`` and ``goto`` statements are
  never deleted (labels are ``goto`` and query targets; asserts define the
  error locations; ``return``/``goto`` redirect control);
* deleting a statement may only *add* executions that fall through to its
  continuation, so statements are deleted only when their continuation
  provably cannot reach a target;
* ``main`` is always kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..boolprog.ast import (
    Assert,
    Assign,
    Assume,
    BinOp,
    Call,
    CallAssign,
    Expr,
    Goto,
    If,
    Lit,
    Nondet,
    NotE,
    Procedure,
    Program,
    Return,
    Skip,
    Stmt,
    VarRef,
    While,
)
from ..boolprog.cfg import RETURN_SLOT_PREFIX
from ..boolprog.typecheck import check_program

__all__ = [
    "PassReport",
    "optimize",
    "fold_constants",
    "eliminate_dead",
    "prune_branches",
    "slice_to_targets",
    "prune_unreachable",
    "fold_expr",
    "normalise_slice_targets",
]

#: A variable key: ``("", name)`` for globals, ``(proc, name)`` for locals,
#: parameters and the synthetic ``__ret<i>`` return slots of a procedure.
VarKey = Tuple[str, str]


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------
@dataclass
class PassReport:
    """What the pass pipeline did to one program (carried into results)."""

    level: int = 0
    rounds: int = 0
    #: ``proc:name`` / ``name`` labels of deleted locals and globals.
    variables_removed: List[str] = field(default_factory=list)
    statements_deleted: int = 0
    #: Dead pairs dropped from (call-)assignments without deleting the
    #: statement (pc-stable).
    assignments_dropped: int = 0
    #: Expressions rewritten by folding/substitution, plus ``assume(T)``
    #: statements relaxed to ``skip``.
    statements_simplified: int = 0
    branches_pruned: int = 0
    procedures_dropped: List[str] = field(default_factory=list)
    #: The target specs the program was sliced for (``None``: not sliced).
    sliced_for: Optional[Tuple[str, ...]] = None
    #: Number of changes made by structural (pc-renumbering) passes; numeric
    #: ``(module, pc)`` targets resolved against the raw program are only
    #: valid while this is 0.
    structural_changes: int = 0
    #: Set when the pipeline crashed and the caller fell back to the raw
    #: program (the exception's repr).
    failed: Optional[str] = None

    @property
    def pc_stable(self) -> bool:
        return self.structural_changes == 0

    def changes(self) -> int:
        """Total rewrite count (the driver's fixpoint metric)."""
        return (
            len(self.variables_removed)
            + self.statements_deleted
            + self.assignments_dropped
            + self.statements_simplified
            + self.branches_pruned
            + len(self.procedures_dropped)
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "rounds": self.rounds,
            "variables_removed": list(self.variables_removed),
            "statements_deleted": self.statements_deleted,
            "assignments_dropped": self.assignments_dropped,
            "statements_simplified": self.statements_simplified,
            "branches_pruned": self.branches_pruned,
            "procedures_dropped": list(self.procedures_dropped),
            "sliced_for": list(self.sliced_for) if self.sliced_for else None,
            "pc_stable": self.pc_stable,
            "failed": self.failed,
        }


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
def _local_names(procedure: Procedure) -> Set[str]:
    return set(procedure.all_locals())


def _key(program: Program, proc: Procedure, name: str) -> VarKey:
    if name in _local_names(proc):
        return (proc.name, name)
    return ("", name)


def _ret_key(proc_name: str, index: int) -> VarKey:
    return (proc_name, f"{RETURN_SLOT_PREFIX}{index}")


def _walk_statements(statements: Iterable[Stmt]) -> Iterable[Stmt]:
    """Every statement in a block, depth first."""
    for statement in statements:
        yield statement
        if isinstance(statement, If):
            yield from _walk_statements(statement.then_branch)
            yield from _walk_statements(statement.else_branch)
        elif isinstance(statement, While):
            yield from _walk_statements(statement.body)


def _contains(statements: Sequence[Stmt], kinds: tuple) -> bool:
    return any(isinstance(s, kinds) for s in _walk_statements(statements))


def _has_label(statements: Sequence[Stmt]) -> bool:
    return any(s.label is not None for s in _walk_statements(statements))


def _deletable(statement: Stmt) -> bool:
    """May ``statement`` be deleted outright?

    Labels are goto/query targets, asserts define error locations, and
    ``return``/``goto`` redirect control — all must survive every pass.
    """
    return not _has_label([statement]) and not _contains(
        [statement], (Assert, Return, Goto)
    )


def _expr_deterministic(expression: Expr) -> bool:
    if isinstance(expression, Nondet):
        return False
    if isinstance(expression, NotE):
        return _expr_deterministic(expression.operand)
    if isinstance(expression, BinOp):
        return _expr_deterministic(expression.left) and _expr_deterministic(
            expression.right
        )
    return True


def fold_expr(expression: Expr) -> Expr:
    """Algebraically simplify one expression (bottom-up, semantics-exact).

    Identical-subtree rules (``e & e -> e`` ...) apply only to deterministic
    subtrees: two occurrences of ``*`` may evaluate differently.
    """
    if isinstance(expression, NotE):
        operand = fold_expr(expression.operand)
        if isinstance(operand, Lit):
            return Lit(not operand.value)
        if isinstance(operand, NotE):
            return operand.operand
        return NotE(operand) if operand is not expression.operand else expression
    if not isinstance(expression, BinOp):
        return expression
    left = fold_expr(expression.left)
    right = fold_expr(expression.right)
    op = expression.op
    if isinstance(left, Lit) and isinstance(right, Lit):
        return Lit(_apply_op(op, left.value, right.value))
    for lit, other in ((left, right), (right, left)):
        if not isinstance(lit, Lit):
            continue
        if op == "&":
            return other if lit.value else Lit(False)
        if op == "|":
            return Lit(True) if lit.value else other
        if op in ("^", "!="):
            return fold_expr(NotE(other)) if lit.value else other
        if op == "==":
            return other if lit.value else fold_expr(NotE(other))
    if left == right and _expr_deterministic(left):
        if op in ("&", "|"):
            return left
        if op in ("^", "!="):
            return Lit(False)
        if op == "==":
            return Lit(True)
    if left is expression.left and right is expression.right:
        return expression
    return BinOp(op, left, right)


def _apply_op(op: str, left: bool, right: bool) -> bool:
    if op == "&":
        return left and right
    if op == "|":
        return left or right
    if op in ("^", "!="):
        return left != right
    if op == "==":
        return left == right
    raise ValueError(f"unknown operator {op!r}")


def _eval3(
    expression: Expr, proc: Procedure, program: Program, const_false: Set[VarKey]
) -> Optional[bool]:
    """Three-valued evaluation under "these variables are constantly F"."""
    if isinstance(expression, Lit):
        return expression.value
    if isinstance(expression, Nondet):
        return None
    if isinstance(expression, VarRef):
        if _key(program, proc, expression.name) in const_false:
            return False
        return None
    if isinstance(expression, NotE):
        value = _eval3(expression.operand, proc, program, const_false)
        return None if value is None else not value
    if isinstance(expression, BinOp):
        left = _eval3(expression.left, proc, program, const_false)
        right = _eval3(expression.right, proc, program, const_false)
        op = expression.op
        if op == "&":
            if left is False or right is False:
                return False
            if left is True and right is True:
                return True
            return None
        if op == "|":
            if left is True or right is True:
                return True
            if left is False and right is False:
                return False
            return None
        if left is None or right is None:
            return None
        return _apply_op(op, left, right)
    raise ValueError(f"cannot evaluate {expression!r}")


def call_closure(program: Program, roots: Optional[Iterable[str]] = None) -> Set[str]:
    """Procedure names transitively callable from ``roots`` (default: main)."""
    seen: Set[str] = set()
    frontier = [program.main] if roots is None else list(roots)
    while frontier:
        name = frontier.pop()
        if name in seen or name not in program.procedures:
            continue
        seen.add(name)
        for statement in _walk_statements(program.procedures[name].body):
            if isinstance(statement, (Call, CallAssign)):
                frontier.append(statement.callee)
    return seen


# ---------------------------------------------------------------------------
# Pass 1: constant propagation / assume-aware folding (pc-stable)
# ---------------------------------------------------------------------------
def constant_false_keys(program: Program) -> Set[VarKey]:
    """Greatest fixpoint of "this variable is constantly False".

    Every variable (and return slot) starts ``False``; a key stays in the
    set while every write to it provably evaluates to ``False`` under the
    current set: assignments, call-assignment targets (via the callee's
    return-slot constancy), parameters (via every call site's argument) and
    return slots (via every ``return`` statement's value).
    """
    const_false: Set[VarKey] = {("", name) for name in program.globals}
    for proc in program.procedures.values():
        for name in proc.all_locals():
            const_false.add((proc.name, name))
        for index in range(proc.num_returns):
            const_false.add(_ret_key(proc.name, index))
    changed = True
    while changed:
        changed = False

        def demote(key: VarKey) -> None:
            nonlocal changed
            if key in const_false:
                const_false.discard(key)
                changed = True

        for proc in program.procedures.values():
            for statement in _walk_statements(proc.body):
                if isinstance(statement, Assign):
                    for target, value in zip(statement.targets, statement.values):
                        if _eval3(value, proc, program, const_false) is not False:
                            demote(_key(program, proc, target))
                elif isinstance(statement, CallAssign):
                    for index, target in enumerate(statement.targets):
                        if _ret_key(statement.callee, index) not in const_false:
                            demote(_key(program, proc, target))
                elif isinstance(statement, Return):
                    for index, value in enumerate(statement.values):
                        if _eval3(value, proc, program, const_false) is not False:
                            demote(_ret_key(proc.name, index))
                if isinstance(statement, (Call, CallAssign)):
                    callee = program.procedures.get(statement.callee)
                    if callee is None:
                        continue
                    for param, argument in zip(callee.params, statement.args):
                        if _eval3(argument, proc, program, const_false) is not False:
                            demote((callee.name, param))
    return const_false


#: The flow-sensitive literal knowledge a condition establishes on its
#: true/false continuation: ``v`` / ``!v`` patterns only.
def _condition_facts(condition: Expr, holds: bool) -> Dict[str, bool]:
    if isinstance(condition, VarRef):
        return {condition.name: holds}
    if isinstance(condition, NotE) and isinstance(condition.operand, VarRef):
        return {condition.operand.name: not holds}
    return {}


class _ConstFolder:
    """Rebuilds one procedure with constant reads replaced and folded.

    ``known`` maps variable names to literal values that definitely hold at
    the current point of straight-line code; it is cleared at every point
    control may enter with unknown state (labelled statements, loop heads)
    and killed on writes and on calls (which may write any global).
    """

    def __init__(
        self, program: Program, proc: Procedure, const_false: Set[VarKey], report: PassReport
    ) -> None:
        self.program = program
        self.proc = proc
        self.const_false = const_false
        self.report = report
        self.globals = set(program.globals)

    def expr(self, expression: Expr, known: Dict[str, bool]) -> Expr:
        rewritten = self._subst(expression, known)
        folded = fold_expr(rewritten)
        if folded != expression:
            self.report.statements_simplified += 1
        return folded

    def _subst(self, expression: Expr, known: Dict[str, bool]) -> Expr:
        if isinstance(expression, VarRef):
            if _key(self.program, self.proc, expression.name) in self.const_false:
                return Lit(False)
            if expression.name in known:
                return Lit(known[expression.name])
            return expression
        if isinstance(expression, NotE):
            return NotE(self._subst(expression.operand, known))
        if isinstance(expression, BinOp):
            return BinOp(
                expression.op,
                self._subst(expression.left, known),
                self._subst(expression.right, known),
            )
        return expression

    def block(self, statements: List[Stmt], known: Dict[str, bool]) -> List[Stmt]:
        out: List[Stmt] = []
        for statement in statements:
            out.append(self.statement(statement, known))
        return out

    def _kill_call(self, known: Dict[str, bool], targets: Sequence[str] = ()) -> None:
        for name in list(known):
            if name in self.globals:
                del known[name]
        for target in targets:
            known.pop(target, None)

    def statement(self, statement: Stmt, known: Dict[str, bool]) -> Stmt:
        if statement.label is not None:
            # A goto may enter here with arbitrary state.
            known.clear()
        if isinstance(statement, Skip):
            return statement
        if isinstance(statement, Assign):
            values = [self.expr(value, known) for value in statement.values]
            for target, value in zip(statement.targets, values):
                if isinstance(value, Lit):
                    known[target] = value.value
                else:
                    known.pop(target, None)
            if values == statement.values:
                return statement
            return Assign(list(statement.targets), values, label=statement.label)
        if isinstance(statement, CallAssign):
            args = [self.expr(argument, known) for argument in statement.args]
            self._kill_call(known, statement.targets)
            if args == statement.args:
                return statement
            return CallAssign(
                list(statement.targets), statement.callee, args, label=statement.label
            )
        if isinstance(statement, Call):
            args = [self.expr(argument, known) for argument in statement.args]
            self._kill_call(known)
            if args == statement.args:
                return statement
            return Call(statement.callee, args, label=statement.label)
        if isinstance(statement, Return):
            values = [self.expr(value, known) for value in statement.values]
            known.clear()
            if values == statement.values:
                return statement
            return Return(values, label=statement.label)
        if isinstance(statement, Goto):
            known.clear()
            return statement
        if isinstance(statement, Assume):
            condition = self.expr(statement.condition, known)
            if isinstance(condition, Lit) and condition.value:
                self.report.statements_simplified += 1
                return Skip(label=statement.label)
            known.update(_condition_facts(condition, True))
            if condition == statement.condition:
                return statement
            return Assume(condition, label=statement.label)
        if isinstance(statement, Assert):
            condition = self.expr(statement.condition, known)
            # The fall-through continuation only runs when the assertion
            # held (the failing branch jumps to the error location).
            known.update(_condition_facts(condition, True))
            if condition == statement.condition:
                return statement
            return Assert(condition, label=statement.label)
        if isinstance(statement, If):
            condition = self.expr(statement.condition, known)
            known_then = dict(known)
            known_then.update(_condition_facts(condition, True))
            known_else = dict(known)
            known_else.update(_condition_facts(condition, False))
            then_branch = self.block(statement.then_branch, known_then)
            else_branch = self.block(statement.else_branch, known_else)
            known.clear()
            known.update(
                {
                    name: value
                    for name, value in known_then.items()
                    if known_else.get(name) is value
                }
            )
            if (
                condition == statement.condition
                and then_branch == statement.then_branch
                and else_branch == statement.else_branch
            ):
                return statement
            return If(condition, then_branch, else_branch, label=statement.label)
        if isinstance(statement, While):
            # The loop head joins the entry and the back edge: no carried
            # facts.  The body always follows a true evaluation of the
            # (re-checked) condition; the exit a false one.
            known.clear()
            condition = self.expr(statement.condition, known)
            body_known = _condition_facts(condition, True)
            body = self.block(statement.body, body_known)
            known.clear()
            known.update(_condition_facts(condition, False))
            if condition == statement.condition and body == statement.body:
                return statement
            return While(condition, body, label=statement.label)
        raise ValueError(f"cannot fold statement {statement!r}")


def fold_constants(program: Program, report: PassReport) -> Program:
    """Constant propagation and folding (pc-stable; see module docstring)."""
    const_false = constant_false_keys(program)
    procedures: Dict[str, Procedure] = {}
    for name, proc in program.procedures.items():
        folder = _ConstFolder(program, proc, const_false, report)
        body = folder.block(proc.body, {})
        procedures[name] = Procedure(
            name=proc.name,
            params=list(proc.params),
            locals=list(proc.locals),
            body=body,
            num_returns=proc.num_returns,
        )
    return Program(
        globals=list(program.globals),
        procedures=procedures,
        main=program.main,
        name=program.name,
    )


# ---------------------------------------------------------------------------
# Pass 2: interprocedural liveness + dead-store elimination (pc-stable)
# ---------------------------------------------------------------------------
def relevant_keys(program: Program) -> Set[VarKey]:
    """Variables that can influence control flow (backward closure).

    Seeds are the variables read by ``if``/``while``/``assume``/``assert``
    conditions; the closure follows assignment, argument->parameter and
    return-value->call-target dependency edges backwards.
    """
    relevant: Set[VarKey] = set()
    worklist: List[VarKey] = []

    def mark(key: VarKey) -> None:
        if key not in relevant:
            relevant.add(key)
            worklist.append(key)

    def mark_expr(expression: Expr, proc: Procedure) -> None:
        for name in expression.variables():
            mark(_key(program, proc, name))

    for proc in program.procedures.values():
        for statement in _walk_statements(proc.body):
            if isinstance(statement, (If, While, Assume, Assert)):
                mark_expr(statement.condition, proc)

    # Dependency edges, indexed by written key.
    deps: Dict[VarKey, List[Tuple[Procedure, Expr]]] = {}
    links: Dict[VarKey, List[VarKey]] = {}

    def add_dep(key: VarKey, proc: Procedure, expression: Expr) -> None:
        deps.setdefault(key, []).append((proc, expression))

    for proc in program.procedures.values():
        for statement in _walk_statements(proc.body):
            if isinstance(statement, Assign):
                for target, value in zip(statement.targets, statement.values):
                    add_dep(_key(program, proc, target), proc, value)
            elif isinstance(statement, Return):
                for index, value in enumerate(statement.values):
                    add_dep(_ret_key(proc.name, index), proc, value)
            if isinstance(statement, CallAssign):
                for index, target in enumerate(statement.targets):
                    target_key = _key(program, proc, target)
                    ret = _ret_key(statement.callee, index)
                    links.setdefault(target_key, []).append(ret)
                    # A live return index keeps every receiving target
                    # declared: arity forces the target slot to exist at
                    # each call site the index survives at.
                    links.setdefault(ret, []).append(target_key)
            if isinstance(statement, (Call, CallAssign)):
                callee = program.procedures.get(statement.callee)
                if callee is None:
                    continue
                for param, argument in zip(callee.params, statement.args):
                    add_dep((callee.name, param), proc, argument)

    while worklist:
        key = worklist.pop()
        for proc, expression in deps.get(key, ()):
            for name in expression.variables():
                mark(_key(program, proc, name))
        for linked in links.get(key, ()):
            mark(linked)
    return relevant


def _dse_block(
    proc: Procedure,
    globals_set: Set[str],
    statements: List[Stmt],
    overwritten: Set[str],
    report: PassReport,
) -> Tuple[List[Stmt], Set[str]]:
    """Backward dead-store elimination over one block.

    ``overwritten`` holds variables definitely re-written before any read on
    every path from the current point; a pair assigning one is dead.  Only
    runs in goto-free procedures (structured control flow).
    """
    out: List[Stmt] = []
    for statement in reversed(statements):
        statement, overwritten = _dse_stmt(
            proc, globals_set, statement, overwritten, report
        )
        out.append(statement)
    out.reverse()
    return out, overwritten


def _dse_stmt(
    proc: Procedure,
    globals_set: Set[str],
    statement: Stmt,
    overwritten: Set[str],
    report: PassReport,
) -> Tuple[Stmt, Set[str]]:
    if isinstance(statement, Assign):
        kept = [
            (target, value)
            for target, value in zip(statement.targets, statement.values)
            if target not in overwritten
        ]
        dropped = len(statement.targets) - len(kept)
        if dropped:
            report.assignments_dropped += dropped
        reads: Set[str] = set()
        for _, value in kept:
            reads |= value.variables()
        overwritten = (overwritten | {target for target, _ in kept}) - reads
        if not dropped:
            return statement, overwritten
        if not kept:
            return Skip(label=statement.label), overwritten
        return (
            Assign([t for t, _ in kept], [v for _, v in kept], label=statement.label),
            overwritten,
        )
    if isinstance(statement, (Assume, Assert)):
        return statement, overwritten - statement.condition.variables()
    if isinstance(statement, Call):
        reads = set()
        for argument in statement.args:
            reads |= argument.variables()
        return statement, (overwritten - globals_set) - reads
    if isinstance(statement, CallAssign):
        reads = set()
        for argument in statement.args:
            reads |= argument.variables()
        local_targets = {t for t in statement.targets if t not in globals_set}
        return statement, ((overwritten - globals_set) | local_targets) - reads
    if isinstance(statement, Return):
        reads = set()
        for value in statement.values:
            reads |= value.variables()
        # Control leaves the procedure: locals are dead past this point.
        return statement, set(_local_names(proc)) - reads
    if isinstance(statement, If):
        then_branch, over_then = _dse_block(
            proc, globals_set, statement.then_branch, set(overwritten), report
        )
        else_branch, over_else = _dse_block(
            proc, globals_set, statement.else_branch, set(overwritten), report
        )
        joined = (over_then & over_else) - statement.condition.variables()
        if then_branch == statement.then_branch and else_branch == statement.else_branch:
            return statement, joined
        return (
            If(statement.condition, then_branch, else_branch, label=statement.label),
            joined,
        )
    if isinstance(statement, While):
        # The back edge joins the body exit with the loop head: nothing is
        # known overwritten there, and nothing survives past the loop.
        body, _ = _dse_block(proc, globals_set, statement.body, set(), report)
        if body == statement.body:
            return statement, set()
        return While(statement.condition, body, label=statement.label), set()
    # Skip (and, defensively, anything unhandled): no effect.
    return statement, overwritten


class _DeadRewriter:
    """Rebuilds the program without dead variables (see eliminate_dead)."""

    def __init__(
        self,
        program: Program,
        relevant: Set[VarKey],
        dead_params: Dict[str, Set[int]],
        dead_returns: Dict[str, Set[int]],
        report: PassReport,
    ) -> None:
        self.program = program
        self.relevant = relevant
        self.dead_params = dead_params
        self.dead_returns = dead_returns
        self.report = report

    def _alive(self, proc: Procedure, name: str) -> bool:
        return _key(self.program, proc, name) in self.relevant

    def block(self, proc: Procedure, statements: List[Stmt]) -> List[Stmt]:
        return [self.statement(proc, statement) for statement in statements]

    def statement(self, proc: Procedure, statement: Stmt) -> Stmt:
        if isinstance(statement, Assign):
            kept = [
                (target, value)
                for target, value in zip(statement.targets, statement.values)
                if self._alive(proc, target)
            ]
            dropped = len(statement.targets) - len(kept)
            if not dropped:
                return statement
            self.report.assignments_dropped += dropped
            if not kept:
                return Skip(label=statement.label)
            return Assign(
                [t for t, _ in kept], [v for _, v in kept], label=statement.label
            )
        if isinstance(statement, CallAssign):
            dead = self.dead_returns.get(statement.callee, set())
            targets = [
                target
                for index, target in enumerate(statement.targets)
                if index not in dead
            ]
            args = self._args(statement.callee, statement.args)
            self.report.assignments_dropped += len(statement.targets) - len(targets)
            if not targets:
                return Call(statement.callee, args, label=statement.label)
            return CallAssign(targets, statement.callee, args, label=statement.label)
        if isinstance(statement, Call):
            return Call(
                statement.callee,
                self._args(statement.callee, statement.args),
                label=statement.label,
            )
        if isinstance(statement, Return):
            dead = self.dead_returns.get(proc.name, set())
            if not dead:
                return statement
            values = [
                value
                for index, value in enumerate(statement.values)
                if index not in dead
            ]
            return Return(values, label=statement.label)
        if isinstance(statement, If):
            return If(
                statement.condition,
                self.block(proc, statement.then_branch),
                self.block(proc, statement.else_branch),
                label=statement.label,
            )
        if isinstance(statement, While):
            return While(
                statement.condition, self.block(proc, statement.body), label=statement.label
            )
        return statement

    def _args(self, callee_name: str, args: Sequence[Expr]) -> List[Expr]:
        dead = self.dead_params.get(callee_name, set())
        if not dead:
            return list(args)
        return [arg for index, arg in enumerate(args) if index not in dead]


def eliminate_dead(program: Program, report: PassReport) -> Program:
    """Drop dead variables, parameters, return indexes and stores (pc-stable).

    Relevance is the flow-insensitive closure of :func:`relevant_keys`; a
    dead parameter/return index is dropped uniformly (formal list, every
    call site, every ``return``) so arities stay consistent.  A dead
    variable is never *read* in surviving code: every read position of a
    dead variable (a pair assigning a dead target, an argument for a dead
    parameter, a return value for a dead index) is itself deleted by the
    same rewrite.
    """
    relevant = relevant_keys(program)
    dead_params: Dict[str, Set[int]] = {}
    dead_returns: Dict[str, Set[int]] = {}
    for name, proc in program.procedures.items():
        dead_params[name] = {
            index
            for index, param in enumerate(proc.params)
            if (name, param) not in relevant
        }
        dead_returns[name] = {
            index
            for index in range(proc.num_returns)
            if _ret_key(name, index) not in relevant
        }
    rewriter = _DeadRewriter(program, relevant, dead_params, dead_returns, report)
    globals_kept = [name for name in program.globals if ("", name) in relevant]
    for name in program.globals:
        if ("", name) not in relevant:
            report.variables_removed.append(name)
    procedures: Dict[str, Procedure] = {}
    for name, proc in program.procedures.items():
        params = [
            param
            for index, param in enumerate(proc.params)
            if index not in dead_params[name]
        ]
        locals_kept = [local for local in proc.locals if (name, local) in relevant]
        for index in sorted(dead_params[name]):
            report.variables_removed.append(f"{name}:{proc.params[index]}")
        for local in proc.locals:
            if (name, local) not in relevant:
                report.variables_removed.append(f"{name}:{local}")
        for index in sorted(dead_returns[name]):
            report.variables_removed.append(
                f"{name}:{RETURN_SLOT_PREFIX}{index}"
            )
        body = rewriter.block(proc, proc.body)
        rebuilt = Procedure(
            name=name,
            params=params,
            locals=locals_kept,
            body=body,
            num_returns=proc.num_returns - len(dead_returns[name]),
        )
        if not _contains(rebuilt.body, (Goto,)):
            rebuilt.body, _ = _dse_block(
                rebuilt, set(globals_kept), rebuilt.body, set(), report
            )
        procedures[name] = rebuilt
    return Program(
        globals=globals_kept,
        procedures=procedures,
        main=program.main,
        name=program.name,
    )


# ---------------------------------------------------------------------------
# Pass 3: statically decided branches and unreachable code (structural)
# ---------------------------------------------------------------------------
def _stops_execution(statement: Stmt) -> bool:
    """Does control never fall through to the lexical successor?"""
    return isinstance(statement, (Return, Goto)) or (
        isinstance(statement, Assume) and statement.condition == Lit(False)
    )


def _prune_block(statements: List[Stmt], report: PassReport) -> List[Stmt]:
    flat: List[Stmt] = []
    for statement in statements:
        flat.extend(_prune_stmt(statement, report))
    out: List[Stmt] = []
    dead = False
    for statement in flat:
        if dead and _deletable(statement):
            report.statements_deleted += 1
            report.structural_changes += 1
            continue
        out.append(statement)
        if dead and _has_label([statement]):
            # A goto may re-enter here: execution is live again.
            dead = False
        if not dead:
            dead = _stops_execution(statement)
    return out


def _prune_stmt(statement: Stmt, report: PassReport) -> List[Stmt]:
    if isinstance(statement, If):
        condition = statement.condition
        if isinstance(condition, Lit):
            branch = statement.then_branch if condition.value else statement.else_branch
            dropped = (
                statement.else_branch if condition.value else statement.then_branch
            )
            if not _has_label(dropped) and not _contains(dropped, (Assert,)):
                report.branches_pruned += 1
                report.structural_changes += 1
                replacement = _prune_block(branch, report)
                if statement.label is not None:
                    replacement = [Skip(label=statement.label)] + replacement
                return replacement
        return [
            If(
                condition,
                _prune_block(statement.then_branch, report),
                _prune_block(statement.else_branch, report),
                label=statement.label,
            )
        ]
    if isinstance(statement, While):
        condition = statement.condition
        if (
            isinstance(condition, Lit)
            and not condition.value
            and not _has_label(statement.body)
            and not _contains(statement.body, (Assert,))
        ):
            report.branches_pruned += 1
            report.structural_changes += 1
            if statement.label is not None:
                return [Skip(label=statement.label)]
            return []
        return [
            While(condition, _prune_block(statement.body, report), label=statement.label)
        ]
    return [statement]


def prune_branches(program: Program, report: PassReport) -> Program:
    """Remove statically decided branches and unreachable suffixes.

    Structural: deleting statements renumbers program counters.  Dropped
    regions must carry no labels and no asserts (goto/query targets and
    error locations survive every pass).
    """
    procedures: Dict[str, Procedure] = {}
    for name, proc in program.procedures.items():
        body = _prune_block(list(proc.body), report)
        if not body:
            body = [Skip()]
        procedures[name] = Procedure(
            name=name,
            params=list(proc.params),
            locals=list(proc.locals),
            body=body,
            num_returns=proc.num_returns,
        )
    return Program(
        globals=list(program.globals),
        procedures=procedures,
        main=program.main,
        name=program.name,
    )


# ---------------------------------------------------------------------------
# Pass 4: target-directed slicing (structural)
# ---------------------------------------------------------------------------
def normalise_slice_targets(targets: object) -> Optional[Tuple[str, ...]]:
    """String target specs usable for slicing, or ``None``.

    Numeric ``(module, pc)`` specs return ``None``: they are resolved
    against the *raw* program's numbering, which structural passes break.
    """
    if targets is None:
        return None
    if isinstance(targets, str):
        return (targets,)
    try:
        items = list(targets)  # type: ignore[arg-type]
    except TypeError:
        return None
    if not items or not all(isinstance(item, str) for item in items):
        return None
    return tuple(dict.fromkeys(items))


class _Slicer:
    """Target-directed slicing (see :func:`slice_to_targets`)."""

    def __init__(self, program: Program, specs: Tuple[str, ...], report: PassReport):
        self.program = program
        self.report = report
        self.error_targeted = "error" in specs
        self.label_targets: Dict[str, Set[str]] = {}
        for spec in specs:
            if spec == "error" or ":" not in spec:
                continue
            proc, label = spec.split(":", 1)
            self.label_targets.setdefault(proc, set()).add(label)
        #: reaches[p]: can execution entering p reach a target without
        #: returning from p (directly or via callees)?
        self.reaches: Dict[str, bool] = {name: False for name in program.procedures}
        #: return_matters[p]: can execution reach a target after p returns?
        self.return_matters: Dict[str, bool] = {
            name: False for name in program.procedures
        }
        self._solve()

    # -- local hit tests -------------------------------------------------
    def _hits(self, proc_name: str, statement: Stmt) -> bool:
        """Can executing ``statement`` itself reach a target (no suffix)?

        ``goto`` counts as a hit: its continuation is its (arbitrary) label,
        not the lexical suffix the backward walk tracks.
        """
        if statement.label is not None and statement.label in self.label_targets.get(
            proc_name, ()
        ):
            return True
        if isinstance(statement, Assert) and self.error_targeted:
            return True
        if isinstance(statement, Goto):
            return True
        if isinstance(statement, (Call, CallAssign)):
            return self.reaches.get(statement.callee, True)
        if isinstance(statement, If):
            return self._any_hit(proc_name, statement.then_branch) or self._any_hit(
                proc_name, statement.else_branch
            )
        if isinstance(statement, While):
            return self._any_hit(proc_name, statement.body)
        return False

    def _any_hit(self, proc_name: str, statements: Sequence[Stmt]) -> bool:
        return any(self._hits(proc_name, s) for s in statements)

    # -- interprocedural fixpoints ---------------------------------------
    def _solve(self) -> None:
        changed = True
        while changed:
            changed = False
            for name, proc in self.program.procedures.items():
                if not self.reaches[name] and self._any_hit(name, proc.body):
                    self.reaches[name] = True
                    changed = True
            # Propagate return_matters via the flag walk over every caller:
            # a call site whose continuation can reach a target makes the
            # callee's return matter.
            snapshot = dict(self.return_matters)
            for name, proc in self.program.procedures.items():
                self._walk_block(proc.body, self.return_matters[name], name, record=True)
            if snapshot != self.return_matters:
                changed = True

    def _walk_block(
        self, statements: Sequence[Stmt], flag: bool, proc_name: str, record: bool
    ) -> bool:
        """Backward flag propagation: ``flag`` = "the continuation after the
        block can reach a target"; returns the flag before the block."""
        for statement in reversed(statements):
            flag = self._walk_stmt(statement, flag, proc_name, record)
        return flag

    def _walk_stmt(
        self, statement: Stmt, flag_after: bool, proc_name: str, record: bool
    ) -> bool:
        if isinstance(statement, (Call, CallAssign)):
            if record and flag_after and statement.callee in self.return_matters:
                if not self.return_matters[statement.callee]:
                    self.return_matters[statement.callee] = True
            return flag_after or self._hits(proc_name, statement)
        if isinstance(statement, Return):
            return self.return_matters[proc_name]
        if isinstance(statement, Goto):
            return True
        if isinstance(statement, If):
            flag_then = self._walk_block(
                statement.then_branch, flag_after, proc_name, record
            )
            flag_else = self._walk_block(
                statement.else_branch, flag_after, proc_name, record
            )
            return flag_then or flag_else or self._hits(proc_name, statement)
        if isinstance(statement, While):
            # The body exit loops back to the head, so the flag at the body
            # end is the head flag itself (local two-point fixpoint).
            head = flag_after or self._any_hit(proc_name, statement.body)
            self._walk_block(statement.body, head, proc_name, record)
            return head or self._hits(proc_name, statement)
        return flag_after or self._hits(proc_name, statement)

    # -- deletion walk ----------------------------------------------------
    def slice_block(
        self, statements: List[Stmt], flag: bool, proc_name: str
    ) -> Tuple[List[Stmt], bool]:
        out: List[Stmt] = []
        for statement in reversed(statements):
            if not flag and not self._hits(proc_name, statement) and _deletable(
                statement
            ):
                self.report.statements_deleted += 1
                self.report.structural_changes += 1
                continue
            statement, flag = self._slice_stmt(statement, flag, proc_name)
            out.append(statement)
        out.reverse()
        return out, flag

    def _slice_stmt(
        self, statement: Stmt, flag_after: bool, proc_name: str
    ) -> Tuple[Stmt, bool]:
        if isinstance(statement, If):
            then_branch, flag_then = self.slice_block(
                list(statement.then_branch), flag_after, proc_name
            )
            else_branch, flag_else = self.slice_block(
                list(statement.else_branch), flag_after, proc_name
            )
            rebuilt = (
                statement
                if then_branch == statement.then_branch
                and else_branch == statement.else_branch
                else If(
                    statement.condition,
                    then_branch,
                    else_branch,
                    label=statement.label,
                )
            )
            return rebuilt, flag_then or flag_else or self._hits(proc_name, statement)
        if isinstance(statement, While):
            head = flag_after or self._any_hit(proc_name, statement.body)
            body, _ = self.slice_block(list(statement.body), head, proc_name)
            rebuilt = (
                statement
                if body == statement.body
                else While(statement.condition, body, label=statement.label)
            )
            return rebuilt, head or self._hits(proc_name, statement)
        return statement, self._walk_stmt(statement, flag_after, proc_name, record=False)


def slice_to_targets(
    program: Program, specs: Tuple[str, ...], report: PassReport
) -> Program:
    """Delete statements whose execution cannot lead to any target.

    Sound because a statement is deleted only when (a) it cannot itself
    reach a target (no target label/assert inside, no call into a
    target-reaching procedure, no ``goto``) and (b) its lexical
    continuation — including returning to every caller — cannot reach a
    target.  Deleting it can then only add executions that fall through
    into that same target-free continuation.
    """
    slicer = _Slicer(program, specs, report)
    procedures: Dict[str, Procedure] = {}
    for name, proc in program.procedures.items():
        body, _ = slicer.slice_block(list(proc.body), slicer.return_matters[name], name)
        if not body:
            body = [Skip()]
        procedures[name] = Procedure(
            name=name,
            params=list(proc.params),
            locals=list(proc.locals),
            body=body,
            num_returns=proc.num_returns,
        )
    report.sliced_for = tuple(specs)
    return Program(
        globals=list(program.globals),
        procedures=procedures,
        main=program.main,
        name=program.name,
    )


# ---------------------------------------------------------------------------
# Pass 5: unreachable-procedure pruning (structural)
# ---------------------------------------------------------------------------
def prune_unreachable(
    program: Program,
    specs: Optional[Tuple[str, ...]],
    report: PassReport,
) -> Program:
    """Drop procedures not transitively callable from ``main``.

    ``specs`` protects target resolution on the optimized program: with
    explicit specs, the procedures they name (and, for ``"error"``, every
    procedure containing an assert) are kept even when uncalled; without
    specs, any procedure containing an assert or a label is kept, so every
    spec that resolved against the raw program still resolves.
    """
    protect: Set[str] = {program.main}
    if specs is None:
        for name, proc in program.procedures.items():
            if _contains(proc.body, (Assert,)) or _has_label(proc.body):
                protect.add(name)
    else:
        for spec in specs:
            if spec == "error":
                for name, proc in program.procedures.items():
                    if _contains(proc.body, (Assert,)):
                        protect.add(name)
            elif ":" in spec:
                protect.add(spec.split(":", 1)[0])
    # Close over calls from every kept root so protected-but-uncalled
    # procedures keep their callees (no dangling call sites).
    keep = call_closure(program, roots=protect & set(program.procedures) | {program.main})
    dropped = [name for name in program.procedures if name not in keep]
    if not dropped:
        return program
    report.procedures_dropped.extend(dropped)
    report.structural_changes += len(dropped)
    return Program(
        globals=list(program.globals),
        procedures={
            name: proc for name, proc in program.procedures.items() if name in keep
        },
        main=program.main,
        name=program.name,
    )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def optimize(
    program: Program,
    targets: object = None,
    level: int = 1,
    max_rounds: int = 4,
) -> Tuple[Program, PassReport]:
    """Run the pass pipeline at ``level`` and return (program, report).

    ``level`` 0 is the identity; 1 runs the pc-stable passes (constant
    folding, liveness, dead stores) so numeric ``(module, pc)`` targets
    stay valid; 2 adds the structural passes (branch pruning, slicing when
    ``targets`` is a string spec, procedure pruning).  ``targets`` follows
    :data:`repro.frontends.getafix.TargetSpec`; numeric specs implicitly
    cap the level at 1.

    The result is re-checked with ``check_program`` — a pipeline bug
    surfaces here as an exception, which callers may catch to fall back to
    the raw program.
    """
    if level < 0 or level > 2:
        raise ValueError(f"optimize level must be 0, 1 or 2 (got {level!r})")
    specs = normalise_slice_targets(targets)
    if targets is not None and specs is None:
        # Numeric (module, pc) targets: structural passes would invalidate
        # them, so cap to the pc-stable pipeline.
        level = min(level, 1)
    report = PassReport(level=level)
    if level == 0:
        return program, report
    current = program
    for round_index in range(max_rounds):
        before = report.changes()
        current = fold_constants(current, report)
        current = eliminate_dead(current, report)
        if level >= 2:
            current = prune_branches(current, report)
            if specs is not None:
                current = slice_to_targets(current, specs, report)
            current = prune_unreachable(current, specs, report)
        report.rounds = round_index + 1
        if report.changes() == before:
            break
    check_program(current)
    return current, report
