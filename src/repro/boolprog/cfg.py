"""Control-flow graphs and program-counter labelling for Boolean programs.

Every procedure is compiled into a graph whose nodes are program counters and
whose edges are either *internal* (guarded simultaneous assignments, covering
``skip``, assignments, ``assume``, branch conditions, ``goto`` and ``return``)
or *call* edges (recording the callee, the actual arguments and the variables
assigned from the return values).  The conventions match the paper's encoding:

* program counter ``0`` is the procedure entry,
* a single designated *exit* program counter collects all returns and the
  fall-off-the-end of the body,
* a designated *error* program counter is the target of failed ``assert``
  statements,
* return values are threaded through dedicated ``__ret_i`` local slots written
  by ``return`` statements and read by the caller's return edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .ast import (
    Assert,
    Assign,
    Assume,
    Call,
    CallAssign,
    Expr,
    Goto,
    If,
    NotE,
    Procedure,
    Program,
    Return,
    Skip,
    Stmt,
    While,
)
from .errors import StaticError

__all__ = [
    "InternalEdge",
    "CallEdge",
    "ProcedureCfg",
    "ProgramCfg",
    "build_cfg",
    "RETURN_SLOT_PREFIX",
]

#: Prefix of the synthetic local slots that carry return values.
RETURN_SLOT_PREFIX = "__ret"

#: Reserved program counters (same in every procedure).
ENTRY_PC = 0
EXIT_PC = 1
ERROR_PC = 2


@dataclass
class InternalEdge:
    """A guarded simultaneous assignment between two program counters."""

    source: int
    target: int
    guard: Optional[Expr] = None
    assigns: Dict[str, Expr] = field(default_factory=dict)


@dataclass
class CallEdge:
    """A procedure call: control transfers to ``callee`` and later resumes."""

    source: int
    return_pc: int
    callee: str
    args: List[Expr] = field(default_factory=list)
    targets: List[str] = field(default_factory=list)


@dataclass
class ProcedureCfg:
    """The control-flow graph of one procedure."""

    name: str
    entry: int
    exit: int
    error: int
    num_pcs: int
    internal_edges: List[InternalEdge]
    call_edges: List[CallEdge]
    labels: Dict[str, int]
    slot_of: Dict[str, int]
    has_asserts: bool

    def label_pc(self, label: str) -> int:
        """Program counter of a statement label."""
        try:
            return self.labels[label]
        except KeyError:
            raise KeyError(f"procedure {self.name!r} has no label {label!r}") from None


@dataclass
class ProgramCfg:
    """Control-flow graphs and numbering for a whole program."""

    program: Program
    procedures: Dict[str, ProcedureCfg]
    module_index: Dict[str, int]
    max_pc: int
    max_slots: int

    def module_of(self, name: str) -> int:
        """Numeric module index of a procedure name."""
        return self.module_index[name]

    def procedure_cfg(self, name: str) -> ProcedureCfg:
        """CFG of a procedure by name."""
        return self.procedures[name]

    def error_locations(self) -> List[Tuple[int, int]]:
        """(module, pc) pairs of the error locations of procedures with asserts."""
        return [
            (self.module_index[name], cfg.error)
            for name, cfg in self.procedures.items()
            if cfg.has_asserts
        ]

    def label_location(self, procedure: str, label: str) -> Tuple[int, int]:
        """(module, pc) of a labelled statement."""
        cfg = self.procedures[procedure]
        return self.module_index[procedure], cfg.label_pc(label)


class _ProcedureBuilder:
    def __init__(self, procedure: Procedure) -> None:
        self.procedure = procedure
        self.next_pc = 3  # 0 = entry, 1 = exit, 2 = error
        self.internal_edges: List[InternalEdge] = []
        self.call_edges: List[CallEdge] = []
        self.labels: Dict[str, int] = {}
        self.pending_gotos: List[Tuple[int, str]] = []
        self.has_asserts = False

    def new_pc(self) -> int:
        pc = self.next_pc
        self.next_pc += 1
        return pc

    def internal(
        self,
        source: int,
        target: int,
        guard: Optional[Expr] = None,
        assigns: Optional[Dict[str, Expr]] = None,
    ) -> None:
        self.internal_edges.append(
            InternalEdge(source=source, target=target, guard=guard, assigns=dict(assigns or {}))
        )

    # -- statement compilation -------------------------------------------
    def build(self) -> ProcedureCfg:
        procedure = self.procedure
        body_exit = self.block(procedure.body, ENTRY_PC)
        # Falling off the end of the body reaches the exit location.
        self.internal(body_exit, EXIT_PC)
        for source, label in self.pending_gotos:
            if label not in self.labels:
                raise StaticError(
                    f"procedure {procedure.name!r}: goto target {label!r} is not defined"
                )
            self.internal(source, self.labels[label])
        slot_of = self._slot_map()
        return ProcedureCfg(
            name=procedure.name,
            entry=ENTRY_PC,
            exit=EXIT_PC,
            error=ERROR_PC,
            num_pcs=self.next_pc,
            internal_edges=self.internal_edges,
            call_edges=self.call_edges,
            labels=self.labels,
            slot_of=slot_of,
            has_asserts=self.has_asserts,
        )

    def _slot_map(self) -> Dict[str, int]:
        slot_of: Dict[str, int] = {}
        for name in self.procedure.all_locals():
            slot_of[name] = len(slot_of)
        for index in range(self.procedure.num_returns):
            slot_of[f"{RETURN_SLOT_PREFIX}{index}"] = len(slot_of)
        return slot_of

    def block(self, statements: List[Stmt], entry: int) -> int:
        current = entry
        for statement in statements:
            current = self.statement(statement, current)
        return current

    def statement(self, statement: Stmt, entry: int) -> int:
        if statement.label is not None:
            if statement.label in self.labels:
                raise StaticError(
                    f"procedure {self.procedure.name!r}: duplicate label {statement.label!r}"
                )
            self.labels[statement.label] = entry
        if isinstance(statement, Skip):
            exit_pc = self.new_pc()
            self.internal(entry, exit_pc)
            return exit_pc
        if isinstance(statement, Assign):
            exit_pc = self.new_pc()
            self.internal(entry, exit_pc, assigns=dict(zip(statement.targets, statement.values)))
            return exit_pc
        if isinstance(statement, Assume):
            exit_pc = self.new_pc()
            self.internal(entry, exit_pc, guard=statement.condition)
            return exit_pc
        if isinstance(statement, Assert):
            self.has_asserts = True
            exit_pc = self.new_pc()
            self.internal(entry, exit_pc, guard=statement.condition)
            self.internal(entry, ERROR_PC, guard=NotE(statement.condition))
            return exit_pc
        if isinstance(statement, Goto):
            self.pending_gotos.append((entry, statement.target))
            return self.new_pc()  # fall-through location (unreachable)
        if isinstance(statement, Return):
            assigns = {
                f"{RETURN_SLOT_PREFIX}{index}": value
                for index, value in enumerate(statement.values)
            }
            self.internal(entry, EXIT_PC, assigns=assigns)
            return self.new_pc()  # fall-through location (unreachable)
        if isinstance(statement, (Call, CallAssign)):
            exit_pc = self.new_pc()
            targets = statement.targets if isinstance(statement, CallAssign) else []
            self.call_edges.append(
                CallEdge(
                    source=entry,
                    return_pc=exit_pc,
                    callee=statement.callee,
                    args=list(statement.args),
                    targets=list(targets),
                )
            )
            return exit_pc
        if isinstance(statement, If):
            join = self.new_pc()
            then_entry = self.new_pc()
            self.internal(entry, then_entry, guard=statement.condition)
            then_exit = self.block(statement.then_branch, then_entry)
            self.internal(then_exit, join)
            if statement.else_branch:
                else_entry = self.new_pc()
                self.internal(entry, else_entry, guard=NotE(statement.condition))
                else_exit = self.block(statement.else_branch, else_entry)
                self.internal(else_exit, join)
            else:
                self.internal(entry, join, guard=NotE(statement.condition))
            return join
        if isinstance(statement, While):
            body_entry = self.new_pc()
            self.internal(entry, body_entry, guard=statement.condition)
            body_exit = self.block(statement.body, body_entry)
            self.internal(body_exit, entry)
            exit_pc = self.new_pc()
            self.internal(entry, exit_pc, guard=NotE(statement.condition))
            return exit_pc
        raise StaticError(f"cannot compile statement {statement!r}")


def build_cfg(program: Program) -> ProgramCfg:
    """Build the control-flow graphs and numbering for a whole program."""
    procedures: Dict[str, ProcedureCfg] = {}
    for name, procedure in program.procedures.items():
        procedures[name] = _ProcedureBuilder(procedure).build()
    module_index = {name: index for index, name in enumerate(program.procedures)}
    max_pc = max(cfg.num_pcs for cfg in procedures.values()) if procedures else 1
    max_slots = max((len(cfg.slot_of) for cfg in procedures.values()), default=0)
    return ProgramCfg(
        program=program,
        procedures=procedures,
        module_index=module_index,
        max_pc=max_pc,
        max_slots=max_slots,
    )
