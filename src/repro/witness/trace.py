"""Witness trace records and the statement renderer.

A trace is a list of :class:`WitnessStep`; each step is a *state* of the
explicit semantics — procedure, program counter and the full Boolean
valuation of the procedure's locals and the globals — plus the move kind
that produced it (``start``, ``internal``, ``call`` or ``return``) and,
once the trace has been replay-validated, the source statement of the CFG
edge that was taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..boolprog.cfg import CallEdge, InternalEdge

__all__ = [
    "WitnessError",
    "WitnessExtractionError",
    "WitnessValidationError",
    "WitnessStep",
    "WitnessTrace",
    "format_internal_edge",
    "format_call_edge",
    "format_return_edge",
]


class WitnessError(RuntimeError):
    """Base class of witness-subsystem failures (extraction or validation)."""


class WitnessExtractionError(WitnessError):
    """The symbolic walk could not produce a trace for a reachable verdict."""


class WitnessValidationError(WitnessError):
    """An extracted trace failed the explicit-semantics replay."""


@dataclass
class WitnessStep:
    """One state of the trace plus the move that reached it.

    ``kind`` is ``start`` (the initial state of ``main``), ``internal``
    (an intra-procedural move), ``call`` (the callee's entry state) or
    ``return`` (the caller's state after a matching return).  ``statement``
    is the rendered source statement of the CFG edge taken, filled in by
    replay validation.
    """

    kind: str
    procedure: str
    pc: int
    locals: Dict[str, bool]
    globals: Dict[str, bool]
    statement: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "procedure": self.procedure,
            "pc": self.pc,
            "statement": self.statement,
            "locals": dict(self.locals),
            "globals": dict(self.globals),
        }


@dataclass
class WitnessTrace:
    """A complete counterexample: start state to target, one move per step."""

    algorithm: str
    target: List[Tuple[int, int]]
    steps: List[WitnessStep] = field(default_factory=list)
    validated: bool = False

    def __len__(self) -> int:
        return len(self.steps)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rendering (the shape documented in the README)."""
        return {
            "algorithm": self.algorithm,
            "target": [[module, pc] for module, pc in self.target],
            "length": len(self.steps),
            "validated": self.validated,
            "steps": [step.to_dict() for step in self.steps],
        }


# ---------------------------------------------------------------------------
# Statement rendering (filled in during replay, from the matched CFG edge)
# ---------------------------------------------------------------------------
def format_internal_edge(edge: InternalEdge) -> str:
    """Render an internal CFG edge in source syntax (guard + assignments)."""
    parts: List[str] = []
    if edge.guard is not None:
        parts.append(f"assume({edge.guard})")
    if edge.assigns:
        targets = ", ".join(edge.assigns)
        values = ", ".join(str(expr) for expr in edge.assigns.values())
        parts.append(f"{targets} := {values}")
    if not parts:
        return "skip"
    return "; ".join(parts)


def format_call_edge(edge: CallEdge) -> str:
    """Render a call CFG edge in source syntax."""
    args = ", ".join(str(expr) for expr in edge.args)
    call = f"{edge.callee}({args})"
    if edge.targets:
        return f"{', '.join(edge.targets)} := {call}"
    return f"call {call}"


def format_return_edge(edge: CallEdge, callee: str) -> str:
    """Render the return move matching a call edge."""
    return f"return from {callee} to pc {edge.return_pc}"
