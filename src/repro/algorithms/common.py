"""Shared pieces of the reachability algorithms written in the calculus."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..encode.templates import SequentialEncoder
from ..fixedpoint import EquationSystem, Exists, Formula, RelationDecl, Var

__all__ = [
    "AlgorithmSpec",
    "state_vars",
    "target_query",
]


@dataclass
class AlgorithmSpec:
    """A reachability algorithm expressed as a fixed-point equation system.

    Attributes
    ----------
    name:
        Identifier of the algorithm (``"summary"``, ``"ef"``, ``"ef-opt"``,
        ``"cbr-k<k>"``).
    system:
        The equation system (the "program" in the fixed-point calculus).
    target_relation:
        The relation whose fixed point the evaluator should compute.
    query:
        A closed formula over the system's relations that is TRUE exactly when
        the target program location is reachable.
    evaluation:
        ``"nested"`` for the paper's algorithmic semantics (required for
        non-monotone systems) or ``"simultaneous"`` for plain chaotic
        iteration of monotone systems.
    order:
        The BDD variable order the backend is built with, or ``None`` for
        the default interleaved order.
    """

    name: str
    system: EquationSystem
    target_relation: str
    query: Formula
    evaluation: str = "nested"
    order: Optional[List[str]] = None


def state_vars(encoder: SequentialEncoder, *names: str) -> List[Var]:
    """Fresh state-sorted variables named as requested."""
    return [Var(name, encoder.space.state_sort) for name in names]


def target_query(encoder: SequentialEncoder, summary: RelationDecl, *prefix_args) -> Formula:
    """The reachability query ``exists u, v. Summary(..., u, v) & Target(v)``.

    ``prefix_args`` are extra leading arguments of the summary relation (the
    optimised algorithm's frontier flag, for example).
    """
    u, v = state_vars(encoder, "u", "v")
    target = encoder.decls["Target"]
    return Exists([u, v], summary(*prefix_args, u, v) & target(v.mod, v.pc))
