"""Comparison engines: BEBOP-style, MOPED-style and explicit concurrent solvers."""

from .semantics import ExplicitContext, eval_expr
from .bebop import BebopSolver, run_bebop
from .moped import MopedSolver, run_moped
from .concurrent_explicit import ConcurrentExplicitSolver, run_concurrent_explicit

__all__ = [
    "ExplicitContext",
    "eval_expr",
    "BebopSolver",
    "run_bebop",
    "MopedSolver",
    "run_moped",
    "ConcurrentExplicitSolver",
    "run_concurrent_explicit",
]
