"""Symbolic encoding of Boolean programs into template relations."""

from .statespace import StateSpace
from .expressions import ChoicePool, VariableResolver, compile_expr
from .templates import SequentialEncoder, TemplateSet
from .concurrent import ConcurrentEncoder

__all__ = [
    "StateSpace",
    "ChoicePool",
    "VariableResolver",
    "compile_expr",
    "SequentialEncoder",
    "TemplateSet",
    "ConcurrentEncoder",
]
