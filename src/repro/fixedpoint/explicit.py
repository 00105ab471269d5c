"""Explicit (enumerative) backend of the fixed-point calculus.

This backend represents a relation interpretation as a frozen set of tuples of
canonical values and evaluates formulas by enumerating variable domains.  It
is exponential in every dimension and exists for two purposes:

* it is the *reference semantics* against which the symbolic backend is tested
  (differential and property-based tests), and
* it lets tiny equation systems be explored and debugged interactively.

Do not use it to model-check programs of any size.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, Mapping, Tuple

from .formulas import (
    And,
    BoolAtom,
    Bottom,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Le,
    Lt,
    Not,
    Or,
    RelApp,
    Succ,
    Top,
)
from .relations import Equation, RelationDecl
from .sorts import StructSort
from .terms import Const, Field, Term, Var

__all__ = ["ExplicitBackend", "relation_from_predicate"]

Interpretation = FrozenSet[Tuple[Any, ...]]


def relation_from_predicate(decl: RelationDecl, predicate: Callable[..., bool]) -> Interpretation:
    """Materialise an input relation from a Python predicate over values."""
    tuples = []
    param_sorts = [sort for _, sort in decl.params]

    def recurse(index: int, partial: list) -> None:
        if index == len(param_sorts):
            if predicate(*partial):
                tuples.append(tuple(param_sorts[i].canonical(v) for i, v in enumerate(partial)))
            return
        for value in param_sorts[index].values():
            partial.append(value)
            recurse(index + 1, partial)
            partial.pop()

    recurse(0, [])
    return frozenset(tuples)


class ExplicitBackend:
    """Evaluates calculus formulas by explicit enumeration."""

    def empty(self, decl: RelationDecl) -> Interpretation:
        """The empty interpretation."""
        return frozenset()

    def equal(self, left: Interpretation, right: Interpretation) -> bool:
        """Interpretation equality."""
        return left == right

    def eval_equation(
        self,
        equation: Equation,
        interps: Mapping[str, Interpretation],
        bound: Mapping[str, Interpretation] = {},
    ) -> Interpretation:
        """Evaluate an equation body over every assignment of its parameters.

        ``bound`` is accepted for parity with the symbolic backend and
        ignored: enumeration has no compiled plan to fold it into, and the
        evaluators pass the same relations in ``interps`` as well.
        """
        decl = equation.decl
        tuples = []
        param_sorts = [(name, sort) for name, sort in decl.params]

        def recurse(index: int, env: Dict[str, Any]) -> None:
            if index == len(param_sorts):
                if self.eval_formula(equation.body, interps, env):
                    tuples.append(
                        tuple(sort.canonical(env[name]) for name, sort in param_sorts)
                    )
                return
            name, sort = param_sorts[index]
            for value in sort.values():
                env[name] = value
                recurse(index + 1, env)
            del env[name]

        recurse(0, {})
        return frozenset(tuples)

    # ------------------------------------------------------------------
    def eval_formula(
        self,
        formula: Formula,
        interps: Mapping[str, Interpretation],
        env: Mapping[str, Any],
    ) -> bool:
        """Evaluate a formula under a variable environment (name -> value)."""
        if isinstance(formula, Top):
            return True
        if isinstance(formula, Bottom):
            return False
        if isinstance(formula, BoolAtom):
            return bool(self._term_value(formula.term, env))
        if isinstance(formula, Eq):
            return self._term_value(formula.left, env) == self._term_value(formula.right, env)
        if isinstance(formula, Le):
            return self._term_value(formula.left, env) <= self._term_value(formula.right, env)
        if isinstance(formula, Lt):
            return self._term_value(formula.left, env) < self._term_value(formula.right, env)
        if isinstance(formula, Succ):
            return self._term_value(formula.right, env) == self._term_value(formula.left, env) + 1
        if isinstance(formula, RelApp):
            interpretation = interps.get(formula.decl.name)
            if interpretation is None:
                raise KeyError(f"no interpretation for relation {formula.decl.name!r}")
            args = tuple(
                sort.canonical(self._term_value(arg, env))
                for arg, (_, sort) in zip(formula.args, formula.decl.params)
            )
            if callable(interpretation):
                return bool(interpretation(*args))
            return args in interpretation
        if isinstance(formula, Not):
            return not self.eval_formula(formula.body, interps, env)
        if isinstance(formula, And):
            return all(self.eval_formula(part, interps, env) for part in formula.parts)
        if isinstance(formula, Or):
            return any(self.eval_formula(part, interps, env) for part in formula.parts)
        if isinstance(formula, Implies):
            return (not self.eval_formula(formula.antecedent, interps, env)) or self.eval_formula(
                formula.consequent, interps, env
            )
        if isinstance(formula, Iff):
            return self.eval_formula(formula.left, interps, env) == self.eval_formula(
                formula.right, interps, env
            )
        if isinstance(formula, (Exists, Forall)):
            return self._quantifier(formula, interps, env)
        raise TypeError(f"cannot evaluate formula node {formula!r}")

    def _quantifier(
        self,
        formula: Exists | Forall,
        interps: Mapping[str, Interpretation],
        env: Mapping[str, Any],
    ) -> bool:
        names = [var.__dict__["name"] for var in formula.variables]
        sorts = [var.sort for var in formula.variables]
        existential = isinstance(formula, Exists)
        local: Dict[str, Any] = dict(env)

        def recurse(index: int) -> bool:
            if index == len(names):
                return self.eval_formula(formula.body, interps, local)
            for value in sorts[index].values():
                local[names[index]] = value
                result = recurse(index + 1)
                if existential and result:
                    return True
                if not existential and not result:
                    return False
            local.pop(names[index], None)
            return not existential

        return recurse(0)

    # ------------------------------------------------------------------
    def _term_value(self, term: Term, env: Mapping[str, Any]) -> Any:
        if isinstance(term, Const):
            return term.value
        if isinstance(term, Var):
            name = term.__dict__["name"]
            if name not in env:
                raise KeyError(f"unbound variable {name!r}")
            return env[name]
        if isinstance(term, Field):
            base = self._term_value(term.__dict__["base"], env)
            base_sort = term.__dict__["base"].sort
            field_name = term.__dict__["field_name"]
            assert isinstance(base_sort, StructSort)
            as_dict = base_sort.as_dict(base)
            return as_dict[field_name]
        raise TypeError(f"cannot evaluate term {term!r}")

    # -- result inspection ----------------------------------------------
    def models(self, interpretation: Interpretation, decl: RelationDecl) -> Iterable[Tuple[Any, ...]]:
        """The tuples of the interpretation (already explicit)."""
        return sorted(interpretation)

    def count(self, interpretation: Interpretation, decl: RelationDecl) -> int:
        """Number of tuples in the interpretation."""
        return len(interpretation)
