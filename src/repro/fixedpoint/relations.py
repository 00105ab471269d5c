"""Relation declarations, equations and equation systems.

An *equation system* is the unit of "programming" in the fixed-point calculus:
it is a set of (possibly mutually recursive, possibly non-monotone) equations
``R(params) = body`` together with a collection of *input relations* whose
interpretations are supplied from the outside (in Getafix these are the
template relations produced by the program encoder).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple

from .formulas import Formula, RelApp, coerce, free_vars, relations_of
from .sorts import Sort
from .terms import Var

__all__ = ["RelationDecl", "Equation", "EquationSystem"]


class RelationDecl:
    """A declared relation with named, typed parameters.

    Calling the declaration with argument terms produces a
    :class:`~repro.fixedpoint.formulas.RelApp` atom, so a declaration doubles
    as the "name" used when writing formulas::

        Summary = RelationDecl("Summary", [("u", Conf), ("v", Conf)])
        body = Summary(u, x) & ProgramInt(x, v)
    """

    def __init__(self, name: str, params: Sequence[Tuple[str, Sort]]) -> None:
        self.name = name
        self.params: Tuple[Tuple[str, Sort], ...] = tuple(params)
        names = [param for param, _ in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in relation {name!r}")

    @property
    def arity(self) -> int:
        """Number of parameters."""
        return len(self.params)

    def param_vars(self) -> List[Var]:
        """The canonical parameter variables (one per declared parameter)."""
        return [Var(param, sort) for param, sort in self.params]

    def __call__(self, *args: Any) -> RelApp:
        return RelApp(self, args)

    def __repr__(self) -> str:
        params = ", ".join(f"{name}:{sort.name}" for name, sort in self.params)
        return f"RelationDecl({self.name}({params}))"


class Equation:
    """A recursive definition ``decl(params) = body``.

    The body's free variables whose names coincide with the declaration's
    parameter names denote those parameters; any other free variable is an
    error (caught at system construction).
    """

    def __init__(self, decl: RelationDecl, body: Any) -> None:
        self.decl = decl
        self.body: Formula = coerce(body)

    def referenced_relations(self) -> Set[str]:
        """Names of relations applied in the body (including ``decl`` itself)."""
        return relations_of(self.body)

    def check(self) -> None:
        """Validate that the body's free variables are exactly parameters."""
        params = {name: sort for name, sort in self.decl.params}
        for name, var in free_vars(self.body).items():
            if name not in params:
                raise ValueError(
                    f"equation for {self.decl.name}: free variable {name!r} "
                    "is not a declared parameter"
                )
            if var.sort != params[name]:
                raise TypeError(
                    f"equation for {self.decl.name}: parameter {name!r} used "
                    f"with sort {var.sort.name}, declared {params[name].name}"
                )

    def __repr__(self) -> str:
        return f"Equation({self.decl.name} = {self.body!r})"


class EquationSystem:
    """A set of equations plus the declarations of the input relations."""

    def __init__(
        self,
        equations: Sequence[Equation],
        inputs: Sequence[RelationDecl] = (),
    ) -> None:
        self.equations: Dict[str, Equation] = {}
        for equation in equations:
            name = equation.decl.name
            if name in self.equations:
                raise ValueError(f"relation {name!r} defined twice")
            self.equations[name] = equation
        self.inputs: Dict[str, RelationDecl] = {}
        for decl in inputs:
            if decl.name in self.equations:
                raise ValueError(f"relation {decl.name!r} is both defined and an input")
            if decl.name in self.inputs:
                raise ValueError(f"input relation {decl.name!r} declared twice")
            self.inputs[decl.name] = decl
        self._check()

    def _check(self) -> None:
        for equation in self.equations.values():
            equation.check()
            for name in equation.referenced_relations():
                if name not in self.equations and name not in self.inputs:
                    raise ValueError(
                        f"equation for {equation.decl.name} references unknown "
                        f"relation {name!r}"
                    )

    def equation(self, name: str) -> Equation:
        """Look up the equation defining ``name``."""
        try:
            return self.equations[name]
        except KeyError:
            raise KeyError(f"no equation defines relation {name!r}") from None

    def decl(self, name: str) -> RelationDecl:
        """Look up any declared relation (defined or input) by name."""
        if name in self.equations:
            return self.equations[name].decl
        if name in self.inputs:
            return self.inputs[name]
        raise KeyError(f"unknown relation {name!r}")

    def defined_names(self) -> List[str]:
        """Names of relations defined by equations."""
        return list(self.equations)

    def dependencies(self, name: str) -> Set[str]:
        """Defined relations referenced (directly) by the equation for ``name``."""
        return {
            other
            for other in self.equation(name).referenced_relations()
            if other in self.equations
        }

    def __repr__(self) -> str:
        return (
            f"EquationSystem(defined={sorted(self.equations)}, "
            f"inputs={sorted(self.inputs)})"
        )
