"""A user-facing wrapper around BDD edges with Python operator overloading.

The :class:`BddManager` works with raw integer signed-edge handles for speed;
the :class:`Function` wrapper offers an ergonomic layer on top of it
(``f & g``, ``~f``, ``f.exists("x")``, ...) for examples, tests and user code
that builds relations by hand.  The symbolic fixed-point evaluator uses raw
edges internally and converts at its API boundary.

Functions are the manager's *external references* for garbage collection: a
``Function`` refs its edge on construction and derefs it when released, so
any BDD held in a live wrapper survives :meth:`BddManager.collect_garbage`
while everything only reachable from dropped wrappers is reclaimed.  Release
happens automatically on finalisation (``__del__``), explicitly via
:meth:`release`, or scoped with the context-manager protocol::

    with Function.var(mgr, "x") & Function.var(mgr, "y") as f:
        ...  # f's nodes are protected here
    # f is dereferenced; a later collection may reclaim its nodes

``BddFunction`` is an alias of ``Function``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional

from .manager import BddManager

__all__ = ["Function", "BddFunction"]


class Function:
    """An immutable Boolean function owned by a :class:`BddManager`.

    Holding a ``Function`` keeps its BDD nodes alive across garbage
    collections; dropping (or releasing) it makes them collectable.
    """

    __slots__ = ("manager", "node", "_owned")

    def __init__(self, manager: BddManager, node: int) -> None:
        self.manager = manager
        self.node = node
        manager.ref(node)
        self._owned = True

    # -- reference management -------------------------------------------
    def release(self) -> None:
        """Drop this wrapper's external reference (idempotent).

        After release the wrapped edge may be reclaimed by the next garbage
        collection; the wrapper must not be used to keep results alive.
        """
        if getattr(self, "_owned", False):
            self._owned = False
            self.manager.deref(self.node)

    def __enter__(self) -> "Function":
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    def __del__(self) -> None:
        try:
            self.release()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    # -- constructors --------------------------------------------------
    @classmethod
    def true(cls, manager: BddManager) -> "Function":
        """The constant-true function."""
        return cls(manager, manager.TRUE)

    @classmethod
    def false(cls, manager: BddManager) -> "Function":
        """The constant-false function."""
        return cls(manager, manager.FALSE)

    @classmethod
    def var(cls, manager: BddManager, name: str) -> "Function":
        """The projection function of a declared variable."""
        return cls(manager, manager.var(name))

    # -- operators -----------------------------------------------------
    def _wrap(self, node: int) -> "Function":
        return Function(self.manager, node)

    def _node_of(self, other: "Function | bool") -> int:
        if isinstance(other, Function):
            if other.manager is not self.manager:
                raise ValueError("cannot combine functions from different managers")
            return other.node
        return self.manager.TRUE if other else self.manager.FALSE

    def __and__(self, other: "Function | bool") -> "Function":
        return self._wrap(self.manager.and_(self.node, self._node_of(other)))

    __rand__ = __and__

    def __or__(self, other: "Function | bool") -> "Function":
        return self._wrap(self.manager.or_(self.node, self._node_of(other)))

    __ror__ = __or__

    def __xor__(self, other: "Function | bool") -> "Function":
        return self._wrap(self.manager.xor(self.node, self._node_of(other)))

    __rxor__ = __xor__

    def __invert__(self) -> "Function":
        return self._wrap(self.manager.not_(self.node))

    def implies(self, other: "Function | bool") -> "Function":
        """Implication ``self -> other``."""
        return self._wrap(self.manager.implies(self.node, self._node_of(other)))

    def iff(self, other: "Function | bool") -> "Function":
        """Biconditional ``self <-> other``."""
        return self._wrap(self.manager.iff(self.node, self._node_of(other)))

    def ite(self, then: "Function | bool", otherwise: "Function | bool") -> "Function":
        """If-then-else with ``self`` as the condition."""
        return self._wrap(
            self.manager.ite(self.node, self._node_of(then), self._node_of(otherwise))
        )

    # -- quantification & substitution ----------------------------------
    def exists(self, variables: Iterable[str] | str) -> "Function":
        """Existentially quantify a variable name or iterable of names."""
        if isinstance(variables, str):
            variables = [variables]
        return self._wrap(self.manager.exists(self.node, variables))

    def forall(self, variables: Iterable[str] | str) -> "Function":
        """Universally quantify a variable name or iterable of names."""
        if isinstance(variables, str):
            variables = [variables]
        return self._wrap(self.manager.forall(self.node, variables))

    def rename(self, mapping: Dict[str, str]) -> "Function":
        """Simultaneously substitute variables by variables."""
        return self._wrap(self.manager.rename(self.node, dict(mapping)))

    def restrict(self, assignment: Dict[str, bool]) -> "Function":
        """Cofactor by fixing variables to constants."""
        return self._wrap(self.manager.restrict(self.node, dict(assignment)))

    # -- inspection ------------------------------------------------------
    @property
    def store(self) -> str:
        """The node-store layout backing this function's manager.

        ``"array"`` (the struct-of-arrays store), or
        ``"array-snapshot-overlay"`` when the wrapper lives on a
        shared-memory snapshot attachment.
        """
        return str(self.manager.stats()["store"])

    @property
    def is_true(self) -> bool:
        """True iff this is the constant-true function."""
        return self.node == self.manager.TRUE

    @property
    def is_false(self) -> bool:
        """True iff this is the constant-false function."""
        return self.node == self.manager.FALSE

    def __bool__(self) -> bool:
        raise TypeError(
            "Function truth value is ambiguous; use .is_true / .is_false or =="
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Function):
            return self.manager is other.manager and self.node == other.node
        if isinstance(other, bool):
            return self.node == (self.manager.TRUE if other else self.manager.FALSE)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def support(self) -> set:
        """The set of variable names this function depends on."""
        return self.manager.support_names(self.node)

    def node_count(self) -> int:
        """Number of BDD decision nodes of this function."""
        return self.manager.node_count(self.node)

    def count(self, variables: Optional[Iterable[str]] = None) -> int:
        """Number of satisfying assignments over ``variables`` (default: all)."""
        return self.manager.count_sat(self.node, variables)

    def pick(self) -> Optional[Dict[str, bool]]:
        """One satisfying assignment as a name -> bool dict, or None."""
        assignment = self.manager.sat_one(self.node)
        if assignment is None:
            return None
        return {self.manager.var_name(index): value for index, value in assignment.items()}

    def models(self, variables: Iterable[str]) -> Iterator[Dict[str, bool]]:
        """Iterate over all satisfying assignments restricted to ``variables``."""
        for assignment in self.manager.sat_all(self.node, variables):
            yield {self.manager.var_name(index): value for index, value in assignment.items()}

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        """Evaluate under a total assignment of the support."""
        return self.manager.eval(self.node, dict(assignment))

    def __repr__(self) -> str:
        return f"Function(nodes={self.node_count()}, support={sorted(self.support())})"


#: Alias emphasising the BDD-handle role of the wrapper.
BddFunction = Function
