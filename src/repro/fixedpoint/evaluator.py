"""Evaluation strategies for equation systems.

Two strategies are provided, both parametric in the backend (symbolic or
explicit):

* :func:`evaluate_nested` — the *algorithmic semantics* of the paper
  (Section 3): to evaluate a relation ``R`` defined by ``R = B``, start from
  the empty interpretation, and in every round re-evaluate every relation that
  occurs in ``B`` (with ``R`` frozen to its current value) before recomputing
  ``R`` itself; stop when ``R`` stabilises.  This semantics gives meaning to
  *non-monotone* systems such as the optimised entry-forward algorithm
  (Section 4.3), where the auxiliary ``Relevant`` relation uses negation.
* :func:`evaluate_simultaneous` — standard chaotic iteration of all equations
  at once, valid (and typically faster) for monotone systems; used as a
  cross-check in the tests.

Both return an :class:`EvaluationResult` containing the final interpretations
and iteration statistics.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional

from ..errors import ResourceExhausted
from .relations import EquationSystem

__all__ = ["EvaluationError", "EvaluationResult", "evaluate_nested", "evaluate_simultaneous"]


class EvaluationError(ResourceExhausted):
    """Raised when evaluation exceeds its iteration budget (non-termination guard).

    A :class:`repro.errors.ResourceExhausted` subclass (``resource ==
    "iterations"``) so the batch layer classifies a blown iteration budget
    as a resource failure, with ``consumed``/``budget`` carrying the
    iteration counts.
    """

    resource = "iterations"


@dataclass
class EvaluationResult:
    """Outcome of evaluating an equation system.

    Attributes
    ----------
    target:
        Name of the relation that was requested.
    interpretations:
        Final interpretation of the target relation and (for the nested
        strategy) the last computed value of every auxiliary relation.
    iterations:
        Number of outer iterations performed for the target relation.
    equation_evaluations:
        Total number of equation-body evaluations across all relations.
    elapsed_seconds:
        Wall-clock evaluation time.
    stopped_early:
        True when a ``stop`` predicate ended the iteration before a fixed
        point was reached.
    """

    target: str
    interpretations: Dict[str, Any]
    iterations: int
    equation_evaluations: int
    elapsed_seconds: float
    stopped_early: bool = False

    @property
    def value(self) -> Any:
        """The interpretation computed for the target relation."""
        return self.interpretations[self.target]


def _gc_step(backend: Any) -> Optional[Callable[[Any], bool]]:
    """The backend's safe-point garbage-collection hook, if it has one.

    Symbolic backends expose ``gc_step(roots)`` (see
    :meth:`repro.fixedpoint.symbolic.SymbolicBackend.gc_step`); the explicit
    backends have nothing to collect.  Both evaluation strategies call the
    hook between outer iterations — the only points where every live
    interpretation edge is enumerable — passing those edges as roots.
    """
    hook = getattr(backend, "gc_step", None)
    return hook if callable(hook) else None


def evaluate_nested(
    system: EquationSystem,
    target: str,
    backend: Any,
    inputs: Mapping[str, Any],
    max_iterations: int = 10_000,
    stop: Optional[Callable[[Mapping[str, Any]], bool]] = None,
) -> EvaluationResult:
    """Evaluate ``target`` using the paper's nested ``Evaluate`` algorithm.

    Parameters
    ----------
    system:
        The equation system.
    target:
        Name of the relation to compute.
    backend:
        A backend exposing ``empty``, ``equal`` and ``eval_equation``.
    inputs:
        Interpretations of every input relation of the system.  They stay
        fixed for the whole evaluation, so every equation evaluation passes
        them as the backend's ``bound`` relations (the symbolic backend
        folds their applications into the static skeleton of its plans).
    max_iterations:
        Safety bound on outer iterations of any single relation; exceeded
        bounds raise :class:`EvaluationError` (the paper's semantics does not
        guarantee termination for non-monotone systems).
    stop:
        Optional early-termination predicate, called after every outer
        iteration of the *target* relation with the current interpretations;
        returning True ends the evaluation (used for "stop as soon as the goal
        is known reachable").
    """
    missing = set(system.inputs) - set(inputs)
    if missing:
        raise ValueError(f"missing interpretations for input relations: {sorted(missing)}")
    start = time.perf_counter()
    stats = {"evaluations": 0}
    interpretations: Dict[str, Any] = {}
    stopped = {"early": False}
    gc_step = _gc_step(backend)
    # The dependency sets are derived from the (immutable) equation bodies;
    # hoist them out of the iteration loops instead of re-walking every
    # formula on every round.
    dependency_order = {
        name: sorted(system.dependencies(name)) for name in system.equations
    }

    def evaluate(name: str, fixed: Dict[str, Any], depth: int) -> Any:
        equation = system.equation(name)
        current = backend.empty(equation.decl)
        iterations = 0
        while True:
            iterations += 1
            if iterations > max_iterations:
                raise EvaluationError(
                    f"relation {name!r} did not stabilise within {max_iterations} iterations",
                    consumed=iterations,
                    budget=max_iterations,
                )
            env = dict(fixed)
            env[name] = current
            for other in dependency_order[name]:
                if other == name or other in fixed:
                    continue
                env[other] = evaluate(other, env, depth + 1)
            stats["evaluations"] += 1
            updated = backend.eval_equation(equation, env, bound=inputs)
            interpretations.update(
                {key: value for key, value in env.items() if key in system.equations}
            )
            interpretations[name] = updated
            if depth == 0 and gc_step is not None:
                # Safe point: every live interpretation edge is in one of
                # these mappings (inner evaluations restart from empty and
                # re-derive everything else from caches that GC may drop).
                gc_step(
                    itertools.chain(
                        fixed.values(),
                        env.values(),
                        interpretations.values(),
                        (current, updated),
                    )
                )
            if depth == 0 and stop is not None and stop(interpretations):
                stopped["early"] = True
                current = updated
                break
            if backend.equal(updated, current):
                current = updated
                break
            current = updated
        if depth == 0:
            interpretations["__iterations__"] = iterations
        return current

    fixed_inputs = dict(inputs)
    try:
        value = evaluate(target, fixed_inputs, 0)
    finally:
        # ``evaluate`` is recursive, so its closure cell refers to itself;
        # clearing the cell breaks that cycle, which otherwise keeps the
        # backend and its BDD manager alive until a full cyclic collection.
        del evaluate
    iterations = interpretations.pop("__iterations__", 0)
    interpretations[target] = value
    return EvaluationResult(
        target=target,
        interpretations=interpretations,
        iterations=iterations,
        equation_evaluations=stats["evaluations"],
        elapsed_seconds=time.perf_counter() - start,
        stopped_early=stopped["early"],
    )


def evaluate_simultaneous(
    system: EquationSystem,
    target: str,
    backend: Any,
    inputs: Mapping[str, Any],
    max_iterations: int = 10_000,
    stop: Optional[Callable[[Mapping[str, Any]], bool]] = None,
) -> EvaluationResult:
    """Evaluate all equations by simultaneous (chaotic) iteration.

    All defined relations start empty and are re-evaluated in declaration order until none of them changes.  This is
    the textbook Knaster–Tarski iteration and computes the least fixed point
    for monotone systems; it is *not* appropriate for the non-monotone
    optimised entry-forward algorithm.
    """
    missing = set(system.inputs) - set(inputs)
    if missing:
        raise ValueError(f"missing interpretations for input relations: {sorted(missing)}")
    if target not in system.equations:
        raise KeyError(f"no equation defines relation {target!r}")
    start = time.perf_counter()
    interpretations: Dict[str, Any] = dict(inputs)
    for name, equation in system.equations.items():
        interpretations[name] = backend.empty(equation.decl)
    iterations = 0
    evaluations = 0
    stopped_early = False
    gc_step = _gc_step(backend)
    while True:
        iterations += 1
        if iterations > max_iterations:
            raise EvaluationError(
                f"system did not stabilise within {max_iterations} iterations",
                consumed=iterations,
                budget=max_iterations,
            )
        changed = False
        for name, equation in system.equations.items():
            evaluations += 1
            updated = backend.eval_equation(equation, interpretations, bound=inputs)
            if not backend.equal(updated, interpretations[name]):
                changed = True
            interpretations[name] = updated
        if gc_step is not None:
            # Safe point: the round's live edges are exactly the current
            # interpretations (inputs included).
            gc_step(interpretations.values())
        if stop is not None and stop(interpretations):
            stopped_early = True
            break
        if not changed:
            break
    defined = {name: interpretations[name] for name in system.equations}
    return EvaluationResult(
        target=target,
        interpretations=defined,
        iterations=iterations,
        equation_evaluations=evaluations,
        elapsed_seconds=time.perf_counter() - start,
        stopped_early=stopped_early,
    )
