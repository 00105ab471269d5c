"""GETAFIX: the user-facing reachability checker.

The front end accepts program source text (or already-parsed programs), a
friendly target specification and an algorithm name, and returns a
:class:`~repro.algorithms.ReachabilityResult`.  Targets can be given as:

* ``"error"`` — any assertion-failure location (the error location of every
  procedure containing an ``assert``),
* ``"proc:label"`` — a labelled statement of a procedure (for concurrent
  programs: ``"thread:proc:label"``),
* an explicit list of ``(module, pc)`` pairs.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple, Union

from ..algorithms import ReachabilityResult, run_concurrent
from ..analysis.passes import normalise_slice_targets
from ..boolprog import ConcurrentProgram, Program, build_cfg
from ..boolprog.transform import merge_threads
from ..limits import ResourceLimits

__all__ = [
    "check_reachability",
    "check_concurrent_reachability",
    "resolve_target",
    "resolve_target_locations",
]

TargetSpec = Union[str, Sequence[Tuple[int, int]], Sequence[str]]


def resolve_target(
    program: Union[Program, ConcurrentProgram], target: TargetSpec
) -> List[Tuple[int, int]]:
    """Turn a friendly target specification into (module, pc) pairs.

    A concurrent program's locations are numbered in its merged module
    space, the one the bounded context-switching engine encodes.
    """
    if isinstance(program, ConcurrentProgram):
        program = merge_threads(program)[0]
    return resolve_target_locations(build_cfg(program), target)


def resolve_target_locations(cfg, target: TargetSpec) -> List[Tuple[int, int]]:
    """Resolve a target spec against an already-built :class:`ProgramCfg`.

    Sessions resolve many targets against one program; taking the CFG
    directly avoids rebuilding it per query (see
    :class:`repro.api.AnalysisSession`).  ``"thread:procedure:label"``
    names a label of module ``thread__procedure``, the procedure's module
    in a concurrent program's merged CFG.
    """
    if isinstance(target, str):
        targets: List[str] = [target]
    elif target and isinstance(target[0], str):
        targets = list(target)  # type: ignore[arg-type]
    else:
        return [tuple(location) for location in target]  # type: ignore[list-item]
    locations: List[Tuple[int, int]] = []
    for item in targets:
        if item == "error":
            locations.extend(cfg.error_locations())
            continue
        parts = item.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"target {item!r} is neither 'error' nor of the form "
                "'procedure:label' or 'thread:procedure:label'"
            )
        *procedure, label = parts
        locations.append(cfg.label_location("__".join(procedure), label))
    if not locations:
        raise ValueError(f"target specification {target!r} matched no program location")
    return locations


def check_reachability(
    program: Union[str, Program],
    target: TargetSpec = "error",
    algorithm: str = "ef-opt",
    early_stop: bool = True,
    limits: Optional[ResourceLimits] = None,
    optimize: int = 0,
    witness: bool = False,
) -> ReachabilityResult:
    """Answer "is the target statement reachable?" for a sequential program.

    ``algorithm`` is one of ``"summary"``, ``"ef"`` or ``"ef-opt"`` (the three
    fixed-point formulations of Section 4, in increasing order of efficiency).
    The query runs in a one-shot :class:`repro.api.AnalysisSession`, so
    ``limits`` (an optional :class:`~repro.limits.ResourceLimits` envelope)
    and ``witness`` behave exactly as in
    :meth:`~repro.api.AnalysisSession.check`: exhaustion raises the typed
    error or, with ``limits.degrade``, retries on the cheaper algorithm and
    records ``degraded_from``.  ``optimize`` runs the static pre-analysis
    pipeline (:mod:`repro.analysis`) before encoding: level 1 is pc-stable,
    level 2 additionally prunes/slices — a string target spec is resolved
    against the *optimized* CFG (and the program sliced towards it); an
    explicit ``(module, pc)`` list pins the raw numbering, capping the
    level at 1.

    With ``witness`` a reachable verdict additionally carries a
    replay-validated counterexample trace in ``result.witness`` (the
    :class:`~repro.witness.WitnessTrace` JSON shape); extraction runs as a
    post-pass on the session's retained summary and never changes the
    verdict — if the trace fails its explicit-semantics replay, the typed
    error is recorded under ``details["witness_error"]`` and ``witness``
    stays None.
    """
    # Imported lazily: repro.api builds on this front end's resolvers.
    from ..api.session import AnalysisSession

    started = time.perf_counter()
    optimize = int(optimize)
    specs = normalise_slice_targets(target)
    if specs is None:
        optimize = min(optimize, 1)
    with AnalysisSession(
        program,
        default_algorithm=algorithm,
        limits=limits,
        optimize=optimize,
        slice_targets=specs if optimize >= 2 else None,
    ) as session:
        result = session.check(target, early_stop=early_stop, witness=witness)
    result.total_seconds = time.perf_counter() - started
    return result


def check_concurrent_reachability(
    program: Union[str, ConcurrentProgram],
    target: TargetSpec = "error",
    context_switches: int = 2,
    early_stop: bool = True,
    limits: Optional[ResourceLimits] = None,
) -> ReachabilityResult:
    """Bounded context-switching reachability for a concurrent program.

    ``target`` is ``"error"``, ``"thread:procedure:label"`` specs or
    (module, pc) pairs of the merged program; see :func:`run_concurrent`.
    """
    return run_concurrent(
        program,
        target,
        context_switches=context_switches,
        early_stop=early_stop,
        limits=limits,
    )
