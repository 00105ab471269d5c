"""Compile-once / query-many analysis sessions.

GETAFIX's Figure 1 pipeline is a staged compiler — translate the program
into template relations, pick a fixed-point formula, evaluate it — but a
monolithic ``run_sequential(program, targets)`` call re-runs every stage per
query.  An :class:`AnalysisSession` owns the compiled artifacts of ONE
program for its whole lifetime and answers many reachability queries
against them, in the style of incremental solver interfaces (persistent
solver state, cheap repeated queries):

* **Built once at construction** — static validation (``check_program``),
  the CFG, the :class:`~repro.encode.templates.SequentialEncoder`.  A
  session whose default algorithm is ``cbr-k<k>`` (Section 5 bounded
  context switching) parses, validates and encodes a concurrent program
  instead (:class:`~repro.encode.concurrent.ConcurrentEncoder`, over the
  merged program's CFG); everything after construction is shared.
* **Built once per algorithm** (lazily) — the
  :class:`~repro.algorithms.common.AlgorithmSpec`, a private
  :class:`~repro.fixedpoint.symbolic.SymbolicBackend` (its own
  ``BddManager``), the six target-independent template BDDs and the
  compiled query plan.  The templates are fixed for the session, so every
  compiled plan binds them: their applications are conjoined into the
  plans' static skeletons once (see :mod:`repro.fixedpoint.symbolic`).
* **Built once per (algorithm, target-signature)** — the ``Target``
  template BDD.  The *signature* of a query is the sorted tuple of its
  (module, pc) locations; repeated checks of the same signature reuse the
  cached BDD.
* **Retained across queries** — fixed-point interpretations, pinned via the
  backend's retained-interpretation protocol
  (:meth:`~repro.fixedpoint.symbolic.SymbolicBackend.retain` /
  :meth:`~repro.fixedpoint.symbolic.SymbolicBackend.release`), so the
  manager's mark-and-sweep collector treats them as external roots between
  queries.

Reuse across queries
--------------------
Every equation system in this reproduction, ``cbr-k<k>`` included, is
*target-free*: ``Target`` is an input relation of the system but no
equation body mentions it — only the reachability query does
(``tests/test_session.py`` checks this for every registered algorithm).
The summary fixed point of every algorithm is therefore
target-independent and fully reusable.

``solve()`` computes the full fixed point (no early stop) and retains it;
every later ``check(target)`` is then a query post-pass: encode (or fetch)
the Target BDD, evaluate the compiled query plan under the retained
interpretations, done.  Without a prior ``solve()``, ``check`` runs the
classic per-target evaluation (early stop included) against the compiled
artifacts; a run that reaches the fixed point anyway is promoted to the
retained summary.  An early-stopped run keeps nothing: every evaluation
starts from the empty relation, as the paper's semantics does, so an
algorithm is either unsolved or holds exactly one retained fixed point.

``close()`` releases every compiled artifact and retained edge back to the
manager; after a sweep the manager is at its empty baseline
(``external_references() == 0``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..algorithms.concurrent_cbr import CBR_PREFIX
from ..algorithms.engine import algorithm_builder
from ..algorithms.result import ReachabilityResult
from ..analysis.passes import PassReport, normalise_slice_targets
from ..analysis.passes import optimize as optimize_program
from ..bdd import BddError
from ..boolprog import (
    ConcurrentProgram,
    Program,
    build_cfg,
    check_concurrent_program,
    check_program,
    parse_concurrent_program,
    parse_program,
)
from ..encode.concurrent import ConcurrentEncoder
from ..encode.templates import SequentialEncoder, TemplateSet
from ..errors import ResourceExhausted
from ..fixedpoint import evaluate_nested, evaluate_simultaneous
from ..fixedpoint.evaluator import EvaluationResult
from ..fixedpoint.symbolic import SymbolicBackend
from ..frontends.getafix import TargetSpec, resolve_target_locations
from ..limits import DEGRADATION_LADDER, MAX_ITERATIONS, ResourceLimits
from ..testing import faults

__all__ = ["AnalysisSession", "SolveInfo"]

#: The target signature type: sorted, duplicate-free (module, pc) pairs.
TargetSignature = Tuple[Tuple[int, int], ...]


@dataclass
class SolveInfo:
    """Outcome of :meth:`AnalysisSession.solve` (the retained fixed point)."""

    algorithm: str
    iterations: int
    equation_evaluations: int
    elapsed_seconds: float
    reused: bool = False


@dataclass
class _Retained:
    """A retained set of fixed-point interpretations (edges are pinned).

    ``summary_nodes``/``summary_states`` memoise the target relation's BDD
    size and tuple count: they are identical for every post-pass query of
    one solve, and recounting would walk the (possibly large) summary BDD
    per check.
    """

    interps: Dict[str, int]
    iterations: int
    equation_evaluations: int
    elapsed_seconds: float
    summary_nodes: Optional[int] = None
    summary_states: Optional[int] = None


class _AlgorithmState:
    """Everything the session compiled for one algorithm (private manager)."""

    def __init__(self, session: "AnalysisSession", algorithm: str) -> None:
        self.algorithm = algorithm
        started = time.perf_counter()
        self.spec = algorithm_builder(algorithm)(session.encoder)
        self.backend = SymbolicBackend(self.spec.system, order=self.spec.order)
        if session.limits is not None:
            # The node budget is a property of the state's private manager
            # and persists across queries; the deadline is armed per query
            # (see AnalysisSession._governed).  Set it before encoding so
            # the base templates are governed too.
            self.backend.manager.set_node_budget(session.limits.node_budget)
        self.base: TemplateSet = session.encoder.encode_base(self.backend)
        self.base_interps: Dict[str, int] = self.base.interps()
        for edge in self.base_interps.values():
            self.backend.retain(edge)
        # The templates are fixed for the state's lifetime, so the query
        # plan binds them; Target changes per check and stays dynamic.
        self.query_plan = self.backend.compile_formula(
            self.spec.query, bound=self.base_interps
        )
        self.encode_seconds = time.perf_counter() - started
        # Target BDDs keyed by target signature; the session's public cache
        # key is therefore (algorithm, signature) — this state IS the
        # algorithm half of the key.
        self.target_cache: Dict[TargetSignature, int] = {}
        self.solved: Optional[_Retained] = None
        # Lazily-built witness extractor (repro.witness); it GC-pins its
        # Kleene layers in this state's manager, so the state owns its close.
        self.witness_extractor = None
        self.solve_count = 0
        self.query_count = 0
        self.reused_query_count = 0

    # -- artifacts -------------------------------------------------------
    def target_edge(self, encoder: SequentialEncoder, signature: TargetSignature) -> int:
        edge = self.target_cache.get(signature)
        if edge is None:
            edge = encoder.encode_target(self.backend, list(signature))
            self.backend.retain(edge)
            self.target_cache[signature] = edge
        return edge

    def query_holds(self, interps: Mapping[str, int]) -> bool:
        return self.query_plan.eval(self.backend, interps) == self.backend.manager.TRUE

    def retain_interps(self, result: EvaluationResult) -> _Retained:
        interps = {
            name: edge
            for name, edge in result.interpretations.items()
            if name in self.spec.system.equations
        }
        for edge in interps.values():
            self.backend.retain(edge)
        return _Retained(
            interps=interps,
            iterations=result.iterations,
            equation_evaluations=result.equation_evaluations,
            elapsed_seconds=result.elapsed_seconds,
        )

    def close(self) -> None:
        """Release every artifact; the manager returns to its baseline."""
        if self.witness_extractor is not None:
            self.witness_extractor.close()
            self.witness_extractor = None
        if self.solved is not None:
            for edge in self.solved.interps.values():
                self.backend.release(edge)
            self.solved = None
        self.target_cache.clear()
        self.backend.close()
        self.backend.context.clear_caches()


class AnalysisSession:
    """A program-scoped analysis session: compile once, query many times.

    Parameters
    ----------
    program:
        Source text or an already-parsed :class:`~repro.boolprog.Program`
        (a :class:`~repro.boolprog.ConcurrentProgram` for ``cbr-k<k>``).
    default_algorithm:
        The algorithm used when ``solve``/``check`` are called without one.
        A ``cbr-k<k>`` default makes the session concurrent: it then
        answers only ``cbr-k<k>`` queries (any ``k``), and a sequential
        one only the sequential algorithms.
    validate:
        Run ``check_program`` once, at construction (never again per query).
    limits:
        Optional :class:`~repro.limits.ResourceLimits` envelope.  The node
        budget is installed on every compiled algorithm's private manager;
        the wall-clock deadline and the iteration budget govern each query.
        A query that exhausts the envelope raises the typed
        :class:`~repro.errors.ResourceExhausted` subclass (or degrades; see
        :meth:`check`) and leaves the session usable: compiled artifacts
        and retained interpretations survive, and later queries (or
        :meth:`set_limits`) proceed normally.
    optimize:
        Static pre-analysis level (0, 1 or 2; see
        :func:`repro.analysis.optimize`).  The pass pipeline runs ONCE, at
        construction, and every compiled artifact — CFG, encoder, template
        BDDs, retained fixed points — is built from the
        optimized program.  Level 2 renumbers program counters, so numeric
        ``(module, pc)`` targets are rejected once the report records
        structural changes; string specs (``"error"``, ``"proc:label"``)
        resolve against the optimized CFG and stay exact.  A pipeline crash
        degrades gracefully: the session falls back to the raw program and
        records the failure in ``optimize_report.failed``.  Concurrent
        sessions have no pre-analysis pipeline and reject a level above 0.
    slice_targets:
        String target specs the level-2 slicer may specialise the program
        towards.  A sliced session only answers queries whose specs are a
        subset of ``slice_targets`` (slicing discards behaviour irrelevant
        to those targets, so other queries would be unsound).  Ignored
        below level 2.

    Sessions are context managers; leaving the ``with`` block closes them.
    """

    def __init__(
        self,
        program: Union[str, Program, ConcurrentProgram],
        *,
        default_algorithm: str = "ef-opt",
        validate: bool = True,
        limits: Optional[ResourceLimits] = None,
        optimize: int = 0,
        slice_targets: Optional[Sequence[str]] = None,
    ) -> None:
        algorithm_builder(default_algorithm)  # rejects unknown names
        self.concurrent = default_algorithm.startswith(CBR_PREFIX)
        if self.concurrent and optimize:
            raise ValueError(
                "optimize applies to sequential programs only; the concurrent "
                "engine has no pre-analysis pipeline"
            )
        if isinstance(program, str):
            program = (
                parse_concurrent_program(program) if self.concurrent else parse_program(program)
            )
        self.program = program
        self.default_algorithm = default_algorithm
        self.limits = limits
        self.validations = 0
        if validate:
            (check_concurrent_program if self.concurrent else check_program)(self.program)
            self.validations = 1
        #: The program as given (pre-optimization); ``self.program`` is what
        #: the compiled artifacts are actually built from.
        self.source_program = self.program
        if slice_targets is not None:
            normalised = normalise_slice_targets(tuple(slice_targets))
            if normalised is None:
                raise ValueError(
                    "slice_targets must be string target specs "
                    "('error' or 'procedure:label'), got "
                    f"{slice_targets!r}"
                )
            slice_targets = normalised
        self.slice_targets: Optional[Tuple[str, ...]] = slice_targets
        self.optimize_level = int(optimize)
        self.optimize_report: Optional[PassReport] = None
        if self.optimize_level:
            try:
                self.program, self.optimize_report = optimize_program(
                    self.program,
                    targets=self.slice_targets,
                    level=self.optimize_level,
                )
            except Exception as exc:  # degrade, never lose the query
                self.program = self.source_program
                self.optimize_report = PassReport(level=self.optimize_level)
                self.optimize_report.failed = repr(exc)
        self.encoder: SequentialEncoder = (
            ConcurrentEncoder(self.program)
            if self.concurrent
            else SequentialEncoder(build_cfg(self.program))
        )
        self.cfg = self.encoder.cfg
        self._states: Dict[str, _AlgorithmState] = {}
        self._closed = False

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every compiled artifact of every algorithm (idempotent).

        After a close (plus a sweep), each algorithm's manager is back at
        its empty baseline: zero external references, zero live nodes.
        """
        if self._closed:
            return
        for state in self._states.values():
            state.close()
        self._states.clear()
        self._closed = True

    def _state(self, algorithm: Optional[str]) -> _AlgorithmState:
        if self._closed:
            raise RuntimeError("the analysis session is closed")
        name = algorithm or self.default_algorithm
        state = self._states.get(name)
        if state is None:
            if name.startswith(CBR_PREFIX) != self.concurrent:
                raise ValueError(
                    f"algorithm {name!r} does not apply to this session's "
                    f"{'concurrent' if self.concurrent else 'sequential'} program"
                )
            state = _AlgorithmState(self, name)
            self._states[name] = state
        return state

    # -- queries ---------------------------------------------------------
    def resolve(self, target: TargetSpec) -> List[Tuple[int, int]]:
        """Resolve a friendly target spec against this session's CFG."""
        self._guard_target(target)
        return resolve_target_locations(self.cfg, target)

    def _guard_target(self, target: TargetSpec) -> None:
        """Reject queries the optimized program cannot soundly answer.

        Numeric ``(module, pc)`` specs name locations of the *raw*
        program's numbering; once a structural pass renumbered pcs they are
        meaningless, so only string specs (resolved against the optimized
        CFG) are accepted.  A sliced program additionally only preserves
        reachability of the targets it was sliced for.
        """
        report = self.optimize_report
        if report is None or report.failed is not None:
            return
        specs = normalise_slice_targets(target)
        if specs is None:
            if not report.pc_stable:
                raise ValueError(
                    "numeric (module, pc) targets are not valid against a "
                    f"structurally optimized program (level {report.level}, "
                    f"{report.structural_changes} structural changes); use "
                    "string specs ('error' or 'procedure:label'), or open "
                    "the session with optimize<=1"
                )
            return
        if report.sliced_for is not None and not set(specs) <= set(report.sliced_for):
            raise ValueError(
                f"this session was sliced for targets {sorted(report.sliced_for)}; "
                f"it cannot soundly answer {sorted(specs)}"
            )

    @staticmethod
    def _signature(locations: Sequence[Tuple[int, int]]) -> TargetSignature:
        return tuple(sorted(set((int(m), int(p)) for m, p in locations)))

    def solve(self, algorithm: Optional[str] = None) -> SolveInfo:
        """Compute and retain the target-independent summary fixed point.

        Runs the algorithm's equation system to its full fixed point (no
        early stop — there is no target yet) and pins the resulting
        interpretations; subsequent :meth:`check` calls become query
        post-passes.  Idempotent: a second solve returns the retained
        result.  For the ``summary`` algorithm this is the once-per-program
        solve of the paper's baseline.
        """
        state = self._state(algorithm)
        with self._governed(state):
            return self._solve(state)

    def _solve(self, state: _AlgorithmState) -> SolveInfo:
        if state.solved is not None:
            retained = state.solved
            return SolveInfo(
                algorithm=state.algorithm,
                iterations=retained.iterations,
                equation_evaluations=retained.equation_evaluations,
                elapsed_seconds=retained.elapsed_seconds,
                reused=True,
            )
        evaluation = self._evaluate(state, stop=None)
        state.solve_count += 1
        state.solved = state.retain_interps(evaluation)
        return SolveInfo(
            algorithm=state.algorithm,
            iterations=evaluation.iterations,
            equation_evaluations=evaluation.equation_evaluations,
            elapsed_seconds=evaluation.elapsed_seconds,
        )

    def solved(self, algorithm: Optional[str] = None) -> bool:
        """Whether ``algorithm``'s summary fixed point is retained.

        A query on a solved algorithm is a post-pass (a *warm* hit).
        """
        state = self._states.get(algorithm or self.default_algorithm)
        return state is not None and state.solved is not None

    def check(
        self,
        target: TargetSpec,
        algorithm: Optional[str] = None,
        early_stop: bool = True,
        witness: bool = False,
    ):
        """Answer one reachability query against the compiled artifacts.

        With a retained summary (after :meth:`solve`, or after a query that
        ran to the fixed point anyway) this is a pure post-pass: fetch the
        Target BDD, evaluate the compiled query plan — no fixed-point
        iteration at all.  Otherwise the classic per-target evaluation runs
        from the empty relation.  Returns a
        :class:`~repro.algorithms.ReachabilityResult` whose ``details``
        carry the session reuse flag ``reused_solve``.

        Every entry point answers through here, so the post-answer policy
        lives here too.  When the query exhausts its envelope and
        ``limits.degrade`` is set, it is retried once in this session on
        the :data:`~repro.limits.DEGRADATION_LADDER` fallback and the
        result records ``degraded_from``.  With ``witness``, a reachable
        verdict carries the :meth:`explain` trace in ``result.witness``; a
        trace that fails extraction or replay is recorded as
        ``details["witness_error"]`` instead and never changes the verdict.
        A witness request on an algorithm without witness extraction
        (``cbr-k<k>``) raises :class:`~repro.witness.WitnessExtractionError`
        before the query runs.
        """
        started = time.perf_counter()
        answered = algorithm or self.default_algorithm
        if witness:
            self._witness_state(answered)
        try:
            result = self._query(answered, target, early_stop, started)
        except ResourceExhausted:
            fallback = DEGRADATION_LADDER.get(answered)
            if fallback is None or self.limits is None or not self.limits.degrade:
                raise
            result = self._query(fallback, target, early_stop, started)
            result.degraded_from, answered = answered, fallback
        if witness and result.reachable:
            from ..witness import WitnessError

            try:
                trace = self.explain(target, algorithm=answered)
            except WitnessError as exc:
                result.details["witness_error"] = f"{type(exc).__name__}: {exc}"
            else:
                result.witness = trace.to_dict() if trace is not None else None
        return result

    def _query(
        self, algorithm: str, target: TargetSpec, early_stop: bool, started: float
    ) -> ReachabilityResult:
        state = self._state(algorithm)
        faults.on_query(state.algorithm)
        with self._governed(state):
            return self._check(state, target, early_stop, started)

    def _check(
        self,
        state: _AlgorithmState,
        target: TargetSpec,
        early_stop: bool,
        started: float,
    ) -> ReachabilityResult:
        locations = self.resolve(target)
        signature = self._signature(locations)
        state.query_count += 1
        encode_start = time.perf_counter()
        cached_target = signature in state.target_cache
        target_node = state.target_edge(self.encoder, signature)
        encode_seconds = 0.0 if cached_target else time.perf_counter() - encode_start
        if state.query_count == 1:
            # The state's first query also paid for the base templates and
            # the compiled query plan; account them here so a fresh-session
            # wrapper reports the same encode cost the monolithic engine did.
            encode_seconds += state.encode_seconds
        inputs = dict(state.base_interps)
        inputs["Target"] = target_node

        if state.solved is not None:
            state.reused_query_count += 1
            eval_start = time.perf_counter()
            merged = dict(inputs)
            merged.update(state.solved.interps)
            reachable = state.query_holds(merged)
            # Post-pass safe point: the evaluators' gc_step never runs on
            # this path, and a long-lived session answering many targets
            # would otherwise grow its node table monotonically.  Every
            # edge the session still needs is retained (an external GC
            # root), so no extra roots are required.
            state.backend.gc_step(())
            elapsed = time.perf_counter() - eval_start
            summary_node = state.solved.interps[state.spec.target_relation]
            if state.solved.summary_nodes is None:
                state.solved.summary_nodes = state.backend.manager.node_count(summary_node)
                state.solved.summary_states = self._count_states(state, summary_node)
            return self._result(
                state,
                reachable=reachable,
                iterations=state.solved.iterations,
                equation_evaluations=state.solved.equation_evaluations,
                summary_node=summary_node,
                summary_nodes=state.solved.summary_nodes,
                summary_states=state.solved.summary_states,
                elapsed_seconds=elapsed,
                encode_seconds=encode_seconds,
                total_seconds=time.perf_counter() - started,
                stopped_early=False,
                locations=locations,
                reused_solve=True,
            )

        # Fresh per-target evaluation over the compiled plans and template
        # BDDs.
        stop = None
        if early_stop:
            def stop(interps: Mapping[str, int], _inputs=inputs, _state=state) -> bool:
                merged = dict(_inputs)
                merged.update(interps)
                return _state.query_holds(merged)

        evaluation = self._evaluate(state, stop=stop, inputs=inputs)
        merged = dict(inputs)
        merged.update(evaluation.interpretations)
        reachable = state.query_holds(merged)
        summary_node = evaluation.interpretations[state.spec.target_relation]
        if not evaluation.stopped_early:
            # The run reached the full fixed point: promote it to the
            # retained summary — later checks become post-passes.
            state.solve_count += 1
            state.solved = state.retain_interps(evaluation)

        return self._result(
            state,
            reachable=reachable,
            iterations=evaluation.iterations,
            equation_evaluations=evaluation.equation_evaluations,
            summary_node=summary_node,
            elapsed_seconds=evaluation.elapsed_seconds,
            encode_seconds=encode_seconds,
            total_seconds=time.perf_counter() - started,
            stopped_early=evaluation.stopped_early,
            locations=locations,
            reused_solve=False,
        )

    def check_all(
        self,
        targets: Sequence[TargetSpec],
        algorithm: Optional[str] = None,
        early_stop: bool = True,
    ) -> List:
        """Answer a batch of queries, amortising one solve across them.

        With more than one target, the summary fixed point is solved once
        up front and every query is a post-pass — the
        compile-once/query-many fast path.  Verdicts are
        identical to fresh per-target runs; iteration counts equal those of
        a fresh full (``early_stop=False``) evaluation, which is
        target-independent because every system is target-free.
        """
        targets = list(targets)
        state = self._state(algorithm)
        if len(targets) > 1 and state.solved is None:
            self.solve(state.algorithm)
        return [
            self.check(target, algorithm=state.algorithm, early_stop=early_stop)
            for target in targets
        ]

    def explain(self, target: TargetSpec, algorithm: Optional[str] = None):
        """Extract a replay-validated counterexample trace for ``target``.

        Returns a :class:`~repro.witness.WitnessTrace` when the target is
        reachable, ``None`` when it is not — extraction never changes a
        verdict.  The trace is walked out of the retained summary
        interpretations (solving first if needed) with the deterministic
        ``pick_cube`` kernel primitive and then replayed through the
        explicit semantics of :mod:`repro.baselines.semantics`; a trace
        that fails the replay raises
        :class:`~repro.witness.WitnessValidationError` instead of being
        reported.  Resource limits govern the extraction like any query.
        An algorithm without witness extraction (``cbr-k<k>``) raises
        :class:`~repro.witness.WitnessExtractionError` before any work.
        """
        state = self._witness_state(algorithm)
        with self._governed(state):
            return self._explain(state, target)

    def _witness_state(self, algorithm: Optional[str]) -> _AlgorithmState:
        """The algorithm's state, if witness extraction supports it."""
        state = self._state(algorithm)
        if state.algorithm.startswith(CBR_PREFIX):
            from ..witness import WitnessExtractionError

            raise WitnessExtractionError(
                f"no witness extraction for algorithm {state.algorithm!r}"
            )
        return state

    def _explain(self, state: _AlgorithmState, target: TargetSpec):
        from ..witness import WitnessExtractor, validate_trace

        locations = self.resolve(target)
        signature = self._signature(locations)
        if state.solved is None:
            self._solve(state)
        assert state.solved is not None
        target_node = state.target_edge(self.encoder, signature)
        merged = dict(state.base_interps)
        merged["Target"] = target_node
        merged.update(state.solved.interps)
        if not state.query_holds(merged):
            return None
        extractor = state.witness_extractor
        if extractor is None:
            extractor = WitnessExtractor(state.backend, state.base, self.cfg)
            state.witness_extractor = extractor
        trace = extractor.extract(
            state.algorithm, state.solved.interps, target_node, locations
        )
        if trace is None:
            return None
        return validate_trace(self.cfg, trace, locations)

    # -- bookkeeping ------------------------------------------------------
    def live_nodes(self) -> int:
        """Live BDD nodes across every compiled algorithm's manager.

        The memory footprint of the session, in the same unit the kernel's
        ``stats_snapshot()`` reports: a service pooling many sessions evicts
        by this number (see :mod:`repro.service.pool`).
        """
        return sum(len(state.backend.manager) for state in self._states.values())

    def stats(self) -> Dict[str, object]:
        """Session-level reuse counters, per compiled algorithm."""
        return {
            "validations": self.validations,
            "optimize": (
                self.optimize_report.to_dict()
                if self.optimize_report is not None
                else None
            ),
            "algorithms": {
                name: {
                    "solves": state.solve_count,
                    "queries": state.query_count,
                    "reused_queries": state.reused_query_count,
                    "cached_targets": len(state.target_cache),
                    "retained_edges": state.backend.retained_count(),
                }
                for name, state in self._states.items()
            },
        }

    # -- resource governance ----------------------------------------------
    def set_limits(self, limits: Optional[ResourceLimits]) -> None:
        """Replace the session's resource envelope (``None`` removes it).

        Applies immediately to every compiled algorithm state: node budgets
        are (re)installed on their managers, and the next query is governed
        by the new deadline/iteration budget.  Lets a caller recover a
        session whose envelope proved too tight without recompiling.
        """
        self.limits = limits
        for state in self._states.values():
            state.backend.manager.set_node_budget(
                limits.node_budget if limits is not None else None
            )

    @contextmanager
    def _governed(self, state: _AlgorithmState) -> Iterator[None]:
        """Arm the per-query envelope on the state's manager for one query.

        On :class:`~repro.errors.ResourceExhausted` the deadline is
        disarmed and the failed run's garbage is swept (retained
        interpretations and compiled skeletons are external roots and
        survive), so the session stays usable and ``close()`` still returns
        the manager to its baseline.
        """
        mgr = state.backend.manager
        limits = self.limits
        armed = limits is not None and limits.deadline_seconds is not None
        if armed:
            mgr.set_deadline(limits.deadline_seconds)
        try:
            yield
        except ResourceExhausted:
            mgr.clear_deadline()
            mgr.collect_garbage()
            raise
        finally:
            if armed:
                mgr.clear_deadline()

    # -- internals --------------------------------------------------------
    def _evaluate(
        self,
        state: _AlgorithmState,
        stop,
        inputs: Optional[Dict[str, int]] = None,
    ) -> EvaluationResult:
        if inputs is None:
            # A solve has no target: Target is an input of the system but no
            # equation reads it, so FALSE suffices.
            inputs = dict(state.base_interps)
            inputs["Target"] = state.backend.manager.FALSE
        evaluate = (
            evaluate_nested if state.spec.evaluation == "nested" else evaluate_simultaneous
        )
        return evaluate(
            state.spec.system,
            state.spec.target_relation,
            state.backend,
            inputs,
            max_iterations=(self.limits and self.limits.max_iterations) or MAX_ITERATIONS,
            stop=stop,
        )

    @staticmethod
    def _count_states(state: _AlgorithmState, summary_node: int) -> Optional[int]:
        """Tuple count of the target relation via signed-edge count_sat."""
        try:
            decl = state.spec.system.equation(state.spec.target_relation).decl
            return state.backend.count(summary_node, decl)
        except (BddError, KeyError):
            return None

    def _result(
        self,
        state: _AlgorithmState,
        *,
        reachable: bool,
        iterations: int,
        equation_evaluations: int,
        summary_node: int,
        elapsed_seconds: float,
        encode_seconds: float,
        total_seconds: float,
        stopped_early: bool,
        locations: Sequence[Tuple[int, int]],
        reused_solve: bool,
        summary_nodes: Optional[int] = None,
        summary_states: Optional[int] = None,
    ) -> ReachabilityResult:
        manager = state.backend.manager
        if summary_nodes is None:
            summary_nodes = manager.node_count(summary_node)
            summary_states = self._count_states(state, summary_node)
        stats = state.backend.stats_snapshot()
        if self.optimize_report is not None:
            stats["optimize"] = self.optimize_report.to_dict()
        return ReachabilityResult(
            reachable=reachable,
            algorithm=f"getafix-{state.spec.name}",
            iterations=iterations,
            equation_evaluations=equation_evaluations,
            summary_nodes=summary_nodes,
            summary_states=summary_states,
            elapsed_seconds=elapsed_seconds,
            encode_seconds=encode_seconds,
            total_seconds=total_seconds,
            stopped_early=stopped_early,
            details={
                "bdd_variables": manager.num_vars,
                "bdd_live_nodes": len(manager),
                "target_locations": list(locations),
                "evaluation_mode": state.spec.evaluation,
                "reused_solve": reused_solve,
                "target_signature": list(self._signature(locations)),
            },
            stats=stats,
        )
