"""Span recorder for the benchmark's traced run.

The traced run attributes wall time to the layers of ``src/repro`` without
touching the program: :meth:`Tracer.install` replaces the public entry
points of each layer *where their callers look them up* (module globals
bound by ``from ... import`` and class attributes) with timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back.

* Layer entry points (``parse_program``, ``optimize``, ``encode_base``,
  ``evaluate_nested``, ``SymbolicBackend.eval_equation``, ...) each record a
  span: name, start, end, the span that was open when it started (its
  parent) and the benchmark's current query id.  Spans stay in memory and
  are written out by :meth:`Tracer.dump` when the run ends.
* BDD kernel op entry points (``and_``, ``exists``, ``rename``, ...) are
  called far too often to keep one span each.  Their time is rolled up per
  op family into the enclosing span instead, and an op called from inside
  another op (``exists`` calls ``or_`` per node) counts towards the outer
  op, so ``bdd.<op>.self_s`` is the time spent below that op's public entry.
* A span's self time is its duration minus the time its children (child
  spans and rolled-up kernel ops) cover.

Counters are captured at the same boundaries: equation evaluations and
whether each changed its relation, outer iterations, encoded BDD variables,
removed variables, witness steps, and the kernel's op-cache counters, which
are read from ``BddManager.stats()`` right before every
``BddManager.clear_caches()`` reset, so every manager's work is counted
exactly once.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Kernel op entry points and the op family (cache) they are charged to.
#: ``or_`` rides the ``and`` cache and ``forall`` the ``exists`` cache.
KERNEL_OPS: Dict[str, str] = {
    "and_": "and",
    "or_": "and",
    "xor": "xor",
    "ite": "ite",
    "exists": "exists",
    "forall": "exists",
    "and_exists": "and_exists",
    "rename": "rename",
    "restrict": "restrict",
    "pick_cube": "pick_cube",
    "count_sat": "count_sat",
}

#: The op families with their own cache in the kernel's ``stats()["ops"]``.
CACHED_OPS: Tuple[str, ...] = (
    "and", "xor", "ite", "exists", "and_exists", "rename", "restrict",
)


class Span:
    __slots__ = ("id", "parent", "query", "name", "start", "end", "child", "ops")

    def __init__(self, span_id: int, parent: Optional[int], query, name: str) -> None:
        self.id = span_id
        self.parent = parent
        self.query = query
        self.name = name
        self.start = time.perf_counter()
        self.end = 0.0
        self.child = 0.0
        #: op family -> [calls, seconds] of kernel ops called directly here.
        self.ops: Dict[str, List[float]] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "parent": self.parent,
            "query": self.query,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "self": self.self_time,
            "ops": {op: {"calls": int(c), "seconds": s} for op, (c, s) in self.ops.items()},
        }


class Tracer:
    """In-memory span and counter recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: The benchmark's current query id, stamped on every new span.
        self.query = None
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.in_op = False
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(span_id, stack[-1].id if stack else None, self.query, name)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += span.duration
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a span around benchmark code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def layer(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so every call records a span called ``name``.

        ``after(args, kwargs, result)`` runs after a successful call, to
        capture counters from arguments and return values.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def kernel_op(self, family: str, fn: Callable) -> Callable:
        """Wrap a BDD manager method; time rolls up into the enclosing span."""
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if local.in_op:
                return fn(*args, **kwargs)
            local.in_op = True
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                local.in_op = False
                if stack:
                    top = stack[-1]
                    top.child += elapsed
                    entry = top.ops.get(family)
                    if entry is None:
                        top.ops[family] = [1, elapsed]
                    else:
                        entry[0] += 1
                        entry[1] += elapsed

        return wrapper

    # -- installation --------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _patch_function(self, original: Callable, replacement: Callable) -> None:
        """Rebind ``original`` in every loaded ``repro`` module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per install/uninstall)."""
        if self._patches:
            return
        import repro.algorithms.concurrent_cbr as cbr
        import repro.analysis.passes as passes
        import repro.api.session as session
        import repro.baselines as baselines
        import repro.bdd._array as bdd_array
        import repro.bdd.manager as bdd_manager
        import repro.bdd.snapshot as bdd_snapshot
        import repro.boolprog.cfg as cfg
        import repro.boolprog.parser as parser
        import repro.boolprog.typecheck as typecheck
        import repro.encode.templates as templates
        import repro.fixedpoint.evaluator as evaluator
        import repro.fixedpoint.symbolic as symbolic
        import repro.frontends.getafix  # noqa: F401 — binds the front-end globals
        import repro.parallel  # noqa: F401
        import repro.service  # noqa: F401
        import repro.witness as witness
        import repro.witness.extract as extract

        counters = self.counters

        def count_iterations(args, kwargs, result):
            counters["fixedpoint.iterations"] += result.iterations

        def count_evaluation(args, kwargs, result):
            backend, equation, interps = args[0], args[1], args[2]
            counters["fixedpoint.equation_evals"] += 1
            if result != interps.get(equation.decl.name, backend.manager.FALSE):
                counters["fixedpoint.useful_evals"] += 1

        def count_vars(args, kwargs, result):
            counters["encode.bdd_vars"] += args[1].manager.num_vars

        def count_removed(args, kwargs, result):
            counters["analysis.vars_removed"] += len(result[1].variables_removed)

        def count_check(args, kwargs, result):
            counters["api.checks"] += 1
            counters["api.reused"] += bool(result.details.get("reused_solve"))

        def count_trace(args, kwargs, result):
            counters["witness.traces"] += 1
            counters["witness.steps"] += len(result.steps)
            counters["witness.validated"] += bool(result.validated)

        functions = [
            (parser.parse_program, "boolprog.parse", None),
            (parser.parse_concurrent_program, "boolprog.parse", None),
            (typecheck.check_program, "boolprog.check", None),
            (typecheck.check_concurrent_program, "boolprog.check", None),
            (cfg.build_cfg, "boolprog.cfg", None),
            (passes.optimize, "analysis.optimize", count_removed),
            (evaluator.evaluate_nested, "fixedpoint.evaluate", count_iterations),
            (evaluator.evaluate_simultaneous, "fixedpoint.evaluate", count_iterations),
            (cbr.run_concurrent, "algorithms.cbr", None),
            (witness.validate_trace, "witness.replay", count_trace),
            (baselines.run_bebop, "baselines.bebop", None),
            (baselines.run_moped, "baselines.moped", None),
        ]
        for original, name, after in functions:
            self._patch_function(original, self.layer(name, original, after))

        methods = [
            (templates.SequentialEncoder, "encode_base", "encode.base", count_vars),
            (templates.SequentialEncoder, "encode_target", "encode.target", None),
            (symbolic.SymbolicBackend, "eval_equation", "fixedpoint.eval_equation", count_evaluation),
            (session.AnalysisSession, "solve", "api.solve", None),
            (session.AnalysisSession, "check", "api.check", count_check),
            (session.AnalysisSession, "explain", "api.explain", None),
            (extract.WitnessExtractor, "extract", "witness.extract", None),
        ]
        for owner, attribute, name, after in methods:
            self._patch(owner, attribute, self.layer(name, getattr(owner, attribute), after))

        managers = (
            bdd_manager.BddManager,
            bdd_array.ArrayBddManager,
            bdd_snapshot.SnapshotOverlayManager,
        )
        for manager in managers:
            for attribute, family in KERNEL_OPS.items():
                if attribute in vars(manager):
                    self._patch(manager, attribute, self.kernel_op(family, vars(manager)[attribute]))
            if "clear_caches" in vars(manager):
                self._patch(manager, "clear_caches", self._folding(vars(manager)["clear_caches"]))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _folding(self, clear_caches: Callable) -> Callable:
        """Fold a manager's op/GC counters into ours before it resets them."""
        counters = self.counters

        @functools.wraps(clear_caches)
        def wrapper(manager, *args, **kwargs):
            stats = manager.stats()
            for op, entry in stats["ops"].items():
                counters[f"bdd.{op}.hits"] += entry["hits"]
                counters[f"bdd.{op}.misses"] += entry["misses"]
            counters["bdd.peak_nodes"] = max(counters["bdd.peak_nodes"], stats["peak_nodes"])
            counters["bdd.rename_fallback"] += stats["rename_fallback"]
            counters["bdd.gc.collections"] += stats["gc"]["collections"]
            counters["bdd.gc.reclaimed"] += stats["gc"]["reclaimed"]
            return clear_caches(manager, *args, **kwargs)

        return wrapper

    # -- reporting -----------------------------------------------------
    def layer_self_times(self, spans: Optional[List[Span]] = None) -> Dict[str, float]:
        """Self seconds per span name plus ``bdd.<op>`` kernel roll-ups."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans if spans is None else spans:
            totals[span.name] += span.self_time
            for op, (_, seconds) in span.ops.items():
                totals[f"bdd.{op}"] += seconds
        return totals

    def dump(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
