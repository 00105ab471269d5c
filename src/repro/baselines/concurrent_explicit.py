"""Explicit bounded context-switching exploration of concurrent programs.

This is the "eager" comparison engine for Figure 3 and the ground truth for
the symbolic bounded context-switching algorithm: a breadth-first exploration
of the concurrent program's configuration graph with at most ``k`` context
switches.  Every thread's configuration keeps an *explicit call stack*, so the
engine is exact for programs whose executions have bounded stacks (the
Bluetooth model and all generated concurrent benchmarks are non-recursive); a
configurable stack-depth bound guards against recursion, and exceeding it
raises instead of silently under-approximating.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from ..algorithms.result import ReachabilityResult
from ..boolprog import build_cfg, check_concurrent_program
from ..boolprog.concurrent import ConcurrentProgram
from ..boolprog.transform import merge_threads
from ..errors import ExplorationBudgetExceeded
from .semantics import ExplicitContext, GlobalVal, LocalVal

__all__ = ["ConcurrentExplicitSolver", "run_concurrent_explicit"]

#: One stack frame: (procedure, pc, locals, pending call-edge index or None).
Frame = Tuple[str, int, LocalVal, Optional[int]]
#: A thread configuration is its call stack (bottom ... top).
ThreadConf = Tuple[Frame, ...]
#: Global configuration: (active thread, switches used, globals, thread confs).
Configuration = Tuple[int, int, GlobalVal, Tuple[ThreadConf, ...]]


class ConcurrentExplicitSolver:
    """Explicit-state bounded context-switching reachability."""

    def __init__(self, program: ConcurrentProgram, validate: bool = True) -> None:
        if validate:
            check_concurrent_program(program)
        self.program = program
        self.merged, self.thread_mains = merge_threads(program)
        self.cfg = build_cfg(self.merged)
        self.context = ExplicitContext(self.cfg)

    # ------------------------------------------------------------------
    def _initial_configuration(self, first_thread: int) -> Configuration:
        globals_ = self.context.initial_globals(self.program.init)
        threads: List[ThreadConf] = []
        for main_name in self.thread_mains:
            frame: Frame = (
                main_name,
                self.cfg.procedure_cfg(main_name).entry,
                self.context.initial_locals(main_name),
                None,
            )
            threads.append((frame,))
        return (first_thread, 0, globals_, tuple(threads))

    def _thread_successors(
        self, stack: ThreadConf, globals_: GlobalVal, max_stack: int
    ) -> Iterator[Tuple[ThreadConf, GlobalVal]]:
        """One-step successors of the active thread (stack may grow/shrink)."""
        if not stack:
            return
        procedure, pc, locals_, _pending = stack[-1]
        proc_cfg = self.cfg.procedure_cfg(procedure)
        context = self.context
        for edge in proc_cfg.internal_edges:
            if edge.source != pc:
                continue
            for new_locals, new_globals in context.internal_successors(
                procedure, edge, locals_, globals_
            ):
                new_top: Frame = (procedure, edge.target, new_locals, None)
                yield stack[:-1] + (new_top,), new_globals
        for index, edge in enumerate(proc_cfg.call_edges):
            if edge.source != pc:
                continue
            if len(stack) >= max_stack:
                raise RecursionError(
                    "explicit concurrent exploration exceeded the stack bound; "
                    "the program is recursive — use the symbolic engine instead"
                )
            for callee_locals in context.call_entry_locals(procedure, edge, locals_, globals_):
                caller_frame: Frame = (procedure, pc, locals_, index)
                callee_frame: Frame = (
                    edge.callee,
                    self.cfg.procedure_cfg(edge.callee).entry,
                    callee_locals,
                    None,
                )
                yield stack[:-1] + (caller_frame, callee_frame), globals_
        if pc == proc_cfg.exit and len(stack) > 1:
            caller_proc, caller_pc, caller_locals, pending = stack[-2]
            assert pending is not None
            call_edge = self.cfg.procedure_cfg(caller_proc).call_edges[pending]
            new_locals, new_globals = context.apply_return(
                caller_proc, call_edge, caller_locals, locals_, globals_
            )
            caller_frame = (caller_proc, call_edge.return_pc, new_locals, None)
            yield stack[:-2] + (caller_frame,), new_globals

    # ------------------------------------------------------------------
    def check(
        self,
        target_locations: Sequence[Tuple[int, int]],
        context_switches: int,
        early_stop: bool = True,
        max_stack: int = 64,
        max_configurations: int = 2_000_000,
    ) -> ReachabilityResult:
        """Is a target location reachable within ``context_switches`` switches?"""
        started = time.perf_counter()
        targets = set(map(tuple, target_locations))
        module_of = self.cfg.module_of

        seen: Set[Configuration] = set()
        frontier: deque = deque()
        for first_thread in range(self.program.num_threads):
            configuration = self._initial_configuration(first_thread)
            seen.add(configuration)
            frontier.append(configuration)

        reachable = False
        iterations = 0
        while frontier:
            if len(seen) > max_configurations:
                raise ExplorationBudgetExceeded(
                    "explicit concurrent exploration exceeded its configuration budget",
                    resource="configurations",
                    consumed=len(seen),
                    budget=max_configurations,
                )
            active, switches, globals_, threads = frontier.popleft()
            iterations += 1
            # Target check on the active thread's top frame.
            stack = threads[active]
            if stack:
                procedure, pc, _locals, _pending = stack[-1]
                if (module_of(procedure), pc) in targets:
                    reachable = True
                    if early_stop:
                        break
            successors: List[Configuration] = []
            for new_stack, new_globals in self._thread_successors(stack, globals_, max_stack):
                new_threads = list(threads)
                new_threads[active] = new_stack
                successors.append((active, switches, new_globals, tuple(new_threads)))
            if switches < context_switches:
                for other in range(self.program.num_threads):
                    if other != active:
                        successors.append((other, switches + 1, globals_, threads))
            for successor in successors:
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)

        elapsed = time.perf_counter() - started
        return ReachabilityResult(
            reachable=reachable,
            algorithm=f"explicit-cbr(k={context_switches})",
            iterations=iterations,
            summary_nodes=len(seen),
            summary_states=len(seen),
            elapsed_seconds=elapsed,
            total_seconds=elapsed,
            stopped_early=reachable and early_stop,
            details={"configurations": len(seen), "context_switches": context_switches},
        )


def run_concurrent_explicit(
    program: ConcurrentProgram,
    target_locations: Sequence[Tuple[int, int]],
    context_switches: int,
    early_stop: bool = True,
) -> ReachabilityResult:
    """Convenience wrapper: build the solver and run one check."""
    return ConcurrentExplicitSolver(program).check(
        target_locations, context_switches, early_stop=early_stop
    )
