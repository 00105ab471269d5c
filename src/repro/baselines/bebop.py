"""A BEBOP-style explicit summary-based reachability solver.

This engine implements the classical interprocedural reachability algorithm
(Reps–Horwitz–Sagiv path edges + procedure summaries) over *explicit*
valuations.  It plays two roles in the reproduction:

* it is the stand-in for the BEBOP column of Figure 2 (the real BEBOP keeps
  per-program-counter BDDs; ours enumerates valuations, which is faithful in
  answers but much slower on variable-rich programs — see EXPERIMENTS.md), and
* it is the *ground truth* against which the symbolic Getafix engines are
  differentially tested: it shares no code with the BDD pipeline beyond the
  parser and CFG builder.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, Sequence, Set, Tuple

from ..boolprog import Program, build_cfg, check_program
from ..boolprog.cfg import ProgramCfg
from ..errors import ExplorationBudgetExceeded
from ..algorithms.result import ReachabilityResult
from .semantics import ExplicitContext, GlobalVal, LocalVal

__all__ = ["BebopSolver", "run_bebop"]

#: A path edge: within `procedure`, from the entry valuation to the current
#: (pc, locals, globals) valuation.
PathEdge = Tuple[str, LocalVal, GlobalVal, int, LocalVal, GlobalVal]


class BebopSolver:
    """Explicit summary-based reachability for one program."""

    def __init__(self, program: Program, validate: bool = True) -> None:
        if validate:
            check_program(program)
        self.program = program
        self.cfg: ProgramCfg = build_cfg(program)
        self.context = ExplicitContext(self.cfg)

    def check(
        self,
        target_locations: Sequence[Tuple[int, int]],
        early_stop: bool = True,
        max_path_edges: int = 5_000_000,
    ) -> ReachabilityResult:
        """Is any of the (module, pc) targets reachable?"""
        started = time.perf_counter()
        targets = set(map(tuple, target_locations))
        module_of = self.cfg.module_of
        context = self.context

        path_edges: Set[PathEdge] = set()
        worklist: deque = deque()
        # callers[(callee, entry_locals, entry_globals)] -> call sites waiting
        # for summaries of that callee entry.
        callers: Dict[Tuple[str, LocalVal, GlobalVal], Set[Tuple]] = {}
        # summaries[(callee, entry_locals, entry_globals)] -> exit valuations.
        summaries: Dict[Tuple[str, LocalVal, GlobalVal], Set[Tuple[LocalVal, GlobalVal]]] = {}

        reachable = False
        iterations = 0

        def propagate(edge: PathEdge) -> None:
            if edge not in path_edges:
                path_edges.add(edge)
                worklist.append(edge)

        main = self.program.main
        init_locals = context.initial_locals(main)
        init_globals = context.initial_globals()
        propagate((main, init_locals, init_globals, self.cfg.procedure_cfg(main).entry, init_locals, init_globals))

        while worklist:
            if len(path_edges) > max_path_edges:
                raise ExplorationBudgetExceeded(
                    "bebop baseline exceeded its path-edge budget",
                    resource="path-edges",
                    consumed=len(path_edges),
                    budget=max_path_edges,
                )
            procedure, entry_l, entry_g, pc, locals_, globals_ = worklist.popleft()
            iterations += 1
            if (module_of(procedure), pc) in targets:
                reachable = True
                if early_stop:
                    break
            proc_cfg = self.cfg.procedure_cfg(procedure)
            for edge in proc_cfg.internal_edges:
                if edge.source != pc:
                    continue
                for new_locals, new_globals in context.internal_successors(
                    procedure, edge, locals_, globals_
                ):
                    propagate((procedure, entry_l, entry_g, edge.target, new_locals, new_globals))
            for edge in proc_cfg.call_edges:
                if edge.source != pc:
                    continue
                callee_entry_pc = self.cfg.procedure_cfg(edge.callee).entry
                for callee_locals in context.call_entry_locals(procedure, edge, locals_, globals_):
                    key = (edge.callee, callee_locals, globals_)
                    site = (procedure, entry_l, entry_g, edge.source, locals_, edge.return_pc, edge.callee)
                    callers.setdefault(key, set()).add((site, edge_index(proc_cfg, edge)))
                    propagate((edge.callee, callee_locals, globals_, callee_entry_pc, callee_locals, globals_))
                    for exit_locals, exit_globals in summaries.get(key, ()):
                        new_locals, new_globals = context.apply_return(
                            procedure, edge, locals_, exit_locals, exit_globals
                        )
                        propagate((procedure, entry_l, entry_g, edge.return_pc, new_locals, new_globals))
            if pc == proc_cfg.exit:
                key = (procedure, entry_l, entry_g)
                exits = summaries.setdefault(key, set())
                exit_valuation = (locals_, globals_)
                if exit_valuation not in exits:
                    exits.add(exit_valuation)
                    for (site, edge_idx) in callers.get(key, set()):
                        caller, caller_entry_l, caller_entry_g, call_pc, caller_locals, return_pc, callee = site
                        caller_cfg = self.cfg.procedure_cfg(caller)
                        call_edge = caller_cfg.call_edges[edge_idx]
                        new_locals, new_globals = context.apply_return(
                            caller, call_edge, caller_locals, locals_, globals_
                        )
                        propagate(
                            (caller, caller_entry_l, caller_entry_g, return_pc, new_locals, new_globals)
                        )

        elapsed = time.perf_counter() - started
        # A path edge is <entry valuation> -> <current state>; several edges
        # can share their state component, so the reached-state count is the
        # projection onto (procedure, pc, locals, globals) — not len(path_edges).
        reached_states = {
            (procedure, pc, locals_, globals_)
            for (procedure, _entry_l, _entry_g, pc, locals_, globals_) in path_edges
        }
        return ReachabilityResult(
            reachable=reachable,
            algorithm="bebop-explicit",
            iterations=iterations,
            summary_nodes=len(path_edges),
            summary_states=len(reached_states),
            elapsed_seconds=elapsed,
            total_seconds=elapsed,
            stopped_early=reachable and early_stop,
            details={
                "path_edges": len(path_edges),
                "reached_states": len(reached_states),
                "summaries": sum(len(values) for values in summaries.values()),
            },
        )


def edge_index(proc_cfg, edge) -> int:
    """Index of a call edge within its procedure (used to re-find it later)."""
    return proc_cfg.call_edges.index(edge)


def run_bebop(
    program: Program,
    target_locations: Sequence[Tuple[int, int]],
    early_stop: bool = True,
) -> ReachabilityResult:
    """Convenience wrapper: build the solver and run one check."""
    return BebopSolver(program).check(target_locations, early_stop=early_stop)
