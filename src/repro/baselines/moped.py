"""A MOPED-style pushdown-system reachability engine (post* saturation).

MOPED model-checks Boolean programs by viewing them as pushdown systems and
computing a finite automaton that accepts the set of *all reachable
configurations* (control state + full stack content), by saturating an initial
automaton with new transitions (Esparza/Schwoon).  This module reproduces that
architecture with explicit valuations:

* control states are global valuations (plus transient "returning" states that
  carry the values being returned across a pop),
* stack symbols are ``(procedure, pc, local valuation)`` triples, plus special
  return-site symbols that remember which call edge pushed them,
* the ``post*`` saturation rules follow Schwoon's algorithm, with the pushdown
  rules generated on demand from the CFG instead of being enumerated up front.

The real MOPED represents the automaton transitions symbolically with BDDs;
this explicit reproduction answers the same queries but scales differently —
see EXPERIMENTS.md for how this affects the Figure 2 comparison.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from ..algorithms.result import ReachabilityResult
from ..boolprog import Program, build_cfg, check_program
from ..errors import ExplorationBudgetExceeded
from .semantics import ExplicitContext, GlobalVal, LocalVal

__all__ = ["MopedSolver", "run_moped"]

# Control states: ("g", globals) for ordinary states, ("r", globals, returned
# values, call-id) immediately after popping a callee frame.
Control = Tuple
# Stack symbols: ("sym", procedure, pc, locals) for ordinary frames and
# ("ret", procedure, call-id, locals) for pending return sites.
Symbol = Tuple
#: The single accepting automaton state.
FINAL = ("final",)


class MopedSolver:
    """post* saturation for one Boolean program."""

    def __init__(self, program: Program, validate: bool = True) -> None:
        if validate:
            check_program(program)
        self.program = program
        self.cfg = build_cfg(program)
        self.context = ExplicitContext(self.cfg)
        # Assign a stable identifier to every call edge.
        self.call_edges: List[Tuple[str, object]] = []
        self.call_id: Dict[Tuple[str, int], List[int]] = {}
        for name, proc_cfg in self.cfg.procedures.items():
            for edge in proc_cfg.call_edges:
                self.call_edges.append((name, edge))

    # ------------------------------------------------------------------
    def _rules_from(self, control: Control, symbol: Symbol) -> Iterator[Tuple[Control, Tuple[Symbol, ...]]]:
        """Pushdown rules ``<control, symbol> -> <control', word>`` on demand."""
        context = self.context
        if control[0] not in ("g", "r"):
            # Only control states (global valuations / returning states) have
            # pushdown rules; automaton-internal states do not.
            return
        if control[0] == "r":
            # A value-carrying return state: consume the pending return-site
            # symbol, perform the assignment of returned values, and continue
            # at the return pc of the caller.
            _, globals_, returned, call_id = control
            if symbol[0] != "ret" or symbol[2] != call_id:
                return
            _, caller, _, caller_locals = symbol
            edge = self.call_edges[call_id][1]
            new_locals, new_globals = self._apply_return(caller, edge, caller_locals, returned, globals_)
            yield ("g", new_globals), (("sym", caller, edge.return_pc, new_locals),)
            return
        if symbol[0] != "sym":
            return
        _, procedure, pc, locals_ = symbol
        globals_ = control[1]
        proc_cfg = self.cfg.procedure_cfg(procedure)
        for edge in proc_cfg.internal_edges:
            if edge.source != pc:
                continue
            for new_locals, new_globals in context.internal_successors(procedure, edge, locals_, globals_):
                yield ("g", new_globals), (("sym", procedure, edge.target, new_locals),)
        for index, (owner, edge) in enumerate(self.call_edges):
            if owner != procedure or edge.source != pc:
                continue
            for callee_locals in context.call_entry_locals(procedure, edge, locals_, globals_):
                callee_entry = self.cfg.procedure_cfg(edge.callee).entry
                yield (
                    ("g", globals_),
                    (
                        ("sym", edge.callee, callee_entry, callee_locals),
                        ("ret", procedure, index, locals_),
                    ),
                )
        if pc == proc_cfg.exit:
            # Popping the frame: the returned values (the __ret slots) travel
            # in the control state until the pending return-site symbol below
            # is consumed.
            returned = self._returned_values(procedure, locals_)
            for index, (owner, edge) in enumerate(self.call_edges):
                if edge.callee == procedure:
                    yield ("r", globals_, returned, index), ()

    def _returned_values(self, procedure: str, locals_: LocalVal) -> Tuple[bool, ...]:
        proc_cfg = self.cfg.procedure_cfg(procedure)
        count = self.program.procedure(procedure).num_returns
        return tuple(locals_[proc_cfg.slot_of[f"__ret{i}"]] for i in range(count))

    def _apply_return(
        self,
        caller: str,
        edge,
        caller_locals: LocalVal,
        returned: Tuple[bool, ...],
        globals_: GlobalVal,
    ) -> Tuple[LocalVal, GlobalVal]:
        caller_slots = self.cfg.procedure_cfg(caller).slot_of
        new_locals = list(caller_locals)
        new_globals = list(globals_)
        for index, target in enumerate(edge.targets):
            value = returned[index]
            if target in caller_slots:
                new_locals[caller_slots[target]] = value
            else:
                new_globals[self.context.global_index[target]] = value
        return tuple(new_locals), tuple(new_globals)

    # ------------------------------------------------------------------
    def check(
        self,
        target_locations: Sequence[Tuple[int, int]],
        max_transitions: int = 5_000_000,
    ) -> ReachabilityResult:
        """Saturate post* and ask whether a target location is reachable."""
        started = time.perf_counter()
        targets = set(map(tuple, target_locations))
        module_of = self.cfg.module_of
        context = self.context

        main = self.program.main
        initial_control: Control = ("g", context.initial_globals())
        initial_symbol: Symbol = (
            "sym",
            main,
            self.cfg.procedure_cfg(main).entry,
            context.initial_locals(main),
        )

        # The saturation works on transitions (state, symbol-or-None, state);
        # None is the epsilon label produced by pop rules (Schwoon's post*).
        relation: Set[Tuple] = set()
        worklist: deque = deque()
        pending: Set[Tuple] = set()
        # Mid states for push rules, keyed by (control', first symbol).
        mid_states: Dict[Tuple[Control, Symbol], Tuple] = {}
        # Sources of epsilon transitions into each state.
        eps_into: Dict[Tuple, Set[Control]] = {}
        # Already-processed transitions leaving each state.
        leaving: Dict[Tuple, Set[Tuple]] = {}

        def add(transition: Tuple) -> None:
            if transition not in relation and transition not in pending:
                pending.add(transition)
                worklist.append(transition)

        add((initial_control, initial_symbol, FINAL))

        iterations = 0
        while worklist:
            if len(relation) > max_transitions:
                raise ExplorationBudgetExceeded(
                    "moped baseline exceeded its transition budget",
                    resource="transitions",
                    consumed=len(relation),
                    budget=max_transitions,
                )
            transition = worklist.popleft()
            pending.discard(transition)
            if transition in relation:
                continue
            relation.add(transition)
            iterations += 1
            source, label, destination = transition
            leaving.setdefault(source, set()).add(transition)
            if label is None:
                # Epsilon transition source --eps--> destination: whatever can
                # be read from the destination can be read from the source.
                eps_into.setdefault(destination, set()).add(source)
                for other in list(leaving.get(destination, ())):
                    _, other_label, other_destination = other
                    if other_label is not None:
                        add((source, other_label, other_destination))
                continue
            # Combine with epsilon transitions already pointing at our source.
            for eps_source in eps_into.get(source, ()):
                add((eps_source, label, destination))
            for new_control, word in self._rules_from(source, label):
                if len(word) == 0:
                    add((new_control, None, destination))
                elif len(word) == 1:
                    add((new_control, word[0], destination))
                else:
                    first, second = word
                    mid_key = (new_control, first)
                    mid = mid_states.get(mid_key)
                    if mid is None:
                        mid = ("mid", len(mid_states))
                        mid_states[mid_key] = mid
                    add((new_control, first, mid))
                    # The second symbol continues to the old destination.
                    add((mid, second, destination))

        # A configuration with top symbol γ is reachable iff some control
        # state has a γ-transition to a state from which the final state is
        # accepting (i.e. from which the remaining stack can be read; here any
        # state that reaches FINAL through the automaton).
        co_reachable = self._co_reachable(relation)
        reachable = False
        for source, label, destination in relation:
            if label is None or label[0] != "sym":
                continue
            if source[0] not in ("g", "r"):
                continue
            _, procedure, pc, _locals = label
            if (module_of(procedure), pc) in targets and destination in co_reachable:
                reachable = True
                break

        elapsed = time.perf_counter() - started
        return ReachabilityResult(
            reachable=reachable,
            algorithm="moped-post*",
            iterations=iterations,
            summary_nodes=len(relation),
            summary_states=len(relation),
            elapsed_seconds=elapsed,
            total_seconds=elapsed,
            details={"automaton_transitions": len(relation), "mid_states": len(mid_states)},
        )

    @staticmethod
    def _co_reachable(relation: Set[Tuple]) -> Set[Tuple]:
        """States from which the accepting state is reachable (incl. FINAL)."""
        predecessors: Dict[Tuple, Set[Tuple]] = {}
        for source, _label, destination in relation:
            predecessors.setdefault(destination, set()).add(source)
        seen = {FINAL}
        frontier = deque([FINAL])
        while frontier:
            state = frontier.popleft()
            for predecessor in predecessors.get(state, ()):
                if predecessor not in seen:
                    seen.add(predecessor)
                    frontier.append(predecessor)
        return seen


def run_moped(
    program: Program,
    target_locations: Sequence[Tuple[int, int]],
    early_stop: bool = True,
) -> ReachabilityResult:
    """Convenience wrapper around :class:`MopedSolver` (early_stop is ignored:
    the saturation always runs to completion, like the original tool's forward
    reachability mode)."""
    return MopedSolver(program).check(target_locations)
