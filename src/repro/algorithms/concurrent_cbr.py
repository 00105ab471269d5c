"""Bounded context-switching reachability for concurrent programs (Section 5).

The algorithm computes the fixed point of a single relation

``Reach(u, v, ecs, cs, g, t)``

where ``(u, v)`` is a per-thread procedure summary (entry state and current
state of the active thread), ``cs`` is the number of context switches
performed so far, ``ecs`` the number performed when the current procedure was
entered, ``g`` records the shared-global valuation at each of the ``k``
context switches, and ``t`` records which thread is active in each of the
``k + 1`` contexts.  The formulation keeps only ``k + 1`` copies of the shared
globals — the paper's key saving over earlier formulations.

The helper predicates ``First`` and ``Consecutive`` and the vector selections
``g_cs`` / ``t_cs`` (indexing by the *value* of ``cs``) are expanded into
finite disjunctions over the possible values of ``cs``, which is how a
MUCKE-style solver would see them as well.

Note on program counters: Section 5 presents states as valuations of
``L ∪ G`` only; with explicit program counters the "switch back to a thread"
clause must also restore the module and program counter of the resuming
thread, which is what this implementation does.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..boolprog.concurrent import ConcurrentProgram
from ..encode.concurrent import ConcurrentEncoder
from ..fixedpoint import (
    And,
    EnumSort,
    Eq,
    Equation,
    EquationSystem,
    Exists,
    Formula,
    Lt,
    Not,
    Or,
    RelationDecl,
    StructSort,
    Succ,
    Var,
)
from ..fixedpoint.formulas import all_vars
from ..fixedpoint.symbolic import default_bit_order
from ..fixedpoint.terms import Field
from ..limits import ResourceLimits
from .common import AlgorithmSpec
from .result import ReachabilityResult

__all__ = ["CBR_PREFIX", "build_cbr_system", "cbr_algorithm", "run_concurrent"]

#: Name prefix of the bounded context-switching algorithm: ``cbr-k<k>``
#: checks a concurrent program under at most ``k`` context switches.
CBR_PREFIX = "cbr-k"


def cbr_algorithm(context_switches: int) -> str:
    """The algorithm name of the Section 5 system with ``context_switches``."""
    return f"{CBR_PREFIX}{context_switches}"


def build_cbr_system(encoder: ConcurrentEncoder, context_switches: int) -> AlgorithmSpec:
    """Build the Section 5 fixed-point system for ``context_switches`` switches."""
    if context_switches < 0:
        raise ValueError("the context-switch bound must be non-negative")
    k = context_switches
    space = encoder.space
    state = space.state_sort
    globals_sort = space.globals_sort
    thread_sort = encoder.thread_sort
    cs_sort = EnumSort("CS", k + 1)
    gvec_fields = [(f"g{i}", globals_sort) for i in range(1, k + 1)] or [("g0", globals_sort)]
    gvec_sort = StructSort("GVec", gvec_fields)
    tvec_sort = StructSort("TVec", [(f"t{i}", thread_sort) for i in range(0, k + 1)])

    decls = encoder.decls
    ProgramInt = decls["ProgramInt"]
    IntoCall = decls["IntoCall"]
    Return = decls["Return"]
    Entry = decls["Entry"]
    Exit = decls["Exit"]
    InitThread = decls["InitThread"]
    InitGlobals = decls["InitGlobals"]
    Target = decls["Target"]

    Reach = RelationDecl(
        "Reach",
        [
            ("u", state),
            ("v", state),
            ("ecs", cs_sort),
            ("cs", cs_sort),
            ("g", gvec_sort),
            ("t", tvec_sort),
        ],
    )

    u, v = Var("u", state), Var("v", state)
    x, y, z, vp = Var("x", state), Var("y", state), Var("z", state), Var("vp", state)
    ecs, cs = Var("ecs", cs_sort), Var("cs", cs_sort)
    csp, css, ecsp = Var("csp", cs_sort), Var("css", cs_sort), Var("ecsp", cs_sort)
    g, t = Var("g", gvec_sort), Var("t", tvec_sort)

    def first_at(s: int) -> Formula:
        """Thread ``t_s`` is active for the first time at context ``s``."""
        clauses = [Not(Eq(Field(t, f"t{r}"), Field(t, f"t{s}"))) for r in range(s)]
        return And(*clauses) if clauses else Or()  # s = 0 never occurs here

    def not_first_at(s: int) -> Formula:
        clauses = [Eq(Field(t, f"t{r}"), Field(t, f"t{s}")) for r in range(s)]
        return Or(*clauses)

    def consecutive(previous: Var, s: int) -> Formula:
        """``previous`` is the last context before ``s`` in which ``t_s`` ran.

        Besides the schedule condition of the paper (``t_previous = t_s`` and
        the thread is inactive in between), the resumption is consistent only
        if the thread was preempted exactly when the globals had the value
        recorded for the switch that ended its last context — i.e.
        ``vp.Global = g_{previous+1}``.  The paper's rendering of ϕ_switch
        leaves this constraint implicit; without it the formula would admit
        runs in which the resumed thread's view of the globals disagrees with
        the recorded switch valuations.
        """
        options = []
        for r in range(s):
            holds_between = [
                Not(Eq(Field(t, f"t{i}"), Field(t, f"t{s}"))) for i in range(r + 1, s)
            ]
            options.append(
                And(
                    Eq(previous, r),
                    Eq(Field(t, f"t{r}"), Field(t, f"t{s}")),
                    Eq(vp.G, Field(g, f"g{r + 1}")),
                    *holds_between,
                )
            )
        return Or(*options)

    # -- the six clauses of the Reach equation --------------------------------
    phi_init = And(
        Eq(cs, 0),
        Eq(ecs, 0),
        Entry(u.mod, u.pc),
        Eq(u, v),
        InitThread(Field(t, "t0"), u),
        # Shared globals declared in the program's init section start at their
        # declared value (everything else stays nondeterministic).
        InitGlobals(u),
    )

    phi_int = Exists(x, And(Reach(u, x, ecs, cs, g, t), ProgramInt(x, v)))

    phi_call = Exists(
        [x, y, ecsp],
        And(Reach(x, y, ecsp, cs, g, t), IntoCall(y, u), Eq(ecs, cs), Eq(u, v)),
    )

    phi_ret = Exists(
        [x, y, z, csp],
        And(
            Reach(u, x, ecs, csp, g, t),
            IntoCall(x, y),
            Reach(y, z, csp, cs, g, t),
            Exit(z.mod, z.pc),
            Return(x, z, v),
            # The caller may have been reached with fewer switches.
            Or(Lt(csp, cs), Eq(csp, cs)),
        ),
    )

    switch_clauses_first: List[Formula] = []
    switch_clauses_back: List[Formula] = []
    for s in range(1, k + 1):
        globals_match = And(
            Eq(v.G, Field(g, f"g{s}")), Eq(Field(g, f"g{s}"), y.G)
        )
        switch_clauses_first.append(
            And(
                Eq(cs, s),
                first_at(s),
                globals_match,
                InitThread(Field(t, f"t{s}"), v),
            )
        )
        switch_clauses_back.append(And(Eq(cs, s), not_first_at(s), globals_match))

    phi_first_switch: Formula = Or()
    phi_switch: Formula = Or()
    if k >= 1:
        phi_first_switch = Exists(
            [x, y, csp, ecsp],
            And(
                Reach(x, y, ecsp, csp, g, t),
                Succ(csp, cs),
                Or(*switch_clauses_first),
                Eq(u, v),
                Eq(ecs, cs),
            ),
        )
        resume_options = Or(
            *[
                And(Eq(cs, s), consecutive(css, s))
                for s in range(1, k + 1)
            ]
        )
        phi_switch = And(
            Exists(
                [x, y, csp, ecsp],
                And(
                    Reach(x, y, ecsp, csp, g, t),
                    Succ(csp, cs),
                    Or(*switch_clauses_back),
                ),
            ),
            Exists(
                [vp, css],
                And(
                    Reach(u, vp, ecs, css, g, t),
                    Lt(css, cs),
                    resume_options,
                    Eq(v.L, vp.L),
                    Eq(v.pc, vp.pc),
                    Eq(v.mod, vp.mod),
                ),
            ),
        )

    body = Or(phi_init, phi_int, phi_call, phi_ret, phi_first_switch, phi_switch)

    system = EquationSystem(
        [Equation(Reach, body)],
        inputs=[ProgramInt, IntoCall, Return, Entry, Exit, InitThread, InitGlobals, Target],
    )

    query = Exists(
        [u, v, ecs, cs, g, t],
        And(Reach(u, v, ecs, cs, g, t), Target(v.mod, v.pc)),
    )
    spec = AlgorithmSpec(
        name=cbr_algorithm(k),
        system=system,
        target_relation="Reach",
        query=query,
        evaluation="nested",
    )
    spec.order = _cbr_bit_order(encoder, spec)
    return spec


#: Variable-order rank of the context-switch counters.  ``Reach`` is applied
#: to the counter pairs (ecs, cs), (ecsp, cs), (ecs, csp), (csp, cs),
#: (ecsp, csp) and (ecs, css); in this order each of them keeps the order of
#: the formal pair (ecs, cs), so every Reach rename is a monotone shift that
#: the structural rebuild handles.
_COUNTER_RANK = {name: rank for rank, name in enumerate(("ecs", "ecsp", "csp", "css", "cs"))}


def _cbr_bit_order(encoder: ConcurrentEncoder, spec: AlgorithmSpec) -> List[str]:
    """Interleave the context-switch global copies with the state copies.

    The default ordering groups bits by their path, which keeps the copies of
    each *state* component together but would place the ``g`` vector (whose
    paths start with ``g1.``, ``g2.``, ...) far from the corresponding state
    globals.  Here every global field gets one contiguous block containing all
    state copies of that field followed by its ``k`` context-switch copies.
    """
    from ..fixedpoint.formulas import all_vars

    variables: Dict[str, Var] = {}
    for equation in spec.system.equations.values():
        for var in equation.decl.param_vars():
            variables.setdefault(var.__dict__["name"], var)
        for name, var in all_vars(equation.body).items():
            variables.setdefault(name, var)
    for decl in spec.system.inputs.values():
        for var in decl.param_vars():
            variables.setdefault(var.__dict__["name"], var)

    space = encoder.space
    state_sort = space.state_sort
    state_vars = [name for name, var in variables.items() if var.sort == state_sort]
    gvec_vars = [name for name, var in variables.items() if var.sort.name == "GVec"]

    order: List[str] = []
    seen = set()

    def push(bit: str) -> None:
        if bit not in seen:
            seen.add(bit)
            order.append(bit)

    # Control bits first: cs counters, thread schedule, module and pc copies.
    counters = sorted(
        (
            name
            for name, var in variables.items()
            if isinstance(var.sort, EnumSort) and var.sort.name in ("CS", "Thread")
        ),
        key=lambda name: _COUNTER_RANK.get(name, len(_COUNTER_RANK)),
    )
    for name in counters:
        for bit in variables[name].bit_names():
            push(bit)
    for name, var in variables.items():
        if var.sort.name == "TVec":
            for bit in var.bit_names():
                push(bit)
    for path in state_sort.bit_paths():
        if path.startswith("mod") or path.startswith("pc") or path.startswith("L."):
            for state_name in state_vars:
                push(f"{state_name}.{path}")
    # One block per global field: all state copies then all g-vector copies.
    for field_name in space.globals_sort.field_names():
        for state_name in state_vars:
            push(f"{state_name}.G.{field_name}")
        for gvec_name in gvec_vars:
            gvec_sort = variables[gvec_name].sort
            for vec_field, _ in gvec_sort.fields:  # type: ignore[attr-defined]
                push(f"{gvec_name}.{vec_field}.{field_name}")
    # Anything not covered keeps the default interleaved order.
    for bit in default_bit_order(list(variables.values())):
        push(bit)
    return order


def run_concurrent(
    program: Union[str, ConcurrentProgram],
    targets: Union[str, Sequence[str], Sequence[Tuple[int, int]]],
    context_switches: int,
    early_stop: bool = True,
    validate: bool = True,
    limits: Optional[ResourceLimits] = None,
) -> ReachabilityResult:
    """Bounded context-switching reachability check on a concurrent program.

    ``targets`` is ``"error"``, ``"thread:procedure:label"`` specs, or
    (module, pc) pairs in the *merged* module space (from
    :meth:`ConcurrentEncoder.label_location` /
    :meth:`ConcurrentEncoder.error_locations`).  The query runs in a
    one-shot :class:`repro.api.AnalysisSession` on the ``cbr-k<k>``
    algorithm, so ``limits`` governs it as it governs a sequential query;
    exhaustion raises the typed :class:`~repro.errors.ResourceExhausted`
    subclass (there is no cheaper algorithm to degrade to).
    """
    # Imported lazily: repro.api builds on the algorithm registry.
    from ..api.session import AnalysisSession

    started = time.perf_counter()
    with AnalysisSession(
        program,
        default_algorithm=cbr_algorithm(context_switches),
        validate=validate,
        limits=limits,
    ) as session:
        result = session.check(targets, early_stop=early_stop)
    result.total_seconds = time.perf_counter() - started
    return result
