"""The simple summary-based reachability algorithm (Section 4.1).

``Summary(u, v)`` relates *every* procedure entry ``u`` (reachable or not) to
the states ``v`` of the same procedure reachable from it:

* if ``u`` is an entry, then ``Summary(u, u)``;
* internal moves extend a summary;
* a summary of the callee together with a matching call/return extends the
  caller's summary across the call.

Because the algorithm explores from all entries, a target is reachable iff it
is summarised from a *reachable* entry; the auxiliary ``ReachEntry`` relation
(the standard companion fixed point) collects those.  This is the baseline
algorithm of the paper — sound and complete but wasteful, since it happily
summarises unreachable parts of the program.
"""

from __future__ import annotations

from ..encode.templates import SequentialEncoder
from ..fixedpoint import And, Eq, Equation, EquationSystem, Exists, Or, RelationDecl
from .common import AlgorithmSpec, state_vars

__all__ = ["build"]


def build(encoder: SequentialEncoder) -> AlgorithmSpec:
    """Build the Section 4.1 algorithm for the given program encoding."""
    state = encoder.space.state_sort
    decls = encoder.decls
    ProgramInt = decls["ProgramInt"]
    IntoCall = decls["IntoCall"]
    Return = decls["Return"]
    Entry = decls["Entry"]
    Exit = decls["Exit"]
    Init = decls["Init"]

    Summary = RelationDecl("Summary", [("u", state), ("v", state)])
    ReachEntry = RelationDecl("ReachEntry", [("u", state)])

    u, v, x, y, z = state_vars(encoder, "u", "v", "x", "y", "z")

    summary_body = Or(
        # An entry is summarised with itself.
        And(Entry(u.mod, u.pc), Eq(u, v)),
        # Internal transition.
        Exists(x, And(Summary(u, x), ProgramInt(x, v))),
        # Across a call: caller summary + callee summary + matching return.
        Exists(
            [x, y, z],
            And(
                Summary(u, x),
                IntoCall(x, y),
                Summary(y, z),
                Exit(z.mod, z.pc),
                Return(x, z, v),
            ),
        ),
    )

    reach_entry_body = Or(
        Init(u),
        # The entry of a procedure called from a state reachable within a
        # procedure whose own entry is reachable.
        Exists([x, y], And(ReachEntry(x), Summary(x, y), IntoCall(y, u))),
    )

    system = EquationSystem(
        [Equation(Summary, summary_body), Equation(ReachEntry, reach_entry_body)],
        inputs=[ProgramInt, IntoCall, Return, Entry, Exit, Init, decls["Target"]],
    )

    target = decls["Target"]
    query = Exists(
        [u, v], And(ReachEntry(u), Summary(u, v), target(v.mod, v.pc))
    )
    return AlgorithmSpec(
        name="summary",
        system=system,
        target_relation="ReachEntry",
        query=query,
        evaluation="simultaneous",
    )
