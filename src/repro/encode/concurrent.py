"""Template relations for concurrent Boolean programs.

The bounded context-switching algorithm of Section 5 works on per-thread
summaries, so the program encoding is almost the sequential one: the threads
are merged into a single module space (procedure ``p`` of thread ``T`` becomes
module ``T__p``) and the globals struct holds the shared variables plus every
thread's private globals.  The concurrent-specific templates are
``InitThread(t, u)`` (thread ``t`` starts at the entry of its own ``main``)
and ``InitGlobals(u)`` (the program's ``init`` section).
"""

from __future__ import annotations

from typing import List, Tuple

from ..boolprog.cfg import build_cfg
from ..boolprog.concurrent import ConcurrentProgram
from ..boolprog.transform import merge_threads
from ..fixedpoint import EnumSort, RelationDecl, Var
from ..fixedpoint.symbolic import SymbolicBackend
from ..fixedpoint.terms import Field
from .templates import SequentialEncoder, TemplateSet

__all__ = ["ConcurrentEncoder"]


class ConcurrentEncoder(SequentialEncoder):
    """The sequential encoder of the merged program, plus ``InitThread`` and
    ``InitGlobals``."""

    def __init__(self, program: ConcurrentProgram) -> None:
        self.program = program
        self.merged, self.thread_mains = merge_threads(program)
        super().__init__(build_cfg(self.merged))
        self.thread_sort = EnumSort("Thread", max(1, program.num_threads))
        state = self.space.state_sort
        self.decls["InitThread"] = RelationDecl(
            "InitThread", [("ti", self.thread_sort), ("u", state)]
        )
        self.decls["InitGlobals"] = RelationDecl("InitGlobals", [("u", state)])

    def label_location(self, thread_name: str, procedure: str, label: str) -> Tuple[int, int]:
        """(module, pc) of a labelled statement of a thread procedure."""
        return self.cfg.label_location(f"{thread_name}__{procedure}", label)

    def error_locations(self) -> List[Tuple[int, int]]:
        """(module, pc) pairs of assertion-failure locations across all threads."""
        return self.cfg.error_locations()

    def encode_base(self, backend: SymbolicBackend) -> TemplateSet:
        """The sequential base templates plus ``InitThread`` and ``InitGlobals``."""
        templates = super().encode_base(backend)
        templates.interpretations["InitThread"] = self._encode_init_thread()
        templates.interpretations["InitGlobals"] = self._encode_init_globals()
        return templates

    def _encode_init_globals(self) -> int:
        """Initial values of the globals of the whole concurrent program.

        Shared globals named in the program's ``init`` section start at the
        declared value; every other global (shared or thread-private) starts
        False, in line with the deterministic-initialisation semantics.
        """
        mgr = self._manager
        node = mgr.TRUE
        for field_name in self.space.globals_sort.field_names():
            value = self.program.init.get(field_name, False)
            bit = f"u.G.{field_name}"
            node = mgr.and_(node, mgr.var(bit) if value else mgr.nvar(bit))
        return node

    def _encode_init_thread(self) -> int:
        mgr = self._manager
        context = self._context
        ti = Var("ti", self.thread_sort)
        u = Var("u", self.space.state_sort)
        # A thread starts at the entry of its main with all locals False.
        locals_false = mgr.conjoin(
            mgr.nvar(f"u.L.{field_name}")
            for field_name in self.space.locals_sort.field_names()
        )
        disjuncts = []
        for index, main_name in enumerate(self.thread_mains):
            module = self.cfg.module_of(main_name)
            entry = self.cfg.procedure_cfg(main_name).entry
            disjuncts.append(
                mgr.conjoin(
                    [
                        context.encode_cube(ti, index),
                        context.encode_cube(Field(u, "mod"), module),
                        context.encode_cube(Field(u, "pc"), entry),
                        locals_false,
                    ]
                )
            )
        return mgr.disjoin(disjuncts)
