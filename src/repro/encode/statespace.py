"""State sorts for the symbolic encoding of Boolean programs.

A program state (the paper's ``u``, ``v``, ... in Section 4) is the struct
``(mod, pc, L, G)``:

* ``mod`` — the module (procedure) the control is in,
* ``pc`` — the program counter inside that module,
* ``L`` — the local-variable slots (parameters, declared locals and the
  synthetic ``__ret_i`` return registers share a pool of *slots*; every module
  maps its own locals onto a prefix of the slots),
* ``G`` — the global variables (for concurrent programs: the shared globals
  followed by each thread's private globals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..fixedpoint import BOOL, EnumSort, StructSort

__all__ = ["StateSpace"]


@dataclass
class StateSpace:
    """Sorts describing the state space of a (possibly multi-thread) program."""

    module_sort: EnumSort
    pc_sort: EnumSort
    locals_sort: StructSort
    globals_sort: StructSort
    state_sort: StructSort
    global_names: List[str]
    num_slots: int

    @classmethod
    def build(
        cls,
        num_modules: int,
        max_pc: int,
        num_slots: int,
        global_names: Sequence[str],
    ) -> "StateSpace":
        """Construct the sorts for a program with the given dimensions."""
        module_sort = EnumSort("Module", max(1, num_modules))
        pc_sort = EnumSort("PC", max(2, max_pc))
        slot_fields = [(f"l{i}", BOOL) for i in range(num_slots)] or [("l0", BOOL)]
        locals_sort = StructSort("Locals", slot_fields)
        global_fields = [(name, BOOL) for name in global_names] or [("__noglobals", BOOL)]
        globals_sort = StructSort("Globals", global_fields)
        state_sort = StructSort(
            "State",
            [
                ("mod", module_sort),
                ("pc", pc_sort),
                ("L", locals_sort),
                ("G", globals_sort),
            ],
        )
        return cls(
            module_sort=module_sort,
            pc_sort=pc_sort,
            locals_sort=locals_sort,
            globals_sort=globals_sort,
            state_sort=state_sort,
            global_names=list(global_names),
            num_slots=max(1, num_slots),
        )

    def local_field(self, slot: int) -> str:
        """Name of the locals-struct field for a slot index."""
        if not 0 <= slot < self.locals_sort.width:
            raise IndexError(f"local slot {slot} out of range")
        return f"l{slot}"

    def global_field(self, name: str) -> str:
        """Name of the globals-struct field for a global variable."""
        if name not in self.global_names and self.globals_sort.has_field(name):
            return name
        if name not in self.global_names:
            raise KeyError(f"unknown global variable {name!r}")
        return name

    @property
    def state_bits(self) -> int:
        """Number of Boolean components of one program state."""
        return self.state_sort.width
