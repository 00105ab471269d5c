"""Template relations of a sequential Boolean program as BDDs.

The encoder produces exactly the interface described in Section 4 of the
paper (and in Figure 1): the relations ``ProgramInt``, ``IntoCall``,
``Return``, ``Entry``, ``Exit``, ``Init`` and ``Target``, each represented by
a BDD over the bits of its canonical parameters.  The reachability
*algorithms* (the fixed-point formulas of Sections 4.1–4.3) are written
purely against these relations and never look at the program again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from ..boolprog.ast import Expr, Nondet
from ..boolprog.cfg import ProcedureCfg, ProgramCfg, RETURN_SLOT_PREFIX
from ..fixedpoint import RelationDecl, Var
from ..fixedpoint.symbolic import SymbolicBackend
from ..fixedpoint.terms import Field
from .expressions import ChoicePool, VariableResolver, compile_expr
from .statespace import StateSpace

__all__ = ["TemplateSet", "SequentialEncoder"]


@dataclass
class TemplateSet:
    """Declarations and BDD interpretations of the program template relations."""

    space: StateSpace
    decls: Dict[str, RelationDecl]
    interpretations: Dict[str, int]
    module_index: Dict[str, int]
    main_module: int

    def decl(self, name: str) -> RelationDecl:
        """The declaration of a template relation."""
        return self.decls[name]

    def inputs(self) -> List[RelationDecl]:
        """All template declarations (the input relations of the algorithms)."""
        return list(self.decls.values())

    def interps(self) -> Dict[str, int]:
        """Relation name -> BDD interpretation."""
        return dict(self.interpretations)


class SequentialEncoder:
    """Builds the template relations of a sequential Boolean program."""

    def __init__(self, cfg: ProgramCfg) -> None:
        self.cfg = cfg
        self.space = StateSpace.build(
            num_modules=max(1, len(cfg.procedures)),
            max_pc=cfg.max_pc,
            num_slots=cfg.max_slots,
            global_names=cfg.program.globals,
        )
        state = self.space.state_sort
        module = self.space.module_sort
        pc = self.space.pc_sort
        # The parameter names match the arguments every algorithm applies
        # the templates to (``ProgramInt(x, v)``, ``Return(x, z, v)``, ...),
        # so those applications need no rename; only the entry clauses'
        # ``IntoCall(y, u)`` does.
        self.decls: Dict[str, RelationDecl] = {
            "ProgramInt": RelationDecl("ProgramInt", [("x", state), ("v", state)]),
            "IntoCall": RelationDecl("IntoCall", [("x", state), ("y", state)]),
            "Return": RelationDecl("Return", [("x", state), ("z", state), ("v", state)]),
            "Entry": RelationDecl("Entry", [("mod", module), ("pc", pc)]),
            "Exit": RelationDecl("Exit", [("mod", module), ("pc", pc)]),
            "Init": RelationDecl("Init", [("u", state)]),
            "Target": RelationDecl("Target", [("mod", module), ("pc", pc)]),
        }

    # ------------------------------------------------------------------
    def input_decls(self) -> List[RelationDecl]:
        """The template declarations, to be listed as equation-system inputs."""
        return list(self.decls.values())

    def encode(
        self,
        backend: SymbolicBackend,
        target_locations: Sequence[Tuple[int, int]],
    ) -> TemplateSet:
        """Build every template BDD using the backend's manager.

        ``target_locations`` is the list of (module index, pc) pairs whose
        reachability is being asked about.
        """
        templates = self.encode_base(backend)
        templates.interpretations["Target"] = self.encode_target(backend, target_locations)
        return templates

    def encode_base(self, backend: SymbolicBackend) -> TemplateSet:
        """Build the six *target-independent* template BDDs.

        Everything the program itself determines — ``ProgramInt``,
        ``IntoCall``, ``Return``, ``Entry``, ``Exit``, ``Init`` — is encoded
        here; only ``Target`` depends on the query, so a compile-once /
        query-many session encodes this base a single time and calls
        :meth:`encode_target` per query.  The returned set has no ``Target``
        interpretation (its declaration is still listed).
        """
        self._bind(backend)
        interpretations = {
            "ProgramInt": self._encode_internal(),
            "IntoCall": self._encode_into_call(),
            "Return": self._encode_return(),
            "Entry": self._encode_entry(),
            "Exit": self._encode_exit(),
            "Init": self._encode_init(),
        }
        return TemplateSet(
            space=self.space,
            decls=dict(self.decls),
            interpretations=interpretations,
            module_index=dict(self.cfg.module_index),
            main_module=self.cfg.module_of(self.cfg.program.main),
        )

    def encode_target(
        self,
        backend: SymbolicBackend,
        target_locations: Sequence[Tuple[int, int]],
    ) -> int:
        """Build just the ``Target`` BDD for one query's locations."""
        self._bind(backend)
        return self._encode_target(target_locations)

    def _bind(self, backend: SymbolicBackend) -> None:
        self._backend = backend
        self._manager = backend.manager
        self._context = backend.context
        self._choices = ChoicePool(self._manager)
        self._location_levels: Dict[str, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        self._frames: Dict[Tuple[str, str, str, FrozenSet[str]], int] = {}

    # ------------------------------------------------------------------
    # Canonical state variables
    # ------------------------------------------------------------------
    def state_var(self, name: str) -> Var:
        """A canonical state-sorted variable (``u``, ``v``, ``x``, ...)."""
        return Var(name, self.space.state_sort)

    def _resolver(self, procedure: ProcedureCfg) -> VariableResolver:
        return VariableResolver(self.space, procedure.slot_of, self._global_map())

    def _global_map(self) -> Dict[str, str]:
        return {name: name for name in self.space.global_names}

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def _location(self, holder: str, module: int, pc: int) -> Dict[int, bool]:
        """The literals, by level, of ``holder.mod = module ∧ holder.pc = pc``.

        ``holder`` names a state copy, or is ``""`` for the ``mod``/``pc``
        parameters of the location relations.  Each holder's level lists
        are computed once per bind.
        """
        levels = self._location_levels.get(holder)
        if levels is None:
            if holder:
                state = self.state_var(holder)
                terms = (Field(state, "mod"), Field(state, "pc"))
            else:
                terms = (Var("mod", self.space.module_sort), Var("pc", self.space.pc_sort))
            levels = tuple(self._context.levels(term) for term in terms)
            self._location_levels[holder] = levels
        literals = dict(zip(levels[0], self.space.module_sort.encode(module)))
        literals.update(zip(levels[1], self.space.pc_sort.encode(pc)))
        return literals

    def _at(self, *locations: Tuple[Var, int, int]) -> int:
        """The cube putting each ``(state, module, pc)`` state at its location."""
        literals: Dict[int, bool] = {}
        for state, module, pc in locations:
            literals.update(self._location(state.__dict__["name"], module, pc))
        return self._manager.cube(literals)

    def _fields_equal(
        self, part: str, left: Var, right: Var, except_fields: Iterable[str] = ()
    ) -> int:
        """``left`` and ``right`` agree on each ``part`` field not in ``except_fields``.

        ``part`` is ``"G"`` (globals) or ``"L"`` (locals).  The edge is
        memoised per bind, so no memoised edge outlives an encode pass.
        """
        skip = frozenset(except_fields)
        key = (part, left.__dict__["name"], right.__dict__["name"], skip)
        node = self._frames.get(key)
        if node is None:
            mgr = self._manager
            sort = self.space.globals_sort if part == "G" else self.space.locals_sort
            node = mgr.TRUE
            for field_name in sort.field_names():
                if field_name in skip:
                    continue
                left_bit = f"{key[1]}.{part}.{field_name}"
                right_bit = f"{key[2]}.{part}.{field_name}"
                node = mgr.and_(node, mgr.iff(mgr.var(left_bit), mgr.var(right_bit)))
            self._frames[key] = node
        return node

    def _assign_constraint(
        self,
        source: Var,
        target: Var,
        resolver: VariableResolver,
        assigns: Dict[str, Expr],
    ) -> int:
        """``target`` equals ``source`` after the simultaneous assignment."""
        mgr = self._manager
        assigned_local_fields = set()
        assigned_global_fields = set()
        node = mgr.TRUE
        for name, expression in assigns.items():
            target_bit = resolver.bit_name(target, name)
            if resolver.is_global(name):
                assigned_global_fields.add(target_bit.rsplit(".", 1)[-1])
            else:
                assigned_local_fields.add(target_bit.rsplit(".", 1)[-1])
            if isinstance(expression, Nondet):
                # The target bit is left unconstrained: any value is allowed.
                continue
            value = compile_expr(expression, source, resolver, mgr, self._choices)
            node = mgr.and_(node, mgr.iff(mgr.var(target_bit), value))
        node = mgr.and_(node, self._fields_equal("L", source, target, assigned_local_fields))
        node = mgr.and_(node, self._fields_equal("G", source, target, assigned_global_fields))
        return node

    # ------------------------------------------------------------------
    # Template relations
    # ------------------------------------------------------------------
    def _encode_internal(self) -> int:
        mgr = self._manager
        x = self.state_var("x")
        v = self.state_var("v")
        disjuncts: List[int] = []
        for name, procedure in self.cfg.procedures.items():
            module = self.cfg.module_of(name)
            resolver = self._resolver(procedure)
            for edge in procedure.internal_edges:
                self._choices.reset()
                node = self._at((x, module, edge.source), (v, module, edge.target))
                if edge.guard is not None:
                    node = mgr.and_(node, compile_expr(edge.guard, x, resolver, mgr, self._choices))
                node = mgr.and_(node, self._assign_constraint(x, v, resolver, edge.assigns))
                disjuncts.append(self._choices.quantify(node))
        return mgr.disjoin(disjuncts)

    def _encode_into_call(self) -> int:
        mgr = self._manager
        x = self.state_var("x")
        y = self.state_var("y")
        disjuncts: List[int] = []
        for name, procedure in self.cfg.procedures.items():
            module = self.cfg.module_of(name)
            caller_resolver = self._resolver(procedure)
            for edge in procedure.call_edges:
                self._choices.reset()
                callee_cfg = self.cfg.procedure_cfg(edge.callee)
                callee_module = self.cfg.module_of(edge.callee)
                callee = self.cfg.program.procedure(edge.callee)
                node = self._at((x, module, edge.source), (y, callee_module, callee_cfg.entry))
                node = mgr.and_(node, self._fields_equal("G", x, y))
                param_fields = set()
                for param_name, argument in zip(callee.params, edge.args):
                    slot = callee_cfg.slot_of[param_name]
                    field_name = self.space.local_field(slot)
                    param_fields.add(field_name)
                    param_bit = f"y.L.{field_name}"
                    if isinstance(argument, Nondet):
                        continue
                    value = compile_expr(argument, x, caller_resolver, mgr, self._choices)
                    node = mgr.and_(node, mgr.iff(mgr.var(param_bit), value))
                # Non-parameter locals (including return registers and unused
                # slots) start the callee initialised to False.
                for field_name in self.space.locals_sort.field_names():
                    if field_name not in param_fields:
                        node = mgr.and_(node, mgr.nvar(f"y.L.{field_name}"))
                disjuncts.append(self._choices.quantify(node))
        return mgr.disjoin(disjuncts)

    def _encode_return(self) -> int:
        mgr = self._manager
        x = self.state_var("x")
        z = self.state_var("z")
        v = self.state_var("v")
        disjuncts: List[int] = []
        for name, procedure in self.cfg.procedures.items():
            module = self.cfg.module_of(name)
            caller_resolver = self._resolver(procedure)
            for edge in procedure.call_edges:
                callee_cfg = self.cfg.procedure_cfg(edge.callee)
                callee_module = self.cfg.module_of(edge.callee)
                node = self._at(
                    (x, module, edge.source),
                    (z, callee_module, callee_cfg.exit),
                    (v, module, edge.return_pc),
                )
                assigned_local_fields = set()
                assigned_global_fields = set()
                for index, target_name in enumerate(edge.targets):
                    ret_slot = callee_cfg.slot_of[f"{RETURN_SLOT_PREFIX}{index}"]
                    ret_bit = f"z.L.{self.space.local_field(ret_slot)}"
                    target_bit = caller_resolver.bit_name(v, target_name)
                    if caller_resolver.is_global(target_name):
                        assigned_global_fields.add(target_bit.rsplit(".", 1)[-1])
                    else:
                        assigned_local_fields.add(target_bit.rsplit(".", 1)[-1])
                    node = mgr.and_(node, mgr.iff(mgr.var(target_bit), mgr.var(ret_bit)))
                node = mgr.and_(node, self._fields_equal("G", z, v, assigned_global_fields))
                node = mgr.and_(node, self._fields_equal("L", x, v, assigned_local_fields))
                disjuncts.append(node)
        return mgr.disjoin(disjuncts)

    def _encode_entry(self) -> int:
        return self._location_relation(lambda cfg: cfg.entry)

    def _encode_exit(self) -> int:
        return self._location_relation(lambda cfg: cfg.exit)

    def _location_relation(self, pick) -> int:
        return self._encode_target(
            [
                (self.cfg.module_of(name), pick(procedure))
                for name, procedure in self.cfg.procedures.items()
            ]
        )

    def _encode_init(self) -> int:
        mgr = self._manager
        u = self.state_var("u")
        main_cfg = self.cfg.procedure_cfg(self.cfg.program.main)
        literals = self._location("u", self.cfg.module_of(self.cfg.program.main), main_cfg.entry)
        # Deterministic initialisation: every variable starts False (programs
        # introduce nondeterminism explicitly with `x := *`).
        for field_name in self.space.locals_sort.field_names():
            literals[mgr.var_index(f"u.L.{field_name}")] = False
        for field_name in self.space.globals_sort.field_names():
            literals[mgr.var_index(f"u.G.{field_name}")] = False
        return mgr.cube(literals)

    def _encode_target(self, locations: Sequence[Tuple[int, int]]) -> int:
        """The relation over the ``mod``/``pc`` parameters holding exactly
        at ``locations``."""
        mgr = self._manager
        return mgr.disjoin(
            mgr.cube(self._location("", module, pc)) for module, pc in locations
        )
