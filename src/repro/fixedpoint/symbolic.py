"""Symbolic (BDD) backend of the fixed-point calculus.

This is the reproduction's stand-in for MUCKE's evaluation core: formulas are
compiled into ROBDDs over *bit variables*, one bit per Boolean component of
each typed variable (``u`` of sort ``Conf`` owns bits ``u.pc.0``, ``u.L.x``,
...).  Relation interpretations are BDDs over the bits of the relation's
*canonical parameter variables* (the parameter names used in its
declaration); applying a relation to other argument terms renames or
constrains those bits accordingly.

Static-formula hoisting
-----------------------
Fixed-point evaluation re-evaluates equation bodies hundreds of times, but
only the interpretations of the *defined* relations change between
iterations.  Every equality, enum comparison, domain constraint and constant
cube is the same BDD each round, and so is every application of an input
relation whose interpretation is fixed for the run — the program's template
relations, which a session keeps for its whole lifetime.
:meth:`SymbolicBackend.compile_formula` therefore partitions a formula once
into a **static skeleton** and a small **dynamic residue**.  The skeleton
holds every subformula that is relation-free or applies only *bound*
relations (the ``bound`` mapping of input edges, restricted and renamed once
and folded into the enclosing conjunction or disjunction), compiled to BDDs
up front.  The residue is the plan nodes over the remaining relation
applications.  Every dynamic plan node carries a memo table keyed by the
interpretations of exactly the relations it mentions, so a subformula whose
relations did not change between iterations is never recomputed — the
short-circuit that makes the nested (non-monotone) evaluation strategy cheap.

A compiled plan records the input edges it bound and keeps them
GC-protected, so no sweep can recycle a bound node id for another function.
:meth:`SymbolicBackend.eval_equation` recompiles (and releases the old plan)
whenever a caller binds different edges, so a binding never goes stale.

Garbage-collection contract
---------------------------
The manager's mark-and-sweep collector (see :mod:`repro.bdd.manager`) only
runs at safe points, and this backend is its main client:

* every *static* edge the compiled plans hold forever (hoisted skeletons,
  quantifier domain constraints, the context's domain-constraint cache) is
  GC-protected via :meth:`BddManager.ref` when it is built;
* every plan memo is registered with the backend, and the backend installs a
  manager GC hook that clears them all whenever a sweep reclaims nodes — an
  interpretation-keyed memo can therefore never resurrect a dead node;
* evaluators call :meth:`SymbolicBackend.gc_step` between outer fixed-point
  iterations with the currently live interpretation edges as extra roots,
  which is the safe point where :meth:`BddManager.maybe_collect` may sweep.

:meth:`SymbolicBackend.clear_caches` composes the whole stack: plan memos,
this backend's memo counters, the context's domain cache and the manager's
caches, statistics and GC bookkeeping are reset together between runs.
"""

from __future__ import annotations

from operator import itemgetter
from types import MappingProxyType
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..bdd import BddError, BddManager
from ..testing import faults
from .formulas import (
    And,
    BoolAtom,
    Bottom,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Le,
    Lt,
    Not,
    Or,
    RelApp,
    Succ,
    Top,
    all_vars,
    relations_of,
)
from .relations import Equation, EquationSystem, RelationDecl
from .sorts import BoolSort, EnumSort, Sort, StructSort
from .terms import Const, Term, Var

__all__ = ["SymbolicContext", "SymbolicBackend", "default_bit_order"]

#: The empty binding: every relation application stays dynamic.
_UNBOUND: Mapping[str, int] = MappingProxyType({})


def default_bit_order(variables: Sequence[Var]) -> List[str]:
    """Interleaved default ordering of the bits of a set of typed variables.

    The bits of a struct-sorted variable are grouped by their *path* (the
    part after the variable prefix), so that the corresponding components of
    different state copies sit next to each other — the standard good
    ordering for symbolic transition relations and the analogue of the
    "allocation constraints" Getafix hands to MUCKE.  The bits of any other
    variable are grouped by their full name: the ``mod``/``pc`` parameters
    of the location relations then join the ``mod.*``/``pc.*`` groups of
    the state copies, in the same relative order, so projecting them onto a
    state copy is a monotone shift.
    """
    path_rank: Dict[str, int] = {}
    var_rank: Dict[str, int] = {}
    bits: List[Tuple[str, str]] = []  # (group path, full bit name)
    for var in variables:
        name = var.__dict__["name"]
        if name in var_rank:
            continue
        var_rank[name] = len(var_rank)
        struct = isinstance(var.sort, StructSort)
        for path, bit in zip(var.sort.bit_paths(), var.bit_names()):
            if not struct:
                path = bit
            if path not in path_rank:
                path_rank[path] = len(path_rank)
            bits.append((path, bit))
    bits.sort(key=lambda item: (path_rank[item[0]], var_rank[item[1].split(".", 1)[0]]))
    return [bit for _, bit in bits]


class _Plan:
    """A compiled formula node: static skeleton plus dynamic residue.

    ``rel_names`` is the sorted tuple of relation names this subformula
    depends on; ``memo`` caches results keyed by those relations'
    interpretations (BDD nodes are canonical, so equal nodes mean equal
    interpretations): the one edge for a single relation, else their tuple,
    as ``operator.itemgetter`` returns them.  ``bound_edges`` are the input
    edges the root of a compiled plan folded into its skeleton (protected
    for the plan's lifetime).
    """

    __slots__ = ("rel_names", "memo", "released", "bound_edges", "_key")

    def __init__(self, rel_names: Tuple[str, ...]) -> None:
        self.rel_names = rel_names
        self.memo: Dict[object, int] = {}
        self.released = False
        self.bound_edges: Tuple[int, ...] = ()
        self._key = itemgetter(*rel_names) if rel_names else None

    def eval(self, backend: "SymbolicBackend", interps: Mapping[str, int]) -> int:
        try:
            key = self._key(interps)
        except KeyError as exc:
            raise KeyError(
                f"no interpretation provided for relation {exc.args[0]!r}"
            ) from None
        cached = self.memo.get(key)
        if cached is not None:
            backend.plan_memo_hits += 1
            return cached
        backend.plan_memo_misses += 1
        result = self._compute(backend, interps)
        self.memo[key] = result
        return result

    def _compute(self, backend: "SymbolicBackend", interps: Mapping[str, int]) -> int:
        raise NotImplementedError

    def child_plans(self) -> Tuple["_Plan", ...]:
        """Direct sub-plans (for release walks over a plan tree)."""
        return ()

    def protected_edges(self) -> Tuple[int, ...]:
        """Static edges this plan node had GC-protected at compile time."""
        return ()


class _StaticPlan(_Plan):
    """A subformula free of unbound relations, compiled once at plan-build time."""

    __slots__ = ("node",)

    def __init__(self, node: int) -> None:
        super().__init__(())
        self.node = node

    def eval(self, backend: "SymbolicBackend", interps: Mapping[str, int]) -> int:
        return self.node

    def protected_edges(self) -> Tuple[int, ...]:
        return (self.node,)


class _RelAppPlan(_Plan):
    """A relation application with its restrict/rename maps interned once."""

    __slots__ = ("name", "maps")

    def __init__(self, name: str, maps: "_RelAppMaps") -> None:
        super().__init__((name,))
        self.name = name
        self.maps = maps

    def _compute(self, backend: "SymbolicBackend", interps: Mapping[str, int]) -> int:
        return backend._apply_relation(interps[self.name], self.maps)


class _NotPlan(_Plan):
    __slots__ = ("child",)

    def __init__(self, child: _Plan) -> None:
        super().__init__(child.rel_names)
        self.child = child

    def _compute(self, backend: "SymbolicBackend", interps: Mapping[str, int]) -> int:
        return backend.manager.not_(self.child.eval(backend, interps))

    def child_plans(self) -> Tuple[_Plan, ...]:
        return (self.child,)


class _NaryPlan(_Plan):
    """Conjunction/disjunction with the static parts pre-combined."""

    __slots__ = ("static_node", "children", "is_and")

    def __init__(self, static_node: int, children: Sequence[_Plan], is_and: bool) -> None:
        super().__init__(_merge_rel_names(children))
        self.static_node = static_node
        self.children = tuple(children)
        self.is_and = is_and

    def _compute(self, backend: "SymbolicBackend", interps: Mapping[str, int]) -> int:
        mgr = backend.manager
        result = self.static_node
        if self.is_and:
            for child in self.children:
                if result == mgr.FALSE:
                    return mgr.FALSE
                result = mgr.and_(result, child.eval(backend, interps))
        else:
            for child in self.children:
                if result == mgr.TRUE:
                    return mgr.TRUE
                result = mgr.or_(result, child.eval(backend, interps))
        return result

    def child_plans(self) -> Tuple[_Plan, ...]:
        return self.children

    def protected_edges(self) -> Tuple[int, ...]:
        return (self.static_node,)


class _ImpliesPlan(_Plan):
    __slots__ = ("antecedent", "consequent")

    def __init__(self, antecedent: _Plan, consequent: _Plan) -> None:
        super().__init__(_merge_rel_names((antecedent, consequent)))
        self.antecedent = antecedent
        self.consequent = consequent

    def _compute(self, backend: "SymbolicBackend", interps: Mapping[str, int]) -> int:
        return backend.manager.implies(
            self.antecedent.eval(backend, interps),
            self.consequent.eval(backend, interps),
        )

    def child_plans(self) -> Tuple[_Plan, ...]:
        return (self.antecedent, self.consequent)


class _IffPlan(_Plan):
    __slots__ = ("left", "right")

    def __init__(self, left: _Plan, right: _Plan) -> None:
        super().__init__(_merge_rel_names((left, right)))
        self.left = left
        self.right = right

    def _compute(self, backend: "SymbolicBackend", interps: Mapping[str, int]) -> int:
        return backend.manager.iff(
            self.left.eval(backend, interps), self.right.eval(backend, interps)
        )

    def child_plans(self) -> Tuple[_Plan, ...]:
        return (self.left, self.right)


class _ExistsPlan(_Plan):
    """Existential quantification fused into a relational product.

    The domain constraint of the bound variables is static and the
    quantifier cube is interned once, so each evaluation is a single
    ``and_exists`` over the dynamic body.
    """

    __slots__ = ("child", "constraint", "cube")

    def __init__(self, child: _Plan, constraint: int, cube) -> None:
        super().__init__(child.rel_names)
        self.child = child
        self.constraint = constraint
        self.cube = cube

    def _compute(self, backend: "SymbolicBackend", interps: Mapping[str, int]) -> int:
        mgr = backend.manager
        body = self.child.eval(backend, interps)
        if self.cube is None:
            return mgr.and_(body, self.constraint)
        if self.constraint == mgr.TRUE:
            return mgr.exists(body, self.cube)
        return mgr.and_exists(body, self.constraint, self.cube)

    def child_plans(self) -> Tuple[_Plan, ...]:
        return (self.child,)

    def protected_edges(self) -> Tuple[int, ...]:
        return (self.constraint,)


class _ForallPlan(_Plan):
    __slots__ = ("child", "neg_constraint", "cube")

    def __init__(self, child: _Plan, neg_constraint: int, cube) -> None:
        super().__init__(child.rel_names)
        self.child = child
        self.neg_constraint = neg_constraint
        self.cube = cube

    def _compute(self, backend: "SymbolicBackend", interps: Mapping[str, int]) -> int:
        mgr = backend.manager
        body = mgr.or_(self.child.eval(backend, interps), self.neg_constraint)
        if self.cube is None:
            return body
        return mgr.forall(body, self.cube)

    def child_plans(self) -> Tuple[_Plan, ...]:
        return (self.child,)

    def protected_edges(self) -> Tuple[int, ...]:
        return (self.neg_constraint,)


class _RelAppMaps(NamedTuple):
    """How a relation application moves an interpretation onto its arguments.

    ``restrict`` fixes the parameter bits bound to constants (an interned
    map, or None).  ``rename`` maps the level of every other parameter bit to
    the level of its argument bit where the two differ; ``rename_map`` is
    that map interned, or None when it is empty or not injective (two
    parameters bound to one argument), which only the general fall-back of
    :meth:`SymbolicBackend._apply_relation` handles.
    """

    restrict: Optional[object]
    rename: Dict[int, int]
    rename_map: Optional[object]


def _dynamic_nodes(formula: Formula, found: Set[int], bound: Mapping[str, int]) -> bool:
    """Add the ids of ``formula``'s subformulas that apply a relation not in
    ``bound`` to ``found``; True iff ``formula`` itself does."""
    dynamic = isinstance(formula, RelApp) and formula.decl.name not in bound
    for child in formula.children():
        dynamic = _dynamic_nodes(child, found, bound) or dynamic
    if dynamic:
        found.add(id(formula))
    return dynamic


def _merge_rel_names(plans: Iterable[_Plan]) -> Tuple[str, ...]:
    names: Set[str] = set()
    for plan in plans:
        names.update(plan.rel_names)
    return tuple(sorted(names))


class SymbolicContext:
    """Owns the BDD manager and the typed-variable-to-bits mapping."""

    def __init__(
        self,
        variables: Sequence[Var],
        order: Optional[Sequence[str]] = None,
        manager: Optional[BddManager] = None,
    ) -> None:
        self.variables: Dict[str, Var] = {}
        for var in variables:
            self._record(var)
        if order is None:
            order = default_bit_order(list(self.variables.values()))
        known_bits = {
            bit for var in self.variables.values() for bit in var.bit_names()
        }
        missing = known_bits - set(order)
        extra = [name for name in order if name not in known_bits]
        if extra:
            raise ValueError(f"order mentions unknown bits: {sorted(extra)[:5]}")
        full_order = list(order) + sorted(missing)
        self.manager = manager if manager is not None else BddManager(full_order)
        if manager is not None:
            for bit in full_order:
                if not manager.has_var(bit):
                    manager.add_var(bit)
        # Both keyed by a term's bit-name prefix and sort, which fix its bits.
        self._levels: Dict[Tuple[str, Sort], Tuple[int, ...]] = {}
        self._domain_cache: Dict[Tuple[str, Sort], int] = {}

    def _record(self, var: Var) -> None:
        name = var.__dict__["name"]
        existing = self.variables.get(name)
        if existing is not None:
            if existing.sort != var.sort:
                raise TypeError(
                    f"typed variable {name!r} declared with two different sorts"
                )
            return
        self.variables[name] = var

    # -- term-level helpers ---------------------------------------------
    def levels(self, term: Term) -> Tuple[int, ...]:
        """The manager levels of the bits of ``term``, in encoding order.

        Computed once per term layout: variables never change level.
        """
        key = (term.prefix, term.sort)
        levels = self._levels.get(key)
        if levels is None:
            levels = tuple(map(self.manager.var_index, term.bit_names()))
            self._levels[key] = levels
        return levels

    def encode_cube(self, term: Term, value: Any) -> int:
        """The cube asserting that ``term`` equals the constant ``value``."""
        return self.manager.cube(dict(zip(self.levels(term), term.sort.encode(value))))

    def domain_constraint(self, term: Term) -> int:
        """BDD constraining ``term`` to valid values of its sort.

        Only enum sorts whose size is not a power of two produce a non-trivial
        constraint; everything else is TRUE.  Cached constraints are
        GC-protected for the lifetime of the cache entry.
        """
        key = (term.prefix, term.sort)
        cached = self._domain_cache.get(key)
        if cached is not None:
            return cached
        node = self._domain_constraint(term.sort, self.levels(term))
        self._domain_cache[key] = self.manager.ref(node)
        return node

    def _domain_constraint(self, sort: Sort, levels: Sequence[int]) -> int:
        mgr = self.manager
        if isinstance(sort, BoolSort):
            return mgr.TRUE
        if isinstance(sort, EnumSort):
            # TRUE when the size is a power of two.
            return mgr.at_most(levels, sort.size() - 1)
        if isinstance(sort, StructSort):
            node = mgr.TRUE
            offset = 0
            for _, field_sort in sort.fields:
                width = field_sort.width
                node = mgr.and_(
                    node, self._domain_constraint(field_sort, levels[offset : offset + width])
                )
                offset += width
            return node
        raise TypeError(f"unknown sort {sort!r}")

    def decode_assignment(self, term: Term, assignment: Mapping[str, bool]) -> Any:
        """Decode the value of ``term`` from a bit assignment (by bit name)."""
        bits = [bool(assignment.get(name, False)) for name in term.bit_names()]
        return term.sort.decode(bits)

    def clear_caches(self) -> None:
        """Drop the context's own caches *and* the manager's operation caches.

        The manager's :meth:`~repro.bdd.BddManager.clear_caches` does not know
        about this context's domain-constraint cache; engines reusing a
        context between runs should call this method instead so the two stay
        in sync.  Cached domain constraints are dereferenced (they become
        collectable) and the manager also resets its statistics and GC
        bookkeeping, so snapshots taken after a clear describe a fresh run.
        """
        for node in self._domain_cache.values():
            self.manager.deref(node)
        self._domain_cache.clear()
        self.manager.clear_caches()


class SymbolicBackend:
    """Evaluates calculus formulas and equations as BDDs.

    Parameters
    ----------
    system:
        The equation system whose relations will be evaluated.
    extra_variables:
        Additional typed variables to allocate bits for (for example the
        canonical parameters used by an encoder when building the input
        relations) beyond those appearing in the equations.
    order:
        Optional explicit bit order; defaults to :func:`default_bit_order`.
    manager:
        Optional pre-built :class:`BddManager` to evaluate in (for example a
        snapshot overlay attached to a frozen solved table); its existing
        variable order is adopted as the bit order.  Mutually exclusive with
        ``order`` and ``context``.
    """

    def __init__(
        self,
        system: EquationSystem,
        extra_variables: Sequence[Var] = (),
        order: Optional[Sequence[str]] = None,
        context: Optional[SymbolicContext] = None,
        manager: Optional[BddManager] = None,
    ) -> None:
        self.system = system
        variables: List[Var] = []
        for equation in system.equations.values():
            variables.extend(equation.decl.param_vars())
            variables.extend(all_vars(equation.body).values())
        for decl in system.inputs.values():
            variables.extend(decl.param_vars())
        variables.extend(extra_variables)
        if manager is not None:
            if context is not None or order is not None:
                raise ValueError("manager is mutually exclusive with order/context")
            # An adopted manager (snapshot overlay, shared context) may own
            # levels beyond this system's declared bits — e.g. lazily
            # allocated nondet choice bits from a previous encode.  Those
            # levels stay valid in the manager; the context order only maps
            # the bits this system declares.
            known_bits = {
                bit for var in variables for bit in var.bit_names()
            }
            context = SymbolicContext(
                variables,
                order=[name for name in manager.var_names if name in known_bits],
                manager=manager,
            )
        self.context = context if context is not None else SymbolicContext(variables, order=order)
        self.manager = self.context.manager
        # Compiled equation bodies (name -> (equation, the relations the body
        # applies, the edges bound to them or None, plan)) plus hoisting
        # statistics; see the module docstring on static-formula hoisting.
        self._equation_plans: Dict[
            str, Tuple[Equation, Tuple[str, ...], Tuple[Optional[int], ...], _Plan]
        ] = {}
        self.static_hoists = 0
        self.plan_memo_hits = 0
        self.plan_memo_misses = 0
        # GC contract: memos of every compiled plan (cleared when a sweep
        # reclaims nodes, keyed by identity for O(1) release) and reference
        # counts of the static edges protected for plan lifetime.
        self._plan_memos: Dict[int, Dict[Tuple[int, ...], int]] = {}
        self._protected: Dict[int, int] = {}
        # Retained-interpretation protocol: reference counts of interpretation
        # edges a session keeps alive *across* queries (see retain/release).
        self._retained: Dict[int, int] = {}
        self.gc_steps = 0
        self.gc_collections = 0
        self.manager.add_gc_hook(self._clear_plan_memos)

    # -- backend protocol -------------------------------------------------
    def empty(self, decl: RelationDecl) -> int:
        """The empty interpretation (used to start fixed-point iteration)."""
        return self.manager.FALSE

    def equal(self, left: int, right: int) -> bool:
        """Interpretation equality (BDDs are canonical, so node equality)."""
        return left == right

    def eval_equation(
        self,
        equation: Equation,
        interps: Mapping[str, int],
        bound: Mapping[str, int] = _UNBOUND,
    ) -> int:
        """Evaluate the body of an equation under the given interpretations.

        The body is compiled to a hoisted plan the first time it is seen,
        with the applications of the relations in ``bound`` (the input
        edges fixed for the run) folded into its static skeleton;
        subsequent evaluations reuse the plan (and its interpretation-keyed
        memo), so iterations whose relevant relations did not change cost a
        dictionary lookup.  A call that binds different edges, or hands in
        a rebuilt Equation, recompiles and releases the superseded plan.
        """
        name = equation.decl.name
        entry = self._equation_plans.get(name)
        if entry is not None and entry[0] is equation:
            binding = tuple(map(bound.get, entry[1]))
            if binding == entry[2]:
                return entry[3].eval(self, interps)
        if entry is not None:
            # Release the superseded plan tree so its memos, protected
            # skeletons and bound edges do not accumulate forever.
            self.release_plan(entry[3])
        applied = tuple(sorted(relations_of(equation.body)))
        plan = self.compile_formula(equation.body, bound)
        self._equation_plans[name] = (
            equation, applied, tuple(map(bound.get, applied)), plan
        )
        return plan.eval(self, interps)

    # -- formula hoisting --------------------------------------------------
    def compile_formula(self, formula: Formula, bound: Mapping[str, int] = _UNBOUND) -> _Plan:
        """Partition ``formula`` into a static BDD skeleton + dynamic residue.

        ``bound`` maps input relations to interpretations that stay fixed
        for the plan's lifetime; their applications join the skeleton.  The
        caller must not evaluate the plan under other interpretations of
        those relations.  Static edges baked into the returned plan, and
        the bound edges it used, are GC-protected and every plan memo is
        registered for invalidation on collection.  One walk first marks
        the subformulas that apply an unbound relation.
        """
        bound = {name: bound[name] for name in relations_of(formula) if name in bound}
        dynamic: Set[int] = set()
        _dynamic_nodes(formula, dynamic, bound)
        plan = self._compile(formula, dynamic, bound)
        plan.bound_edges = tuple(self._protect(edge) for edge in bound.values())
        return plan

    def _compile(self, formula: Formula, dynamic: Set[int], bound: Mapping[str, int]) -> _Plan:
        if id(formula) not in dynamic:
            self.static_hoists += 1
            return self._register(_StaticPlan(self._protect(self.eval_formula(formula, bound))))
        mgr = self.manager
        if isinstance(formula, RelApp):
            return self._register(_RelAppPlan(formula.decl.name, self._rel_app_maps(formula)))
        if isinstance(formula, Not):
            return self._register(_NotPlan(self._compile(formula.body, dynamic, bound)))
        if isinstance(formula, (And, Or)):
            is_and = isinstance(formula, And)
            static_parts: List[Formula] = []
            dynamic_parts: List[Formula] = []
            for part in formula.parts:
                (dynamic_parts if id(part) in dynamic else static_parts).append(part)
            if is_and:
                static_node = mgr.conjoin(
                    self.eval_formula(part, bound) for part in static_parts
                )
            else:
                static_node = mgr.disjoin(
                    self.eval_formula(part, bound) for part in static_parts
                )
            if static_parts:
                self.static_hoists += 1
            children = [self._compile(part, dynamic, bound) for part in dynamic_parts]
            return self._register(_NaryPlan(self._protect(static_node), children, is_and))
        if isinstance(formula, Implies):
            return self._register(
                _ImpliesPlan(
                    self._compile(formula.antecedent, dynamic, bound),
                    self._compile(formula.consequent, dynamic, bound),
                )
            )
        if isinstance(formula, Iff):
            return self._register(
                _IffPlan(
                    self._compile(formula.left, dynamic, bound),
                    self._compile(formula.right, dynamic, bound),
                )
            )
        if isinstance(formula, Exists):
            child = self._compile(formula.body, dynamic, bound)
            constraint = mgr.conjoin(
                self.context.domain_constraint(var) for var in formula.variables
            )
            self.static_hoists += 1
            cube = mgr.quant_cube(self._bound_levels(formula))
            return self._register(_ExistsPlan(child, self._protect(constraint), cube))
        if isinstance(formula, Forall):
            child = self._compile(formula.body, dynamic, bound)
            constraint = mgr.conjoin(
                self.context.domain_constraint(var) for var in formula.variables
            )
            self.static_hoists += 1
            cube = mgr.quant_cube(self._bound_levels(formula))
            return self._register(_ForallPlan(child, self._protect(mgr.not_(constraint)), cube))
        raise TypeError(f"cannot compile formula node {formula!r}")

    def _bound_levels(self, formula: Formula) -> List[int]:
        """The levels of the bits a quantifier binds."""
        levels: List[int] = []
        for var in formula.variables:  # type: ignore[attr-defined]
            levels.extend(self.context.levels(var))
        return levels

    def _register(self, plan: _Plan) -> _Plan:
        """Track a plan's memo so GC sweeps can invalidate it."""
        self._plan_memos[id(plan.memo)] = plan.memo
        return plan

    def _protect(self, node: int) -> int:
        """GC-protect a static edge for the lifetime of this backend."""
        self.manager.ref(node)
        self._protected[node] = self._protected.get(node, 0) + 1
        return node

    def release_plan(self, plan: _Plan) -> None:
        """Undo registration/protection for a plan tree its owner dropped.

        Owners are :meth:`eval_equation` (a superseded equation body or
        binding) and the witness extractor (its compiled formulas, on
        close).

        Releasing is guarded twice: each plan node releases at most once
        (``released`` flag), and each deref is conditional on the tracked
        protection count.  Without the guards, releasing a tree twice — or
        after :meth:`close` already dropped the bookkeeping — would deref a
        protection that by then belongs to another owner (a sibling plan
        baking in the same static edge, or the context's domain-constraint
        cache), letting a sweep reclaim an edge that owner still hands out.
        """
        stack = [plan]
        while stack:
            node = stack.pop()
            stack.extend(node.child_plans())
            if node.released:
                continue
            node.released = True
            self._plan_memos.pop(id(node.memo), None)
            for edge in node.protected_edges() + node.bound_edges:
                count = self._protected.get(edge, 0)
                if count <= 0:
                    continue
                self.manager.deref(edge)
                if count == 1:
                    del self._protected[edge]
                else:
                    self._protected[edge] = count - 1

    def _clear_plan_memos(self) -> None:
        for memo in self._plan_memos.values():
            memo.clear()

    # -- retained interpretations -------------------------------------------
    #
    # The session API keeps fixed-point interpretations (and per-target
    # template relations) alive *between* queries.  Evaluators only hand out
    # unprotected edges, so a session must pin them explicitly; routing the
    # pin through the backend (instead of raw ``manager.ref``) keeps the
    # bookkeeping in one place, makes :meth:`close` release *everything* the
    # backend ever protected — static skeletons and retained interpretations
    # alike — and is GC-hook-safe: a retained edge is an external root for
    # mark-and-sweep, while the plan memos that may mention it are cleared by
    # the registered GC hook whenever a sweep reclaims nodes.

    def retain(self, edge: int) -> int:
        """GC-protect an interpretation edge across queries.

        Returns the edge for call chaining.  Balanced by :meth:`release`;
        :meth:`close` releases any outstanding retentions.
        """
        self.manager.ref(edge)
        self._retained[edge] = self._retained.get(edge, 0) + 1
        return edge

    def release(self, edge: int) -> None:
        """Undo one :meth:`retain` of ``edge`` (no-op when not retained).

        The count guard mirrors :meth:`release_plan`: releasing an edge this
        backend no longer tracks must not deref a reference that by now
        belongs to another owner.
        """
        count = self._retained.get(edge, 0)
        if count <= 0:
            return
        self.manager.deref(edge)
        if count == 1:
            del self._retained[edge]
        else:
            self._retained[edge] = count - 1

    def retained_count(self) -> int:
        """Number of distinct interpretation edges currently retained."""
        return len(self._retained)

    # -- garbage collection ------------------------------------------------
    def gc_step(self, roots: Iterable[int]) -> bool:
        """Safe-point collection trigger for evaluators.

        ``roots`` must enumerate every interpretation edge the caller still
        needs (current/updated relation values and the fixed inputs); the
        statically protected plan skeletons are already tracked as external
        references.  Returns True when a collection actually ran.

        Safe points are also where the manager enforces an armed deadline /
        node budget (see :meth:`BddManager.maybe_collect`) and where the
        fault-injection harness can raise deterministically.
        """
        self.gc_steps += 1
        faults.on_safe_point()
        collected = self.manager.maybe_collect(roots)
        if collected:
            self.gc_collections += 1
        return collected

    def clear_caches(self) -> None:
        """Reset every run-scoped cache and counter across the stack.

        Clears the plan memos and memo counters of this backend, the
        context's domain-constraint cache, and the manager's operation
        caches, statistics and GC bookkeeping (via
        :meth:`SymbolicContext.clear_caches`).  Compiled plans and their
        protected static skeletons survive — recompilation is never needed.
        """
        self._clear_plan_memos()
        self.plan_memo_hits = 0
        self.plan_memo_misses = 0
        self.gc_steps = 0
        self.gc_collections = 0
        self.context.clear_caches()

    def close(self) -> None:
        """Detach this backend from its manager (idempotent).

        Unregisters the GC hook and dereferences every protected static
        skeleton *and* every retained interpretation edge (see
        :meth:`retain`), making the backend's nodes collectable — after a
        close plus a sweep, the manager's live-node count and external
        references are back to what they were before this backend existed.
        Required only when the manager outlives the backend — i.e. several
        backends share one :class:`SymbolicContext`, or a session releases
        its compiled artifacts; the per-run engines drop manager and backend
        together and never need it.  A closed backend must not be used for
        further evaluation.
        """
        self.manager.remove_gc_hook(self._clear_plan_memos)
        for node, count in self._protected.items():
            for _ in range(count):
                self.manager.deref(node)
        self._protected.clear()
        for node, count in self._retained.items():
            for _ in range(count):
                self.manager.deref(node)
        self._retained.clear()
        self._clear_plan_memos()
        self._plan_memos.clear()
        self._equation_plans.clear()

    def stats_snapshot(self) -> Dict[str, object]:
        """Hoisting/memo/GC counters of this backend plus the manager's stats."""
        total = self.plan_memo_hits + self.plan_memo_misses
        return {
            "static_hoists": self.static_hoists,
            "plan_memo_hits": self.plan_memo_hits,
            "plan_memo_misses": self.plan_memo_misses,
            "plan_memo_hit_rate": (self.plan_memo_hits / total) if total else 0.0,
            "compiled_equations": len(self._equation_plans),
            "compiled_plans": len(self._plan_memos),
            "protected_nodes": len(self._protected),
            "retained_edges": len(self._retained),
            "gc_steps": self.gc_steps,
            "gc_collections": self.gc_collections,
            "manager": self.manager.stats(),
        }

    # -- formula compilation ----------------------------------------------
    def eval_formula(self, formula: Formula, interps: Mapping[str, int]) -> int:
        """Compile a formula to a BDD over the bits of its free variables."""
        mgr = self.manager
        if isinstance(formula, Top):
            return mgr.TRUE
        if isinstance(formula, Bottom):
            return mgr.FALSE
        if isinstance(formula, BoolAtom):
            return self._bool_term(formula.term)
        if isinstance(formula, Eq):
            return self._equality(formula.left, formula.right)
        if isinstance(formula, (Le, Lt, Succ)):
            return self._enum_compare(formula)
        if isinstance(formula, RelApp):
            return self._rel_app(formula, interps)
        if isinstance(formula, Not):
            return mgr.not_(self.eval_formula(formula.body, interps))
        if isinstance(formula, And):
            return mgr.conjoin(self.eval_formula(part, interps) for part in formula.parts)
        if isinstance(formula, Or):
            return mgr.disjoin(self.eval_formula(part, interps) for part in formula.parts)
        if isinstance(formula, Implies):
            return mgr.implies(
                self.eval_formula(formula.antecedent, interps),
                self.eval_formula(formula.consequent, interps),
            )
        if isinstance(formula, Iff):
            return mgr.iff(
                self.eval_formula(formula.left, interps),
                self.eval_formula(formula.right, interps),
            )
        if isinstance(formula, Exists):
            body = self.eval_formula(formula.body, interps)
            for var in formula.variables:
                body = mgr.and_(body, self.context.domain_constraint(var))
            return mgr.exists(body, self._bound_levels(formula))
        if isinstance(formula, Forall):
            body = self.eval_formula(formula.body, interps)
            for var in formula.variables:
                body = mgr.or_(body, mgr.not_(self.context.domain_constraint(var)))
            return mgr.forall(body, self._bound_levels(formula))
        raise TypeError(f"cannot compile formula node {formula!r}")

    # -- atoms -------------------------------------------------------------
    def _bool_term(self, term: Term) -> int:
        if isinstance(term, Const):
            return self.manager.TRUE if term.value else self.manager.FALSE
        (bit,) = term.bit_names()
        return self.manager.var(bit)

    def _equality(self, left: Term, right: Term) -> int:
        mgr = self.manager
        if isinstance(left, Const) and isinstance(right, Const):
            return mgr.TRUE if left.value == right.value else mgr.FALSE
        if isinstance(left, Const):
            left, right = right, left
        if isinstance(right, Const):
            return self.context.encode_cube(left, right.value)
        left_bits = left.bit_names()
        right_bits = right.bit_names()
        return mgr.conjoin(
            mgr.iff(mgr.var(a), mgr.var(b)) for a, b in zip(left_bits, right_bits)
        )

    def _enum_compare(self, formula: Formula) -> int:
        mgr = self.manager
        left, right = formula.left, formula.right  # type: ignore[attr-defined]
        sort: EnumSort = left.sort  # type: ignore[assignment]
        if isinstance(formula, Le):
            relation = lambda a, b: a <= b
        elif isinstance(formula, Lt):
            relation = lambda a, b: a < b
        else:  # Succ
            relation = lambda a, b: b == a + 1
        disjuncts = []
        for a in sort.values():
            for b in sort.values():
                if not relation(a, b):
                    continue
                cube = mgr.TRUE
                cube = mgr.and_(cube, self._term_equals_value(left, a))
                cube = mgr.and_(cube, self._term_equals_value(right, b))
                if cube != mgr.FALSE:
                    disjuncts.append(cube)
        return mgr.disjoin(disjuncts)

    def _term_equals_value(self, term: Term, value: Any) -> int:
        if isinstance(term, Const):
            return self.manager.TRUE if term.value == value else self.manager.FALSE
        return self.context.encode_cube(term, value)

    # -- relation application ------------------------------------------------
    def _rel_app_maps(self, formula: RelApp) -> _RelAppMaps:
        """The interned restrict and rename maps of an application of a
        relation to argument terms."""
        mgr = self.manager
        levels = self.context.levels
        restrict: Dict[int, bool] = {}
        rename: Dict[int, int] = {}
        for (param_name, sort), arg in zip(formula.decl.params, formula.args):
            param_levels = levels(Var(param_name, sort))
            if isinstance(arg, Const):
                restrict.update(zip(param_levels, sort.encode(arg.value)))
            else:
                for level, target in zip(param_levels, levels(arg)):
                    if level != target:
                        rename[level] = target
        injective = len(set(rename.values())) == len(rename)
        return _RelAppMaps(
            mgr.restrict_map(restrict),
            rename,
            mgr.rename_map(rename) if injective else None,
        )

    def _rel_app(self, formula: RelApp, interps: Mapping[str, int]) -> int:
        decl = formula.decl
        if decl.name not in interps:
            raise KeyError(f"no interpretation provided for relation {decl.name!r}")
        return self._apply_relation(interps[decl.name], self._rel_app_maps(formula))

    def _apply_relation(self, node: int, maps: _RelAppMaps) -> int:
        mgr = self.manager
        if maps.restrict is not None:
            node = mgr.restrict(node, maps.restrict)
        rename = maps.rename
        if not rename:
            return node
        if maps.rename_map is not None:
            # The manager validates the clash condition itself (and its
            # cross-call cache makes repeated renames O(1) without any
            # support walk); only genuinely clashing applications fall
            # through to the general path.
            try:
                return mgr.rename(node, maps.rename_map)
            except BddError:
                pass
        # General (and always correct) fall-back: conjoin bit equalities and
        # quantify the canonical parameter bits away.  If some source bit is
        # also a rename target (the relation is applied to a permutation of
        # its own parameters in a non-injective way), first move those source
        # bits to dedicated temporary bits so the quantification cannot
        # capture the targets.
        overlap = rename.keys() & set(rename.values())
        if overlap:
            stage_one: Dict[int, int] = {}
            for level in overlap:
                temp = f"__tmp.{mgr.var_name(level)}"
                stage_one[level] = (
                    mgr.var_index(temp) if mgr.has_var(temp) else mgr.add_var(temp)
                )
            node = mgr.rename(node, stage_one)
            rename = {stage_one.get(src, src): dst for src, dst in rename.items()}
        equalities = mgr.conjoin(
            mgr.iff(mgr.var(src), mgr.var(dst)) for src, dst in rename.items()
        )
        return mgr.and_exists(node, equalities, list(rename))

    # -- result inspection -----------------------------------------------------
    def models(self, node: int, decl: RelationDecl) -> Iterator[Tuple[Any, ...]]:
        """Enumerate the tuples of a relation interpretation (decoded values)."""
        params = decl.param_vars()
        bits: List[str] = []
        for var in params:
            bits.extend(var.bit_names())
        for assignment in self.manager.sat_all(node, bits):
            named = {self.manager.var_name(index): value for index, value in assignment.items()}
            values = tuple(self.context.decode_assignment(var, named) for var in params)
            # Skip assignments whose enum bits encode out-of-range junk values.
            if all(var.sort.is_valid(value) for var, value in zip(params, values)):
                yield values

    def count(self, node: int, decl: RelationDecl) -> int:
        """Number of tuples in an interpretation (over the raw bit encoding)."""
        bits: List[str] = []
        for var in decl.param_vars():
            bits.extend(var.bit_names())
        return self.manager.count_sat(node, bits)

    def node_count(self, node: int) -> int:
        """BDD size of an interpretation."""
        return self.manager.node_count(node)
