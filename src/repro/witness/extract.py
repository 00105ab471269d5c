"""Symbolic witness extraction from retained summary interpretations.

The extractor re-derives the *entry-forward* least fixed point (Section 4.2
of the paper) in explicit Kleene layers ``L[0] = FALSE``, ``L[k+1] =
F(L[k])`` over the session's retained base interpretations, then walks one
step at a time *backward* through the layers: a pair ``(u, v)`` that first
appears in layer ``k`` was produced by one of the entry-forward clauses from
pairs in layer ``k - 1``, and restricting the clause body to the concrete
pair leaves a satisfiable BDD over the intermediate states from which the
deterministic :meth:`~repro.bdd.BddManager.pick_cube` kernel primitive picks
one witness.  Ranks strictly decrease along the walk, so it terminates, and
every picked state satisfies the domain constraints of its sort.

The operator body, the initial-state formula and the three open clause
bodies are compiled once with
:meth:`~repro.fixedpoint.SymbolicBackend.compile_formula`, binding the
session's template relations, so every layer and clause evaluation reuses
the hoisted static skeleton (the templates already restricted, renamed and
conjoined) and the plans' interpretation-keyed memos; BDDs are canonical,
so each result is the same edge a direct formula evaluation would build.

``F`` is monotone and the iteration starts from FALSE, so the layers ascend:
``L[k]`` is a subset of ``L[k+1]``.  Hence "layer ``k`` holds the pair" and
"the entry clause over layer ``k``, restricted to a pinned entry, is
satisfiable" are both monotone in ``k``, and the first such layer is found
exactly by bisection with ``O(log K)`` tests instead of a scan.

All three sequential algorithms feed the same extractor: their solved
relations select a reachable ``(entry, target)`` pair (Theorems 2 and 3
relate ``Summary``/``ReachEntry`` and ``SummaryEFopt`` to the entry-forward
relation), and the layer walk itself only uses the base program templates.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..boolprog.cfg import ProgramCfg
from ..fixedpoint import And, BOOL, Eq, Exists, Or, RelationDecl, Var
from .trace import WitnessExtractionError, WitnessStep, WitnessTrace

__all__ = ["WitnessExtractor"]

# Keys of the extractor's formulas: the three moves of the entry-forward
# fixed point (named for the clause that produced the new pair), the
# operator itself and its initial states.
_INTERNAL = "internal"
_CALL = "call"
_ENTRY = "entry"
_OPERATOR = "operator"
_INITIAL = "initial"


class WitnessExtractor:
    """Backward trace extraction over a session's symbolic backend.

    The extractor allocates in the session's own BDD manager (so the solved
    interpretations stay valid handles) and GC-pins everything it keeps
    across calls — the Kleene layers and the per-layer clause bodies — via
    the backend's retain counts.  :meth:`close` releases them all, and the
    compiled plans with them.
    """

    def __init__(self, backend, templates, cfg: ProgramCfg) -> None:
        self.backend = backend
        self.manager = backend.manager
        self.context = backend.context
        self.templates = templates
        self.cfg = cfg
        self.space = templates.space
        state = self.space.state_sort
        self.state_sort = state
        self.decls = templates.decls
        self.base_interps: Dict[str, int] = templates.interps()
        self.u = Var("u", state)
        self.v = Var("v", state)
        self.x = Var("x", state)
        self.y = Var("y", state)
        self.z = Var("z", state)
        u, v, x, y, z = self.u, self.v, self.x, self.y, self.z

        ProgramInt = self.decls["ProgramInt"]
        IntoCall = self.decls["IntoCall"]
        Return = self.decls["Return"]
        Entry = self.decls["Entry"]
        Exit = self.decls["Exit"]
        Init = self.decls["Init"]
        S = RelationDecl("SummaryEF", [("u", state), ("v", state)])

        call_body = And(S(u, x), IntoCall(x, y), S(y, z), Exit(z.mod, z.pc), Return(x, z, v))
        self._formulas = {
            # The entry-forward operator (mirrors algorithms/entry_forward.py).
            _OPERATOR: Or(
                And(Entry(u.mod, u.pc), Eq(u, v), Init(u)),
                Exists(x, And(S(u, x), ProgramInt(x, v))),
                Exists([x, y], And(S(x, y), IntoCall(y, u), Eq(u, v))),
                Exists([x, y, z], call_body),
            ),
            _INITIAL: And(Entry(u.mod, u.pc), Init(u)),
            # Open clause bodies for the backward walk (no existentials: the
            # walk needs the intermediate-state witnesses, not their
            # projection).
            _INTERNAL: And(S(u, x), ProgramInt(x, v)),
            _CALL: call_body,
            _ENTRY: And(S(x, y), IntoCall(y, u)),
        }
        # The existential variables whose witnesses each clause yields.
        self._picks = {_INTERNAL: (x,), _CALL: (x, y, z), _ENTRY: (x, y)}
        # Every plan binds the templates, so their applications sit in the
        # static skeletons and each layer or clause evaluation conjoins only
        # SummaryEF (measured faster for the clause bodies too).
        self._plans = {
            key: backend.compile_formula(formula, bound=self.base_interps)
            for key, formula in self._formulas.items()
        }
        # Bit levels of each state variable, keyed by its name: Var hashes
        # its sort recursively, so it is a slow dictionary key.
        self._levels: Dict[str, List[int]] = {
            var.name: [self.manager.var_index(bit) for bit in var.bit_names()]
            for var in (u, v, x, y, z)
        }

        self._module_name = {index: name for name, index in templates.module_index.items()}
        self._layers: List[int] = []
        self._clause_cache: Dict[Tuple[str, int], int] = {}
        self._init_node: Optional[int] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every GC-pinned node the extractor holds."""
        if self._closed:
            return
        self._closed = True
        for plan in self._plans.values():
            self.backend.release_plan(plan)
        for node in self._clause_cache.values():
            self.backend.release(node)
        self._clause_cache.clear()
        for node in self._layers[1:]:
            self.backend.release(node)
        self._layers = []
        if self._init_node is not None:
            self.backend.release(self._init_node)
            self._init_node = None

    # ------------------------------------------------------------------
    # The public entry point
    # ------------------------------------------------------------------
    def extract(
        self,
        algorithm: str,
        solved_interps: Mapping[str, int],
        target_node: int,
        target_locations: Sequence[Tuple[int, int]],
    ) -> Optional[WitnessTrace]:
        """Extract a trace for ``algorithm``'s solved relations, or ``None``.

        ``None`` means the target is unreachable under the solved
        interpretations — extraction never flips a verdict.  A reachable
        pair that cannot be walked back raises
        :class:`~repro.witness.trace.WitnessExtractionError`.
        """
        mgr = self.manager
        interps = dict(self.base_interps)
        interps.update(solved_interps)
        interps["Target"] = target_node
        node = self.backend.eval_formula(self._pair_formula(algorithm), interps)
        node = mgr.and_(node, self.context.domain_constraint(self.u))
        node = mgr.and_(node, self.context.domain_constraint(self.v))
        if node == mgr.FALSE:
            return None
        picked = self._pick(node, {}, (self.u, self.v))
        assert picked is not None
        u_val, v_val = picked
        self._ensure_layers()
        steps = self._entry_steps(u_val) + self._path_steps(u_val, v_val)
        return WitnessTrace(
            algorithm=algorithm,
            target=[(module, pc) for module, pc in target_locations],
            steps=steps,
        )

    # ------------------------------------------------------------------
    # Pair selection per algorithm
    # ------------------------------------------------------------------
    def _pair_formula(self, algorithm: str):
        state = self.state_sort
        u, v = self.u, self.v
        Target = self.decls["Target"]
        if algorithm == "summary":
            Summary = RelationDecl("Summary", [("u", state), ("v", state)])
            ReachEntry = RelationDecl("ReachEntry", [("u", state)])
            return And(ReachEntry(u), Summary(u, v), Target(v.mod, v.pc))
        if algorithm == "ef":
            S = RelationDecl("SummaryEF", [("u", state), ("v", state)])
            return And(S(u, v), Target(v.mod, v.pc))
        if algorithm == "ef-opt":
            S = RelationDecl(
                "SummaryEFopt", [("fr", BOOL), ("u", state), ("v", state)]
            )
            return And(S(True, u, v), Target(v.mod, v.pc))
        raise WitnessExtractionError(
            f"no witness extraction for algorithm {algorithm!r}"
        )

    # ------------------------------------------------------------------
    # Kleene layers of the entry-forward operator
    # ------------------------------------------------------------------
    def _ensure_layers(self) -> List[int]:
        if self._layers:
            return self._layers
        mgr = self.manager
        layers = [mgr.FALSE]
        interps = dict(self.base_interps)
        while True:
            interps["SummaryEF"] = layers[-1]
            node = self._plans[_OPERATOR].eval(self.backend, interps)
            if node == layers[-1]:
                break
            self.backend.retain(node)
            layers.append(node)
        self._layers = layers
        self._init_node = self.backend.retain(
            self._plans[_INITIAL].eval(self.backend, self.base_interps)
        )
        return layers

    def _clause_node(self, kind: str, k: int) -> int:
        """The clause body at layer ``k`` (domain-constrained picks), pinned."""
        key = (kind, k)
        node = self._clause_cache.get(key)
        if node is None:
            interps = dict(self.base_interps)
            # The entry clause asks for callers *in* layer k; the step
            # clauses ask how a layer-k pair arose from layer k - 1.
            interps["SummaryEF"] = self._layers[k if kind == _ENTRY else k - 1]
            node = self._plans[kind].eval(self.backend, interps)
            for var in self._picks[kind]:
                node = self.manager.and_(node, self.context.domain_constraint(var))
            self.backend.retain(node)
            self._clause_cache[key] = node
        return node

    # ------------------------------------------------------------------
    # Cube picking and state plumbing
    # ------------------------------------------------------------------
    def _bits(self, var: Var, value) -> Dict[int, bool]:
        """The level-keyed assignment of ``var``'s bits to ``value``."""
        return dict(zip(self._levels[var.name], self.state_sort.encode(value)))

    def _same(self, a, b) -> bool:
        return self.state_sort.canonical(a) == self.state_sort.canonical(b)

    def _pick(self, node: int, pins: Dict[int, bool], picks: Sequence[Var]):
        mgr = self.manager
        restricted = mgr.restrict(node, pins) if pins else node
        if restricted == mgr.FALSE:
            return None
        levels = [self._levels[var.name] for var in picks]
        cube = mgr.pick_cube(restricted, [level for group in levels for level in group])
        decode = self.state_sort.decode
        return tuple(decode([cube[level] for level in group]) for group in levels)

    def _first_layer(self, holds: Callable[[int], bool]) -> Optional[int]:
        """The least ``k >= 1`` with ``holds(k)``, or ``None``.

        ``holds`` must be monotone in ``k`` — true on every layer above one
        where it holds — which ascending layers give for membership and
        for satisfiability of a clause body.  ``L[0]`` is FALSE, so no
        search starts there.
        """
        lo, hi = 1, len(self._layers) - 1
        if hi < lo or not holds(hi):
            return None
        while lo < hi:
            mid = (lo + hi) // 2
            if holds(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _rank(self, pair_bits: Dict[int, bool]) -> int:
        """The first layer holding the pair that ``pair_bits`` assigns."""
        evaluate = self.manager.eval
        layers = self._layers
        k = self._first_layer(lambda j: evaluate(layers[j], pair_bits))
        if k is None:
            raise WitnessExtractionError(
                "selected summary pair is outside the entry-forward fixed point"
            )
        return k

    def _is_initial(self, u_val) -> bool:
        assert self._init_node is not None
        return self.manager.eval(self._init_node, self._bits(self.u, u_val))

    def _step(self, kind: str, value) -> WitnessStep:
        fields = self.state_sort.as_dict(value)
        module = int(fields["mod"])
        pc = int(fields["pc"])
        procedure = self._module_name.get(module)
        if procedure is None:
            raise WitnessExtractionError(f"picked state has no procedure (module {module})")
        proc_cfg = self.cfg.procedure_cfg(procedure)
        locals_bits = self.space.locals_sort.as_dict(fields["L"])
        locals_named = {
            name: bool(locals_bits[self.space.local_field(slot)])
            for name, slot in sorted(proc_cfg.slot_of.items(), key=lambda item: item[1])
        }
        globals_bits = self.space.globals_sort.as_dict(fields["G"])
        globals_named = {name: bool(globals_bits[name]) for name in self.space.global_names}
        return WitnessStep(
            kind=kind,
            procedure=procedure,
            pc=pc,
            locals=locals_named,
            globals=globals_named,
        )

    # ------------------------------------------------------------------
    # The backward walks
    # ------------------------------------------------------------------
    def _path_steps(self, from_val, to_val) -> List[WitnessStep]:
        """Steps of a same-procedure summary path from ``from_val`` (excluded)
        to ``to_val`` (included), recursing through calls."""
        out: List[WitnessStep] = []
        # Explicit work stack (LIFO): path segments expand, emits append.
        work: List[Tuple] = [("path", from_val, to_val)]
        while work:
            item = work.pop()
            if item[0] == "emit":
                out.append(item[1])
                continue
            _, a, b = item
            if self._same(a, b):
                continue
            pins = {**self._bits(self.u, a), **self._bits(self.v, b)}
            k = self._rank(pins)
            picked = self._pick(self._clause_node(_INTERNAL, k), pins, (self.x,))
            if picked is not None:
                (x_val,) = picked
                work.append(("emit", self._step("internal", b)))
                work.append(("path", a, x_val))
                continue
            picked = self._pick(self._clause_node(_CALL, k), pins, (self.x, self.y, self.z))
            if picked is None:
                raise WitnessExtractionError(
                    "no entry-forward clause explains a summary pair "
                    f"(rank {k}, {self._step('internal', b).procedure})"
                )
            x_val, y_val, z_val = picked
            work.append(("emit", self._step("return", b)))
            work.append(("path", y_val, z_val))
            work.append(("emit", self._step("call", y_val)))
            work.append(("path", a, x_val))
        return out

    def _entry_steps(self, entry_val) -> List[WitnessStep]:
        """Steps from the program's initial state up to ``entry_val``
        (included), following the call chain that made the entry reachable."""
        segments: List[Tuple] = []
        current = entry_val
        mgr = self.manager
        while not self._is_initial(current):
            pins = self._bits(self.u, current)
            j = self._first_layer(
                lambda k: mgr.restrict(self._clause_node(_ENTRY, k), pins) != mgr.FALSE
            )
            if j is None:
                raise WitnessExtractionError(
                    "no caller found for a non-initial reachable entry"
                )
            x_val, y_val = self._pick(self._clause_node(_ENTRY, j), pins, (self.x, self.y))
            segments.append((x_val, y_val, current))
            current = x_val
        steps = [self._step("start", current)]
        for x_val, y_val, entry in reversed(segments):
            steps.extend(self._path_steps(x_val, y_val))
            steps.append(self._step("call", entry))
        return steps
