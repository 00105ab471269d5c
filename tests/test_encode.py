"""Tests for the symbolic encoder (state space, expressions, templates)."""

import pytest

from repro.boolprog import build_cfg, parse_program
from repro.encode import SequentialEncoder, StateSpace
from repro.encode.expressions import ChoicePool, VariableResolver, compile_expr
from repro.boolprog.parser import parse_expression
from repro.fixedpoint import Var
from repro.fixedpoint.symbolic import SymbolicBackend
from repro.fixedpoint.terms import Field
from repro.algorithms.entry_forward import build as build_ef


SOURCE = """
decl g0, g1;

main() begin
  decl x, y;
  x := T;
  y := x & g0;
  g1 := helper(y);
end

helper(a) begin
  decl t;
  t := !a;
  return t | g0;
end
"""


@pytest.fixture()
def encoder():
    program = parse_program(SOURCE)
    return SequentialEncoder(build_cfg(program))


@pytest.fixture()
def backend(encoder):
    spec = build_ef(encoder)
    return SymbolicBackend(spec.system)


class TestStateSpace:
    def test_dimensions(self, encoder):
        space = encoder.space
        assert space.module_sort.size() == 2
        assert space.globals_sort.field_names() == ["g0", "g1"]
        # main: x, y; helper: a, t, __ret0 -> 3 slots needed.
        assert space.num_slots >= 3
        assert space.state_bits == space.state_sort.width

    def test_build_without_globals(self):
        space = StateSpace.build(num_modules=1, max_pc=4, num_slots=0, global_names=[])
        assert space.globals_sort.width == 1  # dummy field
        assert space.locals_sort.width == 1

    def test_local_field_bounds(self, encoder):
        with pytest.raises(IndexError):
            encoder.space.local_field(encoder.space.locals_sort.width)

    def test_global_field_unknown(self, encoder):
        with pytest.raises(KeyError):
            encoder.space.global_field("missing")


class TestExpressionCompiler:
    def test_variable_resolution(self, encoder, backend):
        cfg = encoder.cfg
        resolver = VariableResolver(encoder.space, cfg.procedure_cfg("main").slot_of)
        x = Var("x", encoder.space.state_sort)
        assert resolver.bit_name(x, "g0") == "x.G.g0"
        assert resolver.bit_name(x, "x") == "x.L.l0"
        assert resolver.is_global("g0") and not resolver.is_global("x")
        with pytest.raises(KeyError):
            resolver.bit_name(x, "unknown")

    def test_expression_truth_table(self, encoder, backend):
        mgr = backend.manager
        cfg = encoder.cfg
        resolver = VariableResolver(encoder.space, cfg.procedure_cfg("main").slot_of)
        state = Var("x", encoder.space.state_sort)
        pool = ChoicePool(mgr)
        node = compile_expr(parse_expression("x & !g0"), state, resolver, mgr, pool)
        assert mgr.eval(node, {"x.L.l0": True, "x.G.g0": False})
        assert not mgr.eval(node, {"x.L.l0": True, "x.G.g0": True})

    def test_nondet_uses_choice_bits(self, encoder, backend):
        mgr = backend.manager
        cfg = encoder.cfg
        resolver = VariableResolver(encoder.space, cfg.procedure_cfg("main").slot_of)
        state = Var("x", encoder.space.state_sort)
        pool = ChoicePool(mgr)
        node = compile_expr(parse_expression("x & *"), state, resolver, mgr, pool)
        assert pool.active()
        # After quantifying the choice, the expression can be true whenever x is.
        quantified = pool.quantify(node)
        assert mgr.eval(quantified, {"x.L.l0": True})
        assert not mgr.eval(quantified, {"x.L.l0": False})

    def test_choice_pool_reuses_bits_between_edges(self, backend):
        pool = ChoicePool(backend.manager)
        first = pool.fresh()
        pool.reset()
        second = pool.fresh()
        assert first == second


class TestTemplates:
    def test_encode_produces_all_relations(self, encoder, backend):
        templates = encoder.encode(backend, [(0, 1)])
        for name in ("ProgramInt", "IntoCall", "Return", "Entry", "Exit", "Init", "Target"):
            assert name in templates.interpretations
        assert templates.main_module == encoder.cfg.module_of("main")

    def test_entry_and_exit_relations(self, encoder, backend):
        templates = encoder.encode(backend, [(0, 1)])
        entry = templates.interpretations["Entry"]
        models = list(backend.models(entry, templates.decl("Entry")))
        # Every module has exactly one entry (pc 0).
        assert sorted(models) == [(0, 0), (1, 0)]
        exits = list(backend.models(templates.interpretations["Exit"], templates.decl("Exit")))
        assert sorted(exits) == [(0, 1), (1, 1)]

    def test_init_relation_is_deterministic(self, encoder, backend):
        templates = encoder.encode(backend, [(0, 1)])
        init = templates.interpretations["Init"]
        models = list(backend.models(init, templates.decl("Init")))
        assert len(models) == 1
        (state,) = models[0]
        as_dict = encoder.space.state_sort.as_dict(encoder.space.state_sort.canonical(state))
        assert as_dict["mod"] == encoder.cfg.module_of("main")
        assert as_dict["pc"] == 0

    def test_program_int_respects_assignment(self, encoder, backend):
        templates = encoder.encode(backend, [(0, 1)])
        mgr = backend.manager
        program_int = templates.interpretations["ProgramInt"]
        # The first statement of main (pc 0 -> some pc) sets x (slot l0) to T.
        main_module = encoder.cfg.module_of("main")
        from_entry = mgr.and_(
            program_int,
            backend.context.encode_cube(Field(Var("x", encoder.space.state_sort), "pc"), 0),
        )
        from_entry = mgr.and_(
            from_entry,
            backend.context.encode_cube(Field(Var("x", encoder.space.state_sort), "mod"), main_module),
        )
        # In every model of that restriction the successor has l0 = True.
        assert mgr.and_(from_entry, mgr.nvar("v.L.l0")) == mgr.FALSE
        assert from_entry != mgr.FALSE

    def test_target_relation(self, encoder, backend):
        templates = encoder.encode(backend, [(1, 3), (0, 2)])
        models = set(backend.models(templates.interpretations["Target"], templates.decl("Target")))
        assert models == {(1, 3), (0, 2)}
