"""Tests for the three sequential Getafix algorithms and the engine wiring."""

import gc
import weakref

import pytest

from repro.algorithms import SEQUENTIAL_ALGORITHMS, run_sequential
from repro.bdd import BddManager
from repro.benchgen import DriverSpec, make_driver
from repro.boolprog import parse_program
from repro.frontends import check_reachability, resolve_target

ALGORITHMS = sorted(SEQUENTIAL_ALGORITHMS)

POSITIVE = """
decl g;
main() begin
  decl x, y;
  x, y := T, *;
  if (x & !g) then
    x := negate(y);
  fi
  call set_global(x);
  if (g) then
    target: skip;
  fi
end
negate(a) begin return !a; end
set_global(p) begin g := p; end
"""

NEGATIVE = """
decl g;
main() begin
  decl x;
  x := F;
  call maybe_set(x);
  if (g) then
    target: skip;
  fi
end
maybe_set(v) begin
  if (v) then g := T; fi
end
"""

RECURSIVE = """
main() begin
  decl r;
  r := descend(*);
  if (!r) then
    impossible: skip;
  fi
end
descend(d) begin
  decl r;
  if (d) then
    r := descend(*);
    return r;
  fi
  return T;
end
"""

MUTUAL_RECURSION = """
decl parity;
main() begin
  call even_steps();
  if (parity) then
    odd_seen: skip;
  fi
end
even_steps() begin
  if (*) then
    call odd_steps();
  fi
end
odd_steps() begin
  parity := !parity;
  if (*) then
    call even_steps();
  fi
end
"""


class TestVerdicts:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_positive_program(self, algorithm):
        result = check_reachability(POSITIVE, target="main:target", algorithm=algorithm)
        assert result.reachable
        assert result.algorithm == f"getafix-{'summary' if algorithm == 'summary' else algorithm}"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_negative_program(self, algorithm):
        result = check_reachability(NEGATIVE, target="main:target", algorithm=algorithm)
        assert not result.reachable

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_recursive_descend_always_returns_true(self, algorithm):
        # descend always eventually returns T, so `!r` is unreachable.
        result = check_reachability(RECURSIVE, target="main:impossible", algorithm=algorithm)
        assert not result.reachable

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_mutual_recursion(self, algorithm):
        result = check_reachability(MUTUAL_RECURSION, target="main:odd_seen", algorithm=algorithm)
        assert result.reachable

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_assert_target(self, algorithm):
        source = """
        decl ready;
        main() begin
          call start();
          call start();
        end
        start() begin
          assert(!ready);
          ready := T;
        end
        """
        assert check_reachability(source, target="error", algorithm=algorithm).reachable

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_assume_blocks_path(self, algorithm):
        source = """
        main() begin
          decl x;
          x := *;
          assume(x & !x);
          unreachable: skip;
        end
        """
        assert not check_reachability(source, target="main:unreachable", algorithm=algorithm).reachable


class TestStatistics:
    def test_result_fields_populated(self):
        result = check_reachability(POSITIVE, target="main:target", algorithm="ef")
        assert result.iterations > 0
        assert result.equation_evaluations >= result.iterations
        assert result.summary_nodes > 0
        assert result.total_seconds >= result.elapsed_seconds >= 0
        assert result.details["bdd_variables"] > 0
        assert result.verdict() == "Yes"

    def test_early_stop_versus_full_fixpoint(self):
        program = parse_program(POSITIVE)
        locations = resolve_target(program, "main:target")
        eager = run_sequential(program, locations, algorithm="ef", early_stop=True)
        full = run_sequential(program, locations, algorithm="ef", early_stop=False)
        assert eager.reachable and full.reachable
        assert eager.stopped_early
        assert not full.stopped_early
        assert eager.iterations <= full.iterations

    def test_ef_and_ef_opt_share_the_summary_semantics(self):
        # Theorem 2 / Theorem 3: both algorithms compute the reachable
        # summaries, so their verdicts agree on negative programs where early
        # termination never fires.
        program = parse_program(NEGATIVE)
        locations = resolve_target(program, "main:target")
        ef = run_sequential(program, locations, algorithm="ef", early_stop=False)
        ef_opt = run_sequential(program, locations, algorithm="ef-opt", early_stop=False)
        assert not ef.reachable and not ef_opt.reachable

    def test_unknown_algorithm_rejected(self):
        program = parse_program(NEGATIVE)
        with pytest.raises(ValueError):
            run_sequential(program, [(0, 1)], algorithm="made-up")

    def test_targets_outside_main(self):
        source = """
        decl g;
        main() begin
          call helper(T);
        end
        helper(v) begin
          if (v) then
            deep: skip;
          fi
        end
        """
        for algorithm in ALGORITHMS:
            result = check_reachability(source, target="helper:deep", algorithm=algorithm)
            assert result.reachable, algorithm


class TestKernelFootprint:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_location_projections_rename_by_shift(self, algorithm):
        # The ``mod``/``pc`` parameters of Entry/Exit/Target share the bit
        # groups of the state copies' ``mod``/``pc`` fields, so projecting
        # them onto ``u``/``v``/``z`` is a monotone shift, and Return is
        # declared over the ``(x, z, v)`` it is applied to.  Only IntoCall's
        # (x,y)->(y,u) falls back to ``ite``, and the templates are bound
        # into the compiled plans, so it does so once per query however
        # often GC sweeps the rename cache.
        spec = DriverSpec(name="d3", handlers=3, flags=2, helpers=1, positive=False)
        program = make_driver(spec)
        result = run_sequential(program, resolve_target(program, spec.target), algorithm=algorithm)
        assert not result.reachable
        manager = result.stats["manager"]
        assert manager["rename_fallback"] <= 1

    def test_run_frees_its_manager_without_cyclic_gc(self, monkeypatch):
        # A reference cycle through the manager (a recursive closure that
        # captures it, say) would keep its whole node table alive until a
        # full collection.
        managers = []
        init = BddManager.__init__

        def tracked(self, *args, **kwargs):
            managers.append(weakref.ref(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(BddManager, "__init__", tracked)
        spec = DriverSpec(name="d2", handlers=2, flags=2, helpers=1, positive=True)
        program = make_driver(spec)
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = run_sequential(program, resolve_target(program, spec.target))
            assert result.reachable
            assert managers and all(manager() is None for manager in managers)
        finally:
            if enabled:
                gc.enable()
