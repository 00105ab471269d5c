"""Tests for the static pre-analysis subsystem (:mod:`repro.analysis`).

Three layers:

* **Unit oracles per pass** — each rewrite (constant folding, liveness /
  dead-store elimination, branch pruning, target-directed slicing,
  unreachable-procedure pruning) has tests pinning exactly what it may and
  may not remove, and that pc-stability is reported truthfully.
* **Differential gate** — the composed pipeline at ``-O1``/``-O2`` must
  preserve the verdict of every algorithm against the explicit BEBOP
  replay over the fuzz corpus (the CI ``optimize-smoke`` runs the same gate
  over 200 seeds and the full benchgen corpus).
* **Stack integration** — sessions compile the optimized program and guard
  target resolution (numeric targets vs renumbered pcs, sliced sessions vs
  foreign targets, no freeze of sliced sessions), shard groups cap levels
  soundly, the daemon protocol validates ``optimize`` and keys the pool per
  level, and the CLI exposes ``-O``.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    PassReport,
    eliminate_dead,
    fold_constants,
    fold_expr,
    normalise_slice_targets,
    optimize,
    prune_branches,
    prune_unreachable,
    slice_to_targets,
)
from repro.api import AnalysisSession
from repro.baselines import run_bebop
from repro.benchgen import DriverSpec, make_driver, random_program
from repro.boolprog import (
    BinOp,
    Lit,
    NotE,
    VarRef,
    build_cfg,
    check_program,
    parse_program,
)
from repro.frontends import resolve_target
from repro.frontends.cli import main as cli_main
from repro.frontends.getafix import check_reachability
from repro.parallel import BatchQuery, run_shards
from repro.service.protocol import ProtocolError, content_hash, parse_request

ALGORITHMS = ("summary", "ef", "ef-opt")

DEAD_CODE = """
decl g, unused;
main() begin
  decl x, trace;
  x := *;
  trace := x;
  call helper(x);
  if (g) then target: skip; fi
end
helper(v) begin
  g := v;
end
orphan(w) begin
  unused := w;
end
"""

CONSTANT_BRANCH = """
decl g;
main() begin
  decl x;
  x := *;
  if (g) then
    x := !x;
    x := !x;
  fi
  if (x) then target: skip; fi
end
"""


def expect(source: str, target: str = "target") -> bool:
    program = parse_program(source) if isinstance(source, str) else source
    spec = target if ":" in target else f"main:{target}"
    return run_bebop(program, resolve_target(program, spec)).reachable


# ----------------------------------------------------------------------
# Unit oracles
# ----------------------------------------------------------------------
class TestFoldExpr:
    def test_literal_algebra(self):
        x = VarRef("x")
        assert fold_expr(BinOp("&", x, Lit(True))) == x
        assert fold_expr(BinOp("&", x, Lit(False))) == Lit(False)
        assert fold_expr(BinOp("|", x, Lit(False))) == x
        assert fold_expr(BinOp("|", x, Lit(True))) == Lit(True)
        assert fold_expr(NotE(Lit(True))) == Lit(False)
        assert fold_expr(NotE(NotE(x))) == x

    def test_identical_subtree_rules(self):
        x = VarRef("x")
        assert fold_expr(BinOp("&", x, x)) == x
        assert fold_expr(BinOp("^", x, x)) == Lit(False)
        assert fold_expr(BinOp("==", x, x)) == Lit(True)


class TestFoldConstants:
    def test_never_assigned_global_folds_false(self):
        program = parse_program(CONSTANT_BRANCH)
        report = PassReport(level=1)
        folded = fold_constants(program, report)
        check_program(folded)
        # `g` is never assigned, so it is False on every path: the guard
        # folds to a literal, but the If skeleton survives (pc-stable) until
        # the structural pass removes it.
        assert report.statements_simplified > 0
        assert report.structural_changes == 0  # pc-stable

    def test_verdict_preserved(self):
        program = parse_program(CONSTANT_BRANCH)
        folded = fold_constants(program, PassReport(level=1))
        assert expect(folded) == expect(CONSTANT_BRANCH) == True  # noqa: E712


class TestEliminateDead:
    def test_drops_dead_variables_and_keeps_live_ones(self):
        program = parse_program(DEAD_CODE)
        report = PassReport(level=1)
        slim = eliminate_dead(program, report)
        check_program(slim)
        assert "main:trace" in report.variables_removed
        assert "unused" in report.variables_removed
        assert "g" in slim.globals
        assert "x" in slim.procedure("main").locals
        assert report.structural_changes == 0

    def test_verdict_preserved(self):
        program = parse_program(DEAD_CODE)
        slim = eliminate_dead(program, PassReport(level=1))
        assert expect(slim) == expect(DEAD_CODE) == True  # noqa: E712


class TestPruneBranches:
    def test_contradiction_branch_removed(self):
        program = fold_constants(parse_program(CONSTANT_BRANCH), PassReport(level=1))
        report = PassReport(level=2)
        pruned = prune_branches(program, report)
        check_program(pruned)
        assert report.branches_pruned > 0
        assert report.structural_changes > 0
        assert not report.pc_stable
        assert expect(pruned) is True


class TestSliceAndPrune:
    def test_uncalled_procedure_dropped(self):
        program = parse_program(DEAD_CODE)
        report = PassReport(level=2)
        kept = prune_unreachable(program, None, report)
        check_program(kept)
        assert "orphan" in report.procedures_dropped
        assert "orphan" not in kept.procedures

    def test_slice_records_pedigree_and_preserves_verdict(self):
        program = parse_program(DEAD_CODE)
        report = PassReport(level=2)
        sliced = slice_to_targets(program, ("main:target",), report)
        check_program(sliced)
        assert report.sliced_for == ("main:target",)
        assert expect(sliced) is True


class TestNormaliseSliceTargets:
    def test_shapes(self):
        assert normalise_slice_targets("error") == ("error",)
        assert normalise_slice_targets(["a:l", "b:m", "a:l"]) == ("a:l", "b:m")
        assert normalise_slice_targets([(0, 3)]) is None
        assert normalise_slice_targets([("a:l"), (0, 3)]) is None
        assert normalise_slice_targets(None) is None


class TestOptimizeDriver:
    def test_level_zero_is_identity(self):
        program = parse_program(DEAD_CODE)
        result, report = optimize(program, level=0)
        assert result is program
        assert report.level == 0 and not report.changes()

    def test_level_one_is_pc_stable(self):
        _, report = optimize(parse_program(DEAD_CODE), level=1)
        assert report.pc_stable
        assert report.variables_removed

    def test_numeric_targets_cap_level(self):
        _, report = optimize(parse_program(DEAD_CODE), targets=[(0, 3)], level=2)
        assert report.level == 1
        assert report.pc_stable

    def test_report_round_trips_to_dict(self):
        _, report = optimize(
            parse_program(DEAD_CODE), targets="main:target", level=2
        )
        payload = report.to_dict()
        assert payload["level"] == 2
        assert payload["sliced_for"] == ["main:target"]
        assert payload["pc_stable"] is False

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            optimize(parse_program(DEAD_CODE), level=3)


# ----------------------------------------------------------------------
# Differential gate (fuzz corpus; CI runs the full 200-seed sweep)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(30))
def test_fuzz_differential_all_levels(seed):
    program = random_program(seed)
    expected = expect(program, "main:target")
    for level in (1, 2):
        for algorithm in ALGORITHMS:
            got = check_reachability(
                program, target="main:target", algorithm=algorithm, optimize=level
            ).reachable
            assert got == expected, f"seed {seed} -O{level} {algorithm}"


def test_driver_corpus_differential_with_reduction():
    for positive in (True, False):
        spec = DriverSpec("t", handlers=3, positive=positive)
        program = make_driver(spec)
        raw = check_reachability(program, optimize=0)
        opt = check_reachability(program, optimize=2)
        assert raw.reachable == opt.reachable == positive
        report = opt.stats["optimize"]
        assert len(report["variables_removed"]) >= spec.flags + spec.handlers
        assert opt.stats["manager"]["vars"] < raw.stats["manager"]["vars"]


# ----------------------------------------------------------------------
# Stack integration
# ----------------------------------------------------------------------
class TestSessionIntegration:
    def test_session_reports_and_preserves(self):
        session = AnalysisSession(DEAD_CODE, optimize=1)
        try:
            result = session.check("main:target")
            assert result.reachable is True
            assert result.stats["optimize"]["level"] == 1
            assert result.stats["optimize"]["variables_removed"]
        finally:
            session.close()

    def test_numeric_target_rejected_after_structural_pass(self):
        program = parse_program(CONSTANT_BRANCH)
        locations = resolve_target(program, "main:target")
        session = AnalysisSession(program, optimize=2)
        try:
            assert session.check("main:target").reachable is True
            with pytest.raises(ValueError, match="numeric"):
                session.check(list(locations))
        finally:
            session.close()

    def test_numeric_target_fine_at_level_one(self):
        program = parse_program(CONSTANT_BRANCH)
        locations = resolve_target(program, "main:target")
        session = AnalysisSession(program, optimize=1)
        try:
            assert session.check(list(locations)).reachable is True
        finally:
            session.close()

    def test_sliced_session_rejects_foreign_targets(self):
        session = AnalysisSession(
            DEAD_CODE, optimize=2, slice_targets=["main:target"]
        )
        try:
            assert session.check("main:target").reachable is True
            with pytest.raises(ValueError, match="sliced"):
                session.check("error")
        finally:
            session.close()

    def test_sliced_session_refuses_freeze(self):
        session = AnalysisSession(
            DEAD_CODE, optimize=2, slice_targets=["main:target"]
        )
        try:
            session.solve("ef-opt")
            with pytest.raises(RuntimeError, match="sliced"):
                session.freeze("ef-opt")
        finally:
            session.close()

    def test_numeric_slice_targets_rejected_up_front(self):
        with pytest.raises(ValueError):
            AnalysisSession(DEAD_CODE, optimize=2, slice_targets=[(0, 3)])

    def test_failed_pipeline_degrades_to_raw(self, monkeypatch):
        import repro.api.session as session_mod

        def boom(program, targets=None, level=1):
            raise RuntimeError("injected pass failure")

        monkeypatch.setattr(session_mod, "optimize_program", boom)
        session = AnalysisSession(DEAD_CODE, optimize=2)
        try:
            assert session.optimize_report.failed
            assert session.check("main:target").reachable is True
        finally:
            session.close()


class TestShardIntegration:
    UNREACHABLE = """
decl g;
main() begin
  if (g) then target: skip; fi
end
"""

    def test_string_targets_slice_per_group(self):
        queries = [
            BatchQuery(name="pos", program=DEAD_CODE, target="main:target", optimize=2),
            BatchQuery(
                name="neg", program=self.UNREACHABLE, target="main:target", optimize=2
            ),
        ]
        shards, _, _ = run_shards(queries, jobs=1)
        assert all(s.ok for s in shards), [s.error for s in shards]
        assert [s.result.reachable for s in shards] == [True, False]

    def test_numeric_targets_cap_group_level(self):
        program = parse_program(DEAD_CODE)
        locations = tuple(resolve_target(program, "main:target"))
        queries = [
            BatchQuery(
                name="num", program=DEAD_CODE, target=locations, optimize=2
            ),
            BatchQuery(
                name="str", program=DEAD_CODE, target="main:target", optimize=2
            ),
        ]
        shards, _, _ = run_shards(queries, jobs=1)
        assert all(s.ok for s in shards), [s.error for s in shards]
        assert [s.result.reachable for s in shards] == [True, True]


class TestProtocol:
    def request(self, **fields):
        request = {"program": DEAD_CODE, "target": "main:target"}
        request.update(fields)
        return request

    def test_optimize_levels_key_the_pool_hash(self):
        raw = parse_request(self.request(), job_id="a")
        fast = parse_request(self.request(optimize=2), job_id="b")
        assert raw.program_hash == content_hash(DEAD_CODE)
        assert fast.program_hash == f"{content_hash(DEAD_CODE)}:O2"
        assert fast.optimize == 2
        assert raw.coalesce_key() != fast.coalesce_key()

    @pytest.mark.parametrize("bad", [-1, 3, True, "2", 1.5])
    def test_bad_optimize_rejected(self, bad):
        with pytest.raises(ProtocolError):
            parse_request(self.request(optimize=bad), job_id="x")

    def test_concurrent_plus_optimize_rejected(self):
        with pytest.raises(ProtocolError, match="concurrent"):
            parse_request(
                self.request(concurrent=True, optimize=1), job_id="x"
            )

    def test_numeric_target_at_level_two_rejected(self):
        with pytest.raises(ProtocolError, match="renumbers"):
            parse_request(
                self.request(target=[[0, 3]], optimize=2), job_id="x"
            )
        # ...but stays valid at the pc-stable level.
        job = parse_request(self.request(target=[[0, 3]], optimize=1), job_id="x")
        assert job.optimize == 1


class TestCliIntegration:
    def test_optimize_flag_preserves_verdict(self, tmp_path, capsys):
        path = tmp_path / "prog.bp"
        path.write_text(DEAD_CODE)
        raw = cli_main([str(path), "--target", "main:target", "-O0"])
        fast = cli_main([str(path), "--target", "main:target", "-O2"])
        assert raw == fast == 1  # reachable -> exit 1
        capsys.readouterr()

    def test_concurrent_conflicts_with_optimize(self, tmp_path, capsys):
        path = tmp_path / "prog.bp"
        path.write_text(DEAD_CODE)
        status = cli_main([str(path), "--concurrent", "-O1"])
        assert status == 2
        capsys.readouterr()
