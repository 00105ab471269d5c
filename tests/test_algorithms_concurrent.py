"""Tests for the bounded context-switching algorithm (symbolic and explicit)."""

import pytest

from repro.algorithms import run_concurrent
from repro.api import AnalysisSession
from repro.baselines import run_concurrent_explicit
from repro.benchgen import bluetooth_source, make_bluetooth
from repro.boolprog import parse_concurrent_program
from repro.encode.concurrent import ConcurrentEncoder
from repro.frontends import check_concurrent_reachability
from repro.witness import WitnessExtractionError

HANDOFF = """
shared decl a, b;
init a := F, b := F;
thread ping begin
  main() begin
    a := T;
    if (b) then
      hit: skip;
    fi
  end
end
thread pong begin
  main() begin
    if (a) then b := T; fi
  end
end
"""

LOCKED = """
shared decl lock, stopped;
init lock := F, stopped := F;
thread worker begin
  main() begin
    call acquire();
    assert(!stopped);
    call release();
  end
  acquire() begin assume(!lock); lock := T; end
  release() begin lock := F; end
end
thread killer begin
  main() begin stopped := T; end
end
"""


def locations(program, target="error"):
    encoder = ConcurrentEncoder(program)
    if target == "error":
        return encoder.error_locations()
    thread, procedure, label = target.split(":")
    return [encoder.label_location(thread, procedure, label)]


class TestSymbolicAgainstExplicit:
    @pytest.mark.parametrize("switches", [0, 1, 2, 3])
    def test_handoff_agreement(self, switches):
        program = parse_concurrent_program(HANDOFF)
        locs = locations(program, "ping:main:hit")
        symbolic = run_concurrent(program, locs, context_switches=switches)
        explicit = run_concurrent_explicit(program, locs, context_switches=switches)
        assert symbolic.reachable == explicit.reachable
        # The hand-off needs ping -> pong -> ping, i.e. two switches.
        assert symbolic.reachable == (switches >= 2)

    @pytest.mark.parametrize("switches", [0, 1, 2])
    def test_locked_agreement(self, switches):
        program = parse_concurrent_program(LOCKED)
        locs = locations(program)
        symbolic = run_concurrent(program, locs, context_switches=switches)
        explicit = run_concurrent_explicit(program, locs, context_switches=switches)
        assert symbolic.reachable == explicit.reachable
        assert symbolic.reachable == (switches >= 1)


class TestReachabilityStructure:
    def test_monotone_in_context_bound(self):
        program = parse_concurrent_program(HANDOFF)
        locs = locations(program, "ping:main:hit")
        verdicts = [
            run_concurrent(program, locs, context_switches=k).reachable for k in range(4)
        ]
        # Once reachable, more context switches keep it reachable.
        assert verdicts == sorted(verdicts)

    def test_init_section_matters(self):
        # Without the init section `b` may start True, making the target
        # reachable without any context switch.
        source = HANDOFF.replace("init a := F, b := F;\n", "")
        program = parse_concurrent_program(source)
        locs = locations(program, "ping:main:hit")
        with_init = parse_concurrent_program(HANDOFF)
        assert not run_concurrent(
            with_init, locations(with_init, "ping:main:hit"), context_switches=0
        ).reachable
        # Globals still default to False, so dropping the init section does
        # not change the verdict in this particular program.
        assert not run_concurrent(program, locs, context_switches=0).reachable

    def test_summary_states_reported(self):
        # A concurrent query answers through the session, so its record
        # carries the tuple count of Reach and the session's details keys.
        program = parse_concurrent_program(LOCKED)
        result = run_concurrent(program, locations(program), context_switches=1)
        assert result.summary_states is not None and result.summary_states > 0
        assert result.algorithm == "getafix-cbr-k1"
        for key in ("bdd_variables", "reused_solve", "target_signature"):
            assert key in result.details

    @pytest.mark.parametrize("method", ["check", "explain"])
    def test_witness_request_fails_before_the_solve(self, method):
        # Witness extraction covers the sequential algorithms only; a CBR
        # witness request raises the typed error before Reach is solved.
        source = bluetooth_source(1, 1).replace(
            "    stopped := T;", "    halt: stopped := T;"
        )
        with AnalysisSession(source, default_algorithm="cbr-k1") as session:
            with pytest.raises(WitnessExtractionError, match="cbr-k1"):
                if method == "check":
                    session.check("stopper1:main:halt", witness=True)
                else:
                    session.explain("stopper1:main:halt")
            stats = session.stats()["algorithms"]["cbr-k1"]
            assert stats["solves"] == 0 and stats["queries"] == 0
            assert stats["cached_targets"] == 0
            # The session stays usable for plain queries.
            assert session.check("stopper1:main:halt").reachable

    def test_session_post_pass_matches_fresh_runs(self):
        # One concurrent session holds a solved Reach per bound; its
        # post-pass verdicts equal the early-stopped one-shot runs.
        with AnalysisSession(HANDOFF, default_algorithm="cbr-k0") as session:
            for k in range(4):
                session.solve(f"cbr-k{k}")
                result = session.check("ping:main:hit", algorithm=f"cbr-k{k}")
                assert result.details["reused_solve"]
                fresh = run_concurrent(HANDOFF, "ping:main:hit", context_switches=k)
                assert result.reachable == fresh.reachable == (k >= 2)
            with pytest.raises(ValueError, match="concurrent"):
                session.check("ping:main:hit", algorithm="ef-opt")
        with pytest.raises(ValueError, match="optimize"):
            AnalysisSession(HANDOFF, default_algorithm="cbr-k2", optimize=1)

    def test_frontend_target_resolution(self):
        result = check_concurrent_reachability(
            HANDOFF, target="ping:main:hit", context_switches=2
        )
        assert result.reachable
        with pytest.raises(ValueError):
            check_concurrent_reachability(HANDOFF, target="not-a-target", context_switches=1)

    def test_negative_bound_rejected(self):
        program = parse_concurrent_program(HANDOFF)
        with pytest.raises(ValueError):
            run_concurrent(program, locations(program, "ping:main:hit"), context_switches=-1)

    def test_reach_renames_stay_structural(self):
        # The context-switch counters are ordered so that every Reach
        # application renames them monotonically (61 renames fell back with
        # the counters in discovery order); the template applications are
        # bound into the compiled plans, so only IntoCall's (y, u) one falls
        # back to ite, once.
        program = make_bluetooth(1, 1)
        result = run_concurrent(program, locations(program), context_switches=1)
        assert not result.reachable
        assert result.stats["manager"]["rename_fallback"] <= 1


class TestExplicitSolverDetails:
    def test_explicit_detects_recursion_guard(self):
        source = """
        shared decl flag;
        thread looper begin
          main() begin
            call spin();
          end
          spin() begin
            call spin();
          end
        end
        thread other begin
          main() begin flag := T; end
        end
        """
        program = parse_concurrent_program(source)
        encoder = ConcurrentEncoder(program)
        locs = [encoder.label_location("other", "main", "end_label")] if False else [(0, 1)]
        with pytest.raises(RecursionError):
            run_concurrent_explicit(program, locs, context_switches=1)

    def test_explicit_configuration_count_grows_with_bound(self):
        program = parse_concurrent_program(HANDOFF)
        locs = locations(program, "ping:main:hit")
        small = run_concurrent_explicit(program, locs, context_switches=0, early_stop=False)
        large = run_concurrent_explicit(program, locs, context_switches=3, early_stop=False)
        assert large.details["configurations"] > small.details["configurations"]
