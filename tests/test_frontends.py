"""Tests for the GETAFIX front end and its command-line interface."""

import json

import pytest

from repro.boolprog import parse_program
from repro.frontends import build_arg_parser, check_reachability, main, resolve_target

POSITIVE = """
decl g;
main() begin
  g := T;
  if (g) then target: skip; fi
end
"""

NEGATIVE = """
decl g;
main() begin
  if (g) then target: skip; fi
end
"""

CONCURRENT = """
shared decl a;
init a := F;
thread one begin
  main() begin
    if (a) then hit: skip; fi
  end
end
thread two begin
  main() begin a := T; end
end
"""


class TestTargetResolution:
    def test_label_target(self):
        program = parse_program(POSITIVE)
        locations = resolve_target(program, "main:target")
        assert len(locations) == 1

    def test_error_target_requires_asserts(self):
        program = parse_program(POSITIVE)
        with pytest.raises(ValueError):
            resolve_target(program, "error")

    def test_multiple_targets(self):
        source = """
        main() begin
          a: skip;
          b: skip;
        end
        """
        program = parse_program(source)
        locations = resolve_target(program, ["main:a", "main:b"])
        assert len(locations) == 2

    def test_explicit_locations_pass_through(self):
        program = parse_program(POSITIVE)
        assert resolve_target(program, [(0, 3)]) == [(0, 3)]

    def test_malformed_target(self):
        program = parse_program(POSITIVE)
        with pytest.raises(ValueError):
            resolve_target(program, "not-a-target")

    def test_unknown_label(self):
        program = parse_program(POSITIVE)
        with pytest.raises(KeyError):
            resolve_target(program, "main:missing")


class TestCheckReachability:
    def test_accepts_source_text(self):
        assert check_reachability(POSITIVE, target="main:target").reachable

    def test_accepts_parsed_program(self):
        program = parse_program(NEGATIVE)
        assert not check_reachability(program, target="main:target").reachable

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            check_reachability(POSITIVE, target="main:target", algorithm="quantum")

    def test_total_seconds_covers_the_whole_session(self, monkeypatch):
        # Validation runs at session construction, before the query; the
        # one-shot wrapper's total must include it, as run_sequential's does.
        import time

        import repro.api.session as session_module

        real = session_module.check_program

        def slow_check(program):
            time.sleep(0.05)
            return real(program)

        monkeypatch.setattr(session_module, "check_program", slow_check)
        result = check_reachability(POSITIVE, target="main:target")
        assert result.total_seconds >= 0.05


class TestCli:
    def test_arg_parser_defaults(self):
        args = build_arg_parser().parse_args(["program.bp"])
        assert args.algorithm == "ef-opt"
        assert [p.name for p in args.files] == ["program.bp"]
        assert args.targets is None  # main() defaults this to ["error"]
        assert args.jobs == 1
        assert not args.concurrent

    def test_sequential_run(self, tmp_path, capsys):
        path = tmp_path / "prog.bp"
        path.write_text(POSITIVE)
        status = main([str(path), "--target", "main:target"])
        captured = capsys.readouterr().out
        assert "YES" in captured
        assert status == 1  # reachable targets exit with 1 (a defect was found)

    def test_negative_run_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "prog.bp"
        path.write_text(NEGATIVE)
        status = main([str(path), "--target", "main:target", "--algorithm", "ef"])
        assert "NO" in capsys.readouterr().out
        assert status == 0

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "prog.bp"
        path.write_text(POSITIVE)
        main([str(path), "--target", "main:target", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["reachable"] is True
        assert payload["algorithm"].startswith("getafix-")

    def test_concurrent_run(self, tmp_path, capsys):
        path = tmp_path / "conc.bp"
        path.write_text(CONCURRENT)
        status = main(
            [
                str(path),
                "--concurrent",
                "--target",
                "one:main:hit",
                "--context-switches",
                "2",
            ]
        )
        assert "YES" in capsys.readouterr().out
        assert status == 1


class TestCliExitCodes:
    """0 = unreachable, 1 = reachable, 2 = error — scripts must be able to
    tell YES from a crash, so front-end errors print cleanly and exit 2."""

    def test_parse_error_exits_two_with_clean_message(self, tmp_path, capsys):
        path = tmp_path / "broken.bp"
        path.write_text("main( begin oops")
        status = main([str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""  # nothing on stdout
        assert "getafix:" in captured.err
        assert "Traceback" not in captured.err

    def test_static_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "static.bp"
        path.write_text("main() begin x := T; end")  # x undeclared
        status = main([str(path), "--target", "main:whatever"])
        captured = capsys.readouterr()
        assert status == 2
        assert "getafix:" in captured.err

    def test_unknown_label_exits_two(self, tmp_path, capsys):
        path = tmp_path / "prog.bp"
        path.write_text(POSITIVE)
        status = main([str(path), "--target", "main:missing"])
        captured = capsys.readouterr()
        assert status == 2
        assert "getafix:" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        status = main([str(tmp_path / "nope.bp")])
        captured = capsys.readouterr()
        assert status == 2
        assert "cannot read input" in captured.err

    def test_bad_jobs_value_exits_two(self, tmp_path, capsys):
        path = tmp_path / "prog.bp"
        path.write_text(POSITIVE)
        status = main([str(path), "--jobs", "0"])
        assert status == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--jobs", "-3"], "--jobs"),
            (["--deadline", "-1"], "--deadline"),
            (["--deadline", "nan"], "--deadline"),
            (["--node-budget", "0"], "--node-budget"),
            (["--node-budget", "-5"], "--node-budget"),
            (["--max-iterations", "0"], "--max-iterations"),
            (["--shard-timeout", "-2.5"], "--shard-timeout"),
            (["--shard-timeout", "0"], "--shard-timeout"),
            (["--shard-timeout", "nan"], "--shard-timeout"),
            (["--shard-timeout", "inf"], "--shard-timeout"),
            (["--jobs", "0"], "--jobs"),
            (["--context-switches", "-1"], "--context-switches"),
        ],
    )
    def test_nonsensical_flag_values_exit_two(self, tmp_path, capsys, flags, named):
        # Range validation fires before any file I/O: the message names the
        # flag, lands on stderr, and the exit status is the error status 2.
        path = tmp_path / "prog.bp"
        path.write_text(POSITIVE)
        status = main([str(path), *flags])
        captured = capsys.readouterr()
        assert status == 2
        assert named in captured.err
        assert captured.out == ""
        assert "Traceback" not in captured.err


class TestCliSingletonRetry:
    """The single-query path gets the batch path's transient-failure retry."""

    def test_transient_failure_is_retried_once(self, tmp_path, capsys):
        from repro.testing import FaultPlan, faults

        path = tmp_path / "prog.bp"
        path.write_text(POSITIVE)
        token = tmp_path / "once.token"
        # The injected failure latches on the token: it fires on the first
        # attempt only, so a single bounded-backoff retry must succeed.
        faults.install(FaultPlan(fail_query=str(path), once_token=str(token)))
        try:
            status = main([str(path), "--target", "main:target"])
        finally:
            faults.clear()
        captured = capsys.readouterr()
        assert status == 1  # reachable — the retry answered
        assert "retry" in captured.out
        assert token.exists()  # the fault did fire once

    def test_retry_is_recorded_in_json_details(self, tmp_path, capsys):
        from repro.testing import FaultPlan, faults

        path = tmp_path / "prog.bp"
        path.write_text(POSITIVE)
        token = tmp_path / "once.token"
        faults.install(FaultPlan(fail_query=str(path), once_token=str(token)))
        try:
            status = main([str(path), "--target", "main:target", "--json"])
        finally:
            faults.clear()
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["details"]["retries"] == 1

    def test_persistent_failure_still_raises(self, tmp_path):
        from repro.testing import FaultPlan, faults

        path = tmp_path / "prog.bp"
        path.write_text(POSITIVE)
        # No once_token: the fault fires on every attempt; after the single
        # retry the genuine failure propagates (it is a bug, not noise).
        faults.install(FaultPlan(fail_query=str(path)))
        try:
            with pytest.raises(RuntimeError, match="injected shard failure"):
                main([str(path), "--target", "main:target"])
        finally:
            faults.clear()

    def test_resource_exhaustion_is_never_retried(self, tmp_path, capsys):
        # A typed budget trip is deterministic; retrying would double the
        # cost for the same answer. Exit status 3, single attempt.
        path = tmp_path / "prog.bp"
        path.write_text(POSITIVE)
        status = main([str(path), "--target", "main:target", "--deadline", "0"])
        assert status == 3


class TestCliBatch:
    def _write(self, tmp_path):
        pos = tmp_path / "pos.bp"
        pos.write_text(POSITIVE)
        neg = tmp_path / "neg.bp"
        neg.write_text(NEGATIVE)
        return pos, neg

    def test_multi_file_batch_reports_and_exits_one(self, tmp_path, capsys):
        pos, neg = self._write(tmp_path)
        status = main([str(pos), str(neg), "--target", "main:target", "--jobs", "2"])
        captured = capsys.readouterr()
        assert status == 1  # at least one file reachable
        assert "pos.bp" in captured.out and "neg.bp" in captured.out
        assert "speedup=" in captured.out
        assert "live" in captured.out  # per-shard kernel stats columns

    def test_multi_target_batch_on_one_file(self, tmp_path, capsys):
        source = """
        main() begin
          a: skip;
          b: skip;
        end
        """
        path = tmp_path / "two.bp"
        path.write_text(source)
        status = main([str(path), "--target", "main:a", "--target", "main:b"])
        captured = capsys.readouterr()
        assert status == 1
        assert "main:a" in captured.out and "main:b" in captured.out

    def test_all_unreachable_batch_exits_zero(self, tmp_path, capsys):
        neg = tmp_path / "neg.bp"
        neg.write_text(NEGATIVE)
        neg2 = tmp_path / "neg2.bp"
        neg2.write_text(NEGATIVE)
        status = main([str(neg), str(neg2), "--target", "main:target"])
        capsys.readouterr()
        assert status == 0

    def test_batch_with_broken_file_exits_two(self, tmp_path, capsys):
        pos, _ = self._write(tmp_path)
        bad = tmp_path / "bad.bp"
        bad.write_text("main( begin")
        status = main([str(pos), str(bad), "--target", "main:target"])
        captured = capsys.readouterr()
        assert status == 2
        assert "bad.bp" in captured.err
        assert "Traceback" not in captured.err

    def test_batch_json_output(self, tmp_path, capsys):
        pos, neg = self._write(tmp_path)
        status = main(
            [str(pos), str(neg), "--target", "main:target", "--jobs", "2", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert payload["jobs"] == 2
        assert [row["name"] for row in payload["shards"]] == ["pos.bp", "neg.bp"]
        assert payload["shards"][0]["reachable"] is True
        assert payload["shards"][1]["reachable"] is False
        assert payload["shards"][0]["live_nodes"] > 0
        # Two distinct files: no grouping, every query paid its own solve.
        assert payload["queries_per_solve"] == 1.0
        assert all(row["reused_solve"] is False for row in payload["shards"])

    def test_batch_json_reports_session_reuse(self, tmp_path, capsys):
        """Multi-target on one file rides a single session: the JSON output
        carries verdict, iterations and the per-query reuse flag."""
        source = """
        decl g;
        main() begin
          g := T;
          if (g) then a: skip; fi
          if (!g) then b: skip; fi
        end
        """
        path = tmp_path / "multi.bp"
        path.write_text(source)
        status = main(
            [str(path), "--target", "main:a", "--target", "main:b", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        rows = payload["shards"]
        assert [row["name"] for row in rows] == ["multi.bp:main:a", "multi.bp:main:b"]
        assert rows[0]["reachable"] is True and rows[1]["reachable"] is False
        assert all(row["iterations"] > 0 for row in rows)
        assert [row["reused_solve"] for row in rows] == [False, True]
        assert payload["queries_per_solve"] == 2.0
        assert payload["reused_solves"] == 1
