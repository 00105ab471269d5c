"""Tests for the counterexample witness subsystem.

The contract under test, end to end:

* ``AnalysisSession.explain`` turns every reachable verdict into a
  statement-level trace that **replays** through the explicit semantics
  (:mod:`repro.baselines.semantics`) from the initial state to the target —
  identically for all three sequential algorithms, because the pick kernel
  is deterministic.
* Extraction is a post-pass: it never changes a verdict, and an
  unreachable target yields no trace (``None``), never a fabricated one.
* The compiled, bisecting extractor walks exactly the traces of the
  straightforward algorithm it replaced (kept below as an oracle), and it
  releases everything it compiled or pinned when it closes.
* The front ends agree: ``check_reachability(witness=True)``, the CLI
  ``--witness`` flag, the shard path's ``BatchQuery.witness`` and the
  daemon's ``witness`` op all carry the same JSON trace shape, and all
  reject the flag combinations that cannot produce a sound trace.
"""

from __future__ import annotations

import asyncio
import gc
import json
import weakref

import pytest

from repro.api import AnalysisSession
from repro.algorithms import SEQUENTIAL_ALGORITHMS, run_batch
from repro.benchgen import DriverSpec, TerminatorSpec, make_driver, make_terminator
from repro.frontends import check_reachability, main
from repro.parallel import BatchQuery, run_shards
from repro.service import AnalysisDaemon, DaemonConfig, ProtocolError, parse_request
from repro.witness import (
    WitnessExtractionError,
    WitnessExtractor,
    WitnessTrace,
    WitnessValidationError,
    validate_trace,
)

ALGORITHMS = sorted(SEQUENTIAL_ALGORITHMS)

#: Call + branch + data flow through a helper; ``reach`` needs the callee's
#: effect on ``g`` to be tracked precisely, ``unreach`` is dead for the
#: same reason.
PROGRAM = """
decl g;
main() begin
  decl a;
  a := T;
  g := F;
  call flip(a);
  if (g) then reach: skip; fi
  if (!g) then unreach: skip; fi
end
flip(x) begin
  if (x) then g := T; else g := F; fi
end
"""

#: Recursion: the witness must thread matched call/return pairs two deep.
RECURSIVE = """
decl g;
main() begin
  g := F;
  call rec(T);
  if (g) then deep: skip; fi
end
rec(n) begin
  if (n) then
    call rec(F);
    g := T;
  fi
end
"""


class ReferenceExtractor(WitnessExtractor):
    """The extraction algorithm before plan compilation, kept as an oracle.

    Every layer and clause body is a direct ``eval_formula`` call, ranks
    come from a linear scan of the layers, and the entry walk tries one
    clause node per layer until a caller appears.
    """

    def _ensure_layers(self):
        if self._layers:
            return self._layers
        mgr = self.manager
        layers = [mgr.FALSE]
        interps = dict(self.base_interps)
        while True:
            interps["SummaryEF"] = layers[-1]
            node = self.backend.eval_formula(self._formulas["operator"], interps)
            if node == layers[-1]:
                break
            self.backend.retain(node)
            layers.append(node)
        self._layers = layers
        self._init_node = self.backend.retain(
            self.backend.eval_formula(self._formulas["initial"], self.base_interps)
        )
        return layers

    def _clause_node(self, kind, k):
        key = (kind, k)
        node = self._clause_cache.get(key)
        if node is None:
            interps = dict(self.base_interps)
            interps["SummaryEF"] = self._layers[k if kind == "entry" else k - 1]
            node = self.backend.eval_formula(self._formulas[kind], interps)
            for var in self._picks[kind]:
                node = self.manager.and_(node, self.context.domain_constraint(var))
            self.backend.retain(node)
            self._clause_cache[key] = node
        return node

    def _rank(self, pair_bits):
        mgr = self.manager
        for k, layer in enumerate(self._layers):
            if layer != mgr.FALSE and mgr.eval(layer, pair_bits):
                return k
        raise WitnessExtractionError(
            "selected summary pair is outside the entry-forward fixed point"
        )

    def _entry_steps(self, entry_val):
        segments = []
        current = entry_val
        while not self._is_initial(current):
            picked = None
            pins = self._bits(self.u, current)
            for j in range(len(self._layers)):
                picked = self._pick(self._clause_node("entry", j), pins, (self.x, self.y))
                if picked is not None:
                    break
            if picked is None:
                raise WitnessExtractionError(
                    "no caller found for a non-initial reachable entry"
                )
            x_val, y_val = picked
            segments.append((x_val, y_val, current))
            current = x_val
        steps = [self._step("start", current)]
        for x_val, y_val, entry in reversed(segments):
            steps.extend(self._path_steps(x_val, y_val))
            steps.append(self._step("call", entry))
        return steps


#: (name, program factory) of the oracle corpus: the two small programs
#: above plus the two programs of the session-witness benchmark workload.
ORACLE_PROGRAMS = [
    ("program", lambda: PROGRAM),
    ("recursive", lambda: RECURSIVE),
    (
        "driver-3-pos",
        lambda: make_driver(
            DriverSpec(name="driver-3-pos", handlers=3, flags=3, helpers=1, positive=True)
        ),
    ),
    (
        "terminator-schoose-3b-neg",
        lambda: make_terminator(
            TerminatorSpec(
                name="terminator-schoose-3b-neg", counter_bits=3, variant="schoose",
                positive=False,
            )
        ),
    ),
]


def _exit_and_label_targets(session):
    targets = []
    for procedure, proc_cfg in session.cfg.procedures.items():
        targets.extend(f"{procedure}:{label}" for label in sorted(proc_cfg.labels))
        targets.append([(session.cfg.module_of(procedure), proc_cfg.exit)])
    return targets


def _assert_well_formed(trace, session, spec):
    assert isinstance(trace, WitnessTrace)
    assert trace.validated
    assert trace.steps, "a witness trace is never empty"
    first = trace.steps[0]
    assert first.kind == "start"
    last = trace.steps[-1]
    locations = set(session.resolve(spec))
    assert (session.cfg.module_of(last.procedure), last.pc) in locations
    for step in trace.steps[1:]:
        assert step.kind in ("internal", "call", "return")
        assert step.statement is not None


class TestSessionExplain:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_reachable_yields_validated_trace(self, algorithm):
        session = AnalysisSession(PROGRAM, default_algorithm=algorithm)
        try:
            result = session.check("main:reach", algorithm=algorithm)
            assert result.reachable is True
            trace = session.explain("main:reach", algorithm=algorithm)
            _assert_well_formed(trace, session, "main:reach")
            assert trace.algorithm == algorithm
        finally:
            session.close()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_unreachable_yields_none(self, algorithm):
        session = AnalysisSession(PROGRAM, default_algorithm=algorithm)
        try:
            assert session.check("main:unreach", algorithm=algorithm).reachable is False
            assert session.explain("main:unreach", algorithm=algorithm) is None
        finally:
            session.close()

    def test_traces_identical_across_algorithms(self):
        """The deterministic pick kernel makes the walk algorithm-independent."""
        rendered = []
        for algorithm in ALGORITHMS:
            session = AnalysisSession(PROGRAM, default_algorithm=algorithm)
            try:
                trace = session.explain("main:reach", algorithm=algorithm)
                payload = trace.to_dict()
                payload.pop("algorithm")
                rendered.append(payload)
            finally:
                session.close()
        assert rendered[0] == rendered[1] == rendered[2]

    def test_recursive_program_matched_calls(self):
        session = AnalysisSession(RECURSIVE)
        try:
            trace = session.explain("main:deep")
            _assert_well_formed(trace, session, "main:deep")
            calls = sum(1 for step in trace.steps if step.kind == "call")
            returns = sum(1 for step in trace.steps if step.kind == "return")
            assert calls == returns == 2  # rec(T) -> rec(F), both return
        finally:
            session.close()

    def test_explain_does_not_change_the_verdict(self):
        session = AnalysisSession(PROGRAM)
        try:
            before = session.check("main:reach")
            session.explain("main:reach")
            after = session.check("main:reach")
            assert before.reachable is after.reachable is True
            assert session.check("main:unreach").reachable is False
        finally:
            session.close()

    def test_tampered_trace_fails_replay(self):
        session = AnalysisSession(PROGRAM)
        try:
            trace = session.explain("main:reach")
            victim = next(step for step in trace.steps if step.kind == "internal")
            victim.globals["g"] = not victim.globals["g"]
            with pytest.raises(WitnessValidationError):
                validate_trace(session.cfg, trace, session.resolve("main:reach"))
        finally:
            session.close()


class TestFrontendWitness:
    def test_check_reachability_attaches_witness(self):
        result = check_reachability(PROGRAM, target="main:reach", witness=True)
        assert result.reachable is True
        assert result.witness is not None
        assert result.witness["validated"] is True
        assert result.witness["length"] == len(result.witness["steps"])
        assert "witness_error" not in result.details

    def test_check_reachability_unreachable_has_no_witness(self):
        result = check_reachability(PROGRAM, target="main:unreach", witness=True)
        assert result.reachable is False
        assert result.witness is None

    def test_witness_off_leaves_field_none(self):
        result = check_reachability(PROGRAM, target="main:reach")
        assert result.witness is None

    def test_failed_replay_is_recorded_beside_the_verdict(self, monkeypatch):
        # Both callers of the witness post-pass record a typed replay failure
        # next to the authoritative verdict instead of failing the query.
        import repro.witness

        def reject(cfg, trace, locations):
            raise WitnessValidationError("injected replay failure")

        monkeypatch.setattr(repro.witness, "validate_trace", reject)
        direct = check_reachability(PROGRAM, target="main:reach", witness=True)
        report = run_batch(
            [BatchQuery(name="hit", program=PROGRAM, target="main:reach", witness=True)]
        )
        (shard,) = report.shards
        assert shard.status == "ok"
        for result in (direct, shard.result):
            assert result.reachable is True
            assert result.witness is None
            assert result.details["witness_error"].startswith("WitnessValidationError:")

    def test_shard_path_carries_witness(self):
        queries = [
            BatchQuery(name="hit", program=PROGRAM, target="main:reach", witness=True),
            BatchQuery(name="miss", program=PROGRAM, target="main:unreach", witness=True),
        ]
        results, _mode, _reason = run_shards(queries, jobs=2)
        by_name = {shard.name: shard for shard in results}
        hit = by_name["hit"].result
        assert hit.reachable is True
        assert hit.witness is not None and hit.witness["validated"] is True
        miss = by_name["miss"].result
        assert miss.reachable is False
        assert miss.witness is None


class TestCliWitness:
    def _write(self, tmp_path, source=PROGRAM):
        path = tmp_path / "program.bp"
        path.write_text(source)
        return str(path)

    def test_witness_json_output(self, tmp_path, capsys):
        status = main(
            [self._write(tmp_path), "--target", "main:reach", "--witness", "--json"]
        )
        assert status == 1  # reachable
        payload = json.loads(capsys.readouterr().out)
        assert payload["reachable"] is True
        assert payload["witness"]["validated"] is True
        assert payload["witness"]["steps"][0]["kind"] == "start"

    def test_witness_text_output(self, tmp_path, capsys):
        status = main([self._write(tmp_path), "--target", "main:reach", "--witness"])
        assert status == 1
        out = capsys.readouterr().out
        assert "witness trace" in out
        assert "replay-validated" in out

    def test_witness_unreachable_prints_none(self, tmp_path, capsys):
        status = main([self._write(tmp_path), "--target", "main:unreach", "--witness", "--json"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reachable"] is False
        assert payload.get("witness") is None

    def test_witness_rejects_concurrent(self, tmp_path, capsys):
        status = main([self._write(tmp_path), "--witness", "--concurrent"])
        assert status == 2
        assert "--witness" in capsys.readouterr().err


class TestDaemonWitness:
    def _query(self, **fields):
        request = {"op": "query", "program": PROGRAM, "target": "main:reach"}
        request.update(fields)
        return request

    def test_parse_request_rejects_concurrent_witness(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(self._query(witness=True, concurrent=True), job_id="q1")
        assert info.value.payload["type"] == "BadRequest"
        assert "witness" in info.value.payload["message"]

    def test_parse_request_rejects_optimized_numeric_target_witness(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(
                self._query(witness=True, optimize=1, target=[[0, 3]]), job_id="q1"
            )
        assert "witness" in info.value.payload["message"]
        # The same numeric target is fine without optimization.
        job = parse_request(self._query(witness=True, target=[[0, 3]]), job_id="q2")
        assert job.witness is True

    def test_witness_requests_do_not_coalesce_with_plain_ones(self):
        plain = parse_request(self._query(), job_id="a")
        with_witness = parse_request(self._query(witness=True), job_id="b")
        assert plain.coalesce_key() != with_witness.coalesce_key()

    def test_witness_op_round_trip(self):
        async def scenario(daemon):
            hit = await daemon.handle_request(self._query(op="witness", id=1))
            miss = await daemon.handle_request(
                self._query(op="witness", id=2, target="main:unreach")
            )
            return hit, miss

        hit, miss = asyncio.run(self._with_daemon(scenario))
        assert hit["ok"] and hit["reachable"] is True
        assert hit["witness"]["validated"] is True
        assert "witness_error" not in hit
        assert miss["ok"] and miss["reachable"] is False
        assert "witness" not in miss

    async def _with_daemon(self, scenario):
        daemon = AnalysisDaemon(DaemonConfig(workers=0))
        await daemon.start()
        try:
            return await scenario(daemon)
        finally:
            await daemon.shutdown(drain=False)


class TestCompiledExtraction:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        "make", [make for _, make in ORACLE_PROGRAMS], ids=[name for name, _ in ORACLE_PROGRAMS]
    )
    def test_matches_reference_algorithm(self, make, algorithm):
        session = AnalysisSession(make(), default_algorithm=algorithm)
        try:
            session.solve()
            targets = [
                target
                for target in _exit_and_label_targets(session)
                if session.check(target).reachable
            ]
            assert targets
            compiled = [session.explain(target).to_dict() for target in targets]
            state = session._state(algorithm)
            extractor = state.witness_extractor
            # The session closes whichever extractor it holds.
            state.witness_extractor = ReferenceExtractor(
                extractor.backend, extractor.templates, extractor.cfg
            )
            try:
                assert [session.explain(target).to_dict() for target in targets] == compiled
                reference = state.witness_extractor
                layers = reference._layers
                assert layers == extractor._layers
                for kind in ("internal", "call", "entry"):
                    for k in range(0 if kind == "entry" else 1, len(layers)):
                        assert extractor._clause_node(kind, k) == reference._clause_node(kind, k)
            finally:
                extractor.close()
        finally:
            session.close()

    def test_gc_between_explains_and_close_restore_the_backend(self):
        session = AnalysisSession(RECURSIVE)
        try:
            session.solve()
            assert session.check("main:deep").reachable is True
            state = session._state(None)
            manager = state.backend.manager
            before = state.backend.stats_snapshot()
            first = session.explain("main:deep").to_dict()
            assert manager.collect_garbage() > 0
            assert session.explain("main:deep").to_dict() == first
            state.witness_extractor.close()
            state.witness_extractor = None
            after = state.backend.stats_snapshot()
            for key in ("compiled_plans", "protected_nodes", "retained_edges"):
                assert after[key] == before[key], key
            # A fresh extractor compiles its plans again after a sweep.
            manager.collect_garbage()
            assert session.explain("main:deep").to_dict() == first
        finally:
            session.close()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_closed_session_frees_its_manager_without_cyclic_gc(self, algorithm):
        # Reference cycles through a solved session would keep its whole
        # node table alive until a full collection: peak memory would then
        # follow the collector's timing instead of the live sessions.
        enabled = gc.isenabled()
        gc.disable()
        try:
            session = AnalysisSession(RECURSIVE, default_algorithm=algorithm)
            session.solve()
            assert session.explain("main:deep") is not None
            manager = weakref.ref(session._state(algorithm).backend.manager)
            session.close()
            del session
            assert manager() is None
        finally:
            if enabled:
                gc.enable()
