"""Tests for the ``python -m repro`` command-line interface."""

import functools

import pytest

from repro import chaos
from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_adt_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify", "BTree"])


class TestCommands:
    def test_adts_lists_builtins(self, capsys):
        assert main(["adts"]) == 0
        out = capsys.readouterr().out
        for name in ("QStack", "Account", "Directory"):
            assert name in out

    def test_classify(self, capsys):
        assert main(["classify", "Account"]) == 0
        out = capsys.readouterr().out
        assert "Deposit" in out and "M" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "Stack"]) == 0
        out = capsys.readouterr().out
        assert "obs/mod" in out and "Push" in out

    def test_derive_stage3(self, capsys):
        assert main(["derive", "Stack", "--stage", "3"]) == 0
        out = capsys.readouterr().out
        assert "(o1,o2)" in out and "AD" in out

    def test_derive_paper_mode(self, capsys):
        assert main(["derive", "QStack", "--paper", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "f ≠ b" in out

    def test_graph_ascii(self, capsys):
        assert main(["graph", "QStack"]) == 0
        out = capsys.readouterr().out
        assert "ref b" in out and "ref f" in out

    def test_graph_dot(self, capsys):
        assert main(["graph", "Set", "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main([
            "simulate", "Account", "--transactions", "5", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "serializable: True" in out

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "table03"]) == 0
        out = capsys.readouterr().out
        assert "table03" in out

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "nope"]) == 2


class TestChaosExitCode:
    """The chaos exit code is the CI contract: forcing any single safety
    or liveness gate false in any row must fail that row, the report and
    the command.  Each row replays the verdict a real run recorded."""

    #: The replayed checks never look at the ADT.
    ADTS = {"Account": (None, None)}

    @pytest.fixture(scope="class")
    def recorded(self):
        from repro.adts.registry import make_adt
        from repro.core.methodology import derive

        adt = make_adt("Account")
        return chaos.run_chaos(
            {"Account": (adt, derive(adt).final_table)}, seeds=(7,)
        )["rows"]

    def replay(self, row, kind=None, gate=None):
        """A one-row table replaying ``row``, with ``gate`` forced false."""
        outcome = {
            "safety": dict(row["safety"]),
            "liveness": dict(row["liveness"]),
            "evidence": row["evidence"],
        }
        if gate is not None:
            outcome[kind][gate] = False
        cell = {axis: row[axis] for axis in chaos.AXES}
        return (
            chaos.Scenario(
                row["scenario"], lambda *_: outcome, (cell,), (row["seed"],)
            ),
        )

    def run_cli(self, monkeypatch, capsys, table):
        monkeypatch.setattr(
            chaos, "run_chaos",
            functools.partial(chaos.run_chaos, scenarios=table),
        )
        code = main(["chaos", "Account"])
        capsys.readouterr()
        return code

    def test_passing_report_exits_zero(self, recorded, monkeypatch, capsys):
        for row in recorded:
            table = self.replay(row)
            assert chaos.run_chaos(self.ADTS, scenarios=table)[
                "passed"
            ]
            assert self.run_cli(monkeypatch, capsys, table) == 0

    @pytest.mark.parametrize("scenario", [s.name for s in chaos.SCENARIOS])
    def test_forced_gate_fails_row_report_and_exit(
        self, recorded, monkeypatch, capsys, scenario
    ):
        rows = [row for row in recorded if row["scenario"] == scenario]
        forced = 0
        for row in rows:
            for kind in ("safety", "liveness"):
                for gate in row[kind]:
                    table = self.replay(row, kind, gate)
                    report = chaos.run_chaos(self.ADTS, scenarios=table)
                    assert not report["rows"][0]["passed"], (kind, gate)
                    assert not report["passed"], (kind, gate)
                    assert self.run_cli(monkeypatch, capsys, table) == 1
                    forced += 1
        assert rows and forced


class TestTablesCommand:
    def test_tables_generates_docs(self, tmp_path, capsys):
        assert main(["tables", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "qstack.md" in out
        generated = {path.name for path in tmp_path.iterdir()}
        assert "README.md" in generated
        assert "account.md" in generated
        content = (tmp_path / "qstack.md").read_text(encoding="utf-8")
        assert "Stage 5" in content and "f ≠ b" in content


class TestSimulateAndTraceCommands:
    def test_simulate_run_header(self, capsys):
        assert main([
            "simulate", "QStack", "--transactions", "6", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "run: adt=QStack policy=blocking transactions=6 operations=3 seed=7"
        )
        assert "table=stage5" in out

    def test_simulate_writes_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert main([
            "simulate", "QStack", "--transactions", "6", "--seed", "7",
            "--trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"trace: {trace_path}" in out
        from repro.obs.tracers import read_trace

        events = read_trace(str(trace_path))
        assert events[0].type == "run_started"
        assert events[-1].type == "run_completed"

    def test_simulate_metrics_json(self, capsys):
        assert main([
            "simulate", "Account", "--transactions", "4", "--seed", "2",
            "--metrics-format", "json",
        ]) == 0
        out = capsys.readouterr().out
        import json

        document = json.loads(out[out.index("{"):])
        assert 'txns{status="committed"}' in document["counters"]

    def test_simulate_metrics_prometheus(self, capsys):
        assert main([
            "simulate", "Account", "--transactions", "4", "--seed", "2",
            "--metrics-format", "prom",
        ]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_txns counter" in out
        assert "repro_makespan" in out

    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main([
            "simulate", "QStack", "--transactions", "8", "--seed", "7",
            "--trace", str(path),
        ]) == 0
        return str(path)

    def test_trace_summary(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace", trace_file]) == 0
        out = capsys.readouterr().out
        assert "events=" in out and "dependencies:" in out

    def test_trace_verify(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace", trace_file, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "serializable (from trace): True" in out

    def test_trace_timeline(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace", trace_file, "--timeline", "1"]) == 0
        out = capsys.readouterr().out
        assert "txn_begun" in out

    def test_trace_timeline_unknown_txn(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace", trace_file, "--timeline", "9999"]) == 1

    def test_trace_entries(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace", trace_file, "--entries"]) == 0
        out = capsys.readouterr().out
        assert "->" in out  # at least one firing line

    def test_trace_missing_file(self, capsys):
        assert main(["trace", "/nonexistent/nope.jsonl"]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_trace_modes_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "x.jsonl", "--entries", "--timeline", "1"]
            )


class TestRobustCommands:
    def test_simulate_with_fault_plan(self, capsys):
        assert main([
            "simulate", "Account", "--transactions", "6", "--seed", "3",
            "--fault-plan", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults: injected=" in out
        assert "serializable: True" in out

    def test_fault_plan_counters_reach_metrics_json(self, capsys):
        assert main([
            "simulate", "Account", "--transactions", "6", "--seed", "3",
            "--fault-plan", "2", "--metrics-format", "json",
        ]) == 0
        out = capsys.readouterr().out
        assert '"robust_faults_injected"' in out
        assert '"robust_invariant_checks"' in out

    def test_simulate_fault_plan_is_reproducible(self, capsys):
        argv = [
            "simulate", "Account", "--transactions", "6", "--seed", "3",
            "--fault-plan", "11",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_simulate_restart_policy_flag(self, capsys):
        assert main([
            "simulate", "Account", "--transactions", "5", "--seed", "3",
            "--restart-policy", "exponential",
        ]) == 0
        assert "serializable: True" in capsys.readouterr().out

    def test_chaos_smoke(self, capsys):
        assert main(["chaos", "Account", "--seeds", "7"]) == 0
        out = capsys.readouterr().out
        assert '"passed": true' in out
        assert (
            "chaos: rows=15 storm=2 sweep=2 dist=6 dist_sweep=2 serve=2 "
            "replication=1 failed=0" in out
        )
        assert "passed=True" in out

    def test_chaos_report_file_is_byte_stable(self, tmp_path, capsys):
        def run(path):
            assert main([
                "chaos", "Account", "--seeds", "7", "--report", str(path),
            ]) == 0
            capsys.readouterr()
            return path.read_bytes()

        assert run(tmp_path / "a.json") == run(tmp_path / "b.json")

    def test_chaos_takes_three_options(self):
        parser = build_parser()
        chaos_parser = parser._subparsers._group_actions[0].choices["chaos"]
        options = [
            action.dest for action in chaos_parser._actions
            if action.dest != "help"
        ]
        assert options == ["adts", "seeds", "report"]

    def test_chaos_unknown_adt_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "BTree"])

    def test_unrecoverable_recovery_divergence_exits_cleanly(self, capsys):
        # Plan 4 at seed 1 poisons a decision that gets logged, then a
        # crash fault forces recovery replay over the tainted log.  The
        # resulting divergence must surface as a reported finding, not a
        # traceback.
        assert main([
            "simulate", "Account", "--seed", "1", "--fault-plan", "4",
        ]) == 1
        captured = capsys.readouterr()
        assert "unrecoverable:" in captured.err


class TestDistCommands:
    def test_simulate_with_shards_audits_globally(self, capsys):
        assert main([
            "simulate", "Account", "--shards", "2", "--transactions", "5",
            "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "shards=2" in out
        assert "distributed: committed=" in out
        assert "audit: passed=True" in out

    def test_simulate_shards_output_is_reproducible(self, capsys):
        argv = [
            "simulate", "Account", "--shards", "2", "--transactions", "5",
            "--seed", "9", "--fault-plan", "9", "--fault-intensity", "0.2",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "faults: injected=" in first
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_simulate_shards_metrics_json(self, capsys):
        assert main([
            "simulate", "Account", "--shards", "2", "--transactions", "5",
            "--seed", "7", "--metrics-format", "json",
        ]) == 0
        out = capsys.readouterr().out
        assert '"dist_messages_sent"' in out
        assert '"dist_prepares_sent"' in out


class TestObservabilityCommands:
    def test_simulate_prints_latency_footer(self, capsys):
        assert main([
            "simulate", "Account", "--transactions", "5", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "latency: p50=" in out
        assert "phases: service=" in out
        assert "commit_wait=" in out

    def test_simulate_shards_prints_e2e_and_rpc_latency(self, capsys):
        assert main([
            "simulate", "Account", "--shards", "2", "--transactions", "5",
            "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "latency: e2e p50=" in out
        assert "rpc " in out and ":p50=" in out

    @pytest.fixture()
    def dist_trace_file(self, tmp_path):
        path = tmp_path / "dist.jsonl"
        assert main([
            "simulate", "Account", "--shards", "2", "--transactions", "8",
            "--seed", "7", "--fault-plan", "3", "--trace", str(path),
        ]) == 0
        return str(path)

    def test_report_renders_the_dashboard(self, dist_trace_file, capsys):
        assert main(["report", dist_trace_file]) == 0
        out = capsys.readouterr().out
        assert "== trace summary ==" in out
        assert "== slowest transactions" in out
        assert "== per-object latency ==" in out
        assert "== per-node span latency ==" in out
        assert "== conflict profile" in out
        assert "txn[driver]" in out  # critical paths are rendered

    def test_report_is_byte_stable(self, dist_trace_file, capsys):
        assert main(["report", dist_trace_file]) == 0
        first = capsys.readouterr().out
        assert main(["report", dist_trace_file]) == 0
        assert capsys.readouterr().out == first

    def test_report_top_and_window_flags(self, dist_trace_file, capsys):
        assert main([
            "report", dist_trace_file, "--top", "2", "--window", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "(top 2)" in out
        assert "(window=8)" in out

    def test_report_missing_file_exits_2(self, capsys):
        assert main(["report", "/nonexistent/trace.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_report_single_node_trace_works_too(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main([
            "simulate", "QStack", "--transactions", "6", "--seed", "7",
            "--trace", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        assert "== trace summary ==" in capsys.readouterr().out
