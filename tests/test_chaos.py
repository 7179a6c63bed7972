"""The chaos table: its manifest, its verdict rule and its pinned defects.

* **Manifest** — the no-flag plan for Account + QStack visits exactly
  the rows CI certifies.
* **Verdict** — a row passes iff every safety and liveness gate holds;
  the report passes iff every row does.
* **Serving liveness** — every admitted request reaches exactly one
  terminal outcome, and the gate says so when it does not.
* **Defects** — strict xfails that reproduce failures seen only at seeds
  CI does not run yet.  Each turns into an XPASS (and so a test failure)
  the day its defect is fixed, which is the cue to widen the row's seeds.
"""

import dataclasses
from collections import Counter

import pytest

from repro import chaos
from repro.adts.registry import make_adt
from repro.cc.workload import WorkloadConfig, generate
from repro.chaos import (
    REPLICATION_SCENARIOS,
    SCENARIOS,
    SERVE_MIXES,
    Scenario,
    plan,
    run_chaos,
    verdict,
)
from repro.core.methodology import derive
from repro.dist.audit import audit_global
from repro.dist.cluster import Cluster
from repro.dist.crash import CrashSchedule

ROWS = {scenario.name: scenario for scenario in SCENARIOS}


def adts_for(*names):
    return {
        name: (adt, derive(adt).final_table)
        for name, adt in ((name, make_adt(name)) for name in names)
    }


def one_cell(name, backend):
    """The ``name`` row restricted to its cell on ``backend``."""
    scenario = ROWS[name]
    cells = tuple(c for c in scenario.cells if c["backend"] == backend)
    return dataclasses.replace(scenario, cells=cells)


class TestManifest:
    def test_no_flag_plan_matches_the_ci_matrix(self):
        visits = Counter(scenario.name for scenario, *_ in plan(
            ["Account", "QStack"]
        ))
        assert visits == {
            "storm": 32, "sweep": 28, "dist": 24, "dist_sweep": 4,
            "serve": 4, "replication": 2,
        }
        assert visits["serve"] * len(SERVE_MIXES) == 12
        assert visits["replication"] * len(REPLICATION_SCENARIOS) == 10

    def test_seeds_override_every_row(self):
        seeds = {seed for *_, seed in plan(["Account"], seeds=(9,))}
        assert seeds == {9}


class TestVerdict:
    def row(self, safety, liveness):
        return {"safety": safety, "liveness": liveness}

    def test_all_gates_true_passes(self):
        rows = [self.row({"a": True}, {"b": True}), self.row({}, {})]
        assert verdict(rows)
        assert all(row["passed"] for row in rows)

    @pytest.mark.parametrize("kind", ["safety", "liveness"])
    def test_one_false_gate_fails_row_and_report(self, kind):
        rows = [self.row({"a": True}, {"b": True}) for _ in range(2)]
        rows[1][kind] = {gate: False for gate in rows[1][kind]}
        assert not verdict(rows)
        assert [row["passed"] for row in rows] == [True, False]


class TestReport:
    def test_rows_carry_the_one_schema(self):
        report = run_chaos(
            adts_for("Account"), seeds=(7,),
            scenarios=(one_cell("storm", "scheduler"),),
        )
        assert set(report) == {"matrix", "rows", "passed"}
        for row in report["rows"]:
            assert set(row) == {
                "scenario", "adt", "backend", "shards", "replicas",
                "policy", "seed", "safety", "liveness", "passed", "evidence",
            }

    def test_scenario_seam_runs_a_custom_table(self):
        def check(adt, table, seed, cell):
            return {
                "safety": {"ok": True},
                "liveness": {"late": seed != 2},
                "evidence": {"seed": seed},
            }

        cell = {"backend": "none", "shards": None, "replicas": None,
                "policy": "optimistic"}
        report = run_chaos(
            adts_for("Account"),
            scenarios=(Scenario("probe", check, (cell,), (1, 2)),),
        )
        assert [row["passed"] for row in report["rows"]] == [True, False]
        assert not report["passed"]


class TestServeLiveness:
    def serve_liveness(self):
        report = run_chaos(
            adts_for("Account"), scenarios=(one_cell("serve", "scheduler"),)
        )
        (row,) = report["rows"]
        return [row["liveness"][f"{mix}.terminal_outcomes"]
                for mix in sorted(SERVE_MIXES)]

    def test_every_request_settles_once(self):
        assert self.serve_liveness() == [True] * len(SERVE_MIXES)

    @pytest.mark.parametrize("fault", ["never_settled", "settled_twice"])
    def test_gate_fails_when_outcomes_and_counters_disagree(
        self, monkeypatch, fault
    ):
        hardened = chaos._hardened_loop

        def miscounting_loop(*args, **kwargs):
            loop = hardened(*args, **kwargs)
            run = loop.run

            def miscounted_run():
                result = run()
                if fault == "never_settled":
                    loop.outcomes.popitem()
                    return result
                return dataclasses.replace(
                    result, requests=result.requests + 1
                )

            loop.run = miscounted_run
            return loop

        monkeypatch.setattr(chaos, "_hardened_loop", miscounting_loop)
        assert self.serve_liveness() == [False] * len(SERVE_MIXES)


def crashed_cluster(name, seed, target, point):
    """A 2-shard cluster run killed at protocol point ``target``, which
    must be ``point`` (else the reproducer has drifted: a hard failure,
    not an expected one)."""
    adt, table = adts_for(name)[name]
    workload = generate(
        adt, "obj",
        WorkloadConfig(transactions=6, operations_per_transaction=3,
                       seed=seed),
    )
    schedule = CrashSchedule(target=target)
    cluster = Cluster(
        adt, table, shards=2, policy="optimistic", crash_schedule=schedule,
    )
    cluster.run(workload, seed=seed)
    if schedule.fired != point:
        pytest.fail(f"crash point {target} is now {schedule.fired}")
    return cluster


class TestPinnedDefects:
    """Failures hidden by the per-row CI seeds; see ROADMAP D1–D4.

    ``raises=AssertionError`` keeps a drifted reproducer (``pytest.fail``)
    a hard failure rather than an expected one.
    """

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="D1: coordinator crash at decide:post-send breaks AD/CD",
    )
    def test_d1_protocol_crash_keeps_ad_cd(self):
        cluster = crashed_cluster(
            "QStack", 1, 79, ("coord", "decide:post-send")
        )
        assert audit_global(cluster).ad_cd_ok

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="D4: participant crash at abort:pre-apply breaks "
               "serializability",
    )
    def test_d4_protocol_crash_keeps_serializability(self):
        cluster = crashed_cluster(
            "Account", 3, 76, ("node1", "abort:pre-apply")
        )
        assert audit_global(cluster).serializable

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="D2: serving a 2-shard cluster under overload_faults "
               "commits a non-serializable history",
    )
    def test_d2_cluster_serving_stays_serializable(self):
        report = run_chaos(
            adts_for("QStack"), seeds=(5,),
            scenarios=(one_cell("serve", "cluster"),),
        )
        assert report["rows"][0]["safety"]["overload_faults.serializable"]

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="D3: scheduler serving goodput falls below half of nominal",
    )
    def test_d3_scheduler_serving_keeps_goodput_floor(self):
        report = run_chaos(
            adts_for("Account"), seeds=(5,),
            scenarios=(one_cell("serve", "scheduler"),),
        )
        assert report["rows"][0]["liveness"]["goodput"]
