"""Distributed chaos: storm determinism, byte-stable reports, audits."""

import pytest

from repro.adts.account import AccountSpec
from repro.adts.qstack import QStackSpec
from repro.cc.workload import WorkloadConfig, generate
from repro.core.methodology import derive
from repro.chaos import SCENARIOS, render_report, run_chaos
from repro.dist import Cluster, audit_global
from repro.experiments import golden
from repro.robust import FaultPlan, FaultSpec


@pytest.fixture(scope="module")
def adts():
    account = AccountSpec()
    qstack = QStackSpec(operations=golden.QSTACK_WORKED_OPERATIONS)
    return {
        "Account": (account, derive(account).final_table),
        "QStack": (qstack, derive(qstack).final_table),
    }


def workload_for(adt, seed):
    return generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=5, operations_per_transaction=3, seed=seed,
            abort_probability=0.15,
        ),
    )


class TestStormDeterminism:
    def test_same_seed_same_plan_same_transcript(self, adts):
        adt, table = adts["Account"]
        transcripts = []
        for _ in range(2):
            cluster = Cluster(
                adt, table, shards=2,
                fault_plan=FaultPlan(9, FaultSpec.message_storm(0.1)),
            )
            transcripts.append(cluster.run(workload_for(adt, 9), seed=9))
        assert transcripts[0] == transcripts[1]

    def test_empty_message_plan_is_bit_identical_to_no_plan(self, adts):
        adt, table = adts["QStack"]
        bare = Cluster(adt, table, shards=2)
        bare_transcript = bare.run(workload_for(adt, 7), seed=7)
        guarded = Cluster(
            adt, table, shards=2, fault_plan=FaultPlan(7, FaultSpec())
        )
        assert guarded.run(workload_for(adt, 7), seed=7) == bare_transcript

    def test_dist_storm_exercises_crashes_and_still_audits(self, adts):
        adt, table = adts["Account"]
        crashed = 0
        for seed in (3, 13, 29):
            cluster = Cluster(
                adt, table, shards=2,
                fault_plan=FaultPlan(seed, FaultSpec.dist_storm(0.3)),
            )
            cluster.run(workload_for(adt, seed), seed=seed)
            crashed += cluster.stats.node_crashes
            audit = audit_global(cluster)
            assert audit.passed, audit.violations
            assert cluster.stats.node_recoveries + \
                cluster.stats.coordinator_recoveries >= \
                min(cluster.stats.node_crashes, 1)
        assert crashed > 0, "the dist storm never exercised a crash"

    def test_storm_audits_pass_across_the_matrix(self, adts):
        for name in adts:
            adt, table = adts[name]
            for shards in (2, 3):
                cluster = Cluster(
                    adt, table, shards=shards,
                    fault_plan=FaultPlan(11, FaultSpec.message_storm(0.08)),
                )
                cluster.run(workload_for(adt, 11), seed=11)
                audit = audit_global(cluster)
                assert audit.passed, (name, shards, audit.violations)


class TestDistChaosReport:
    ROWS = {s.name: s for s in SCENARIOS}

    def test_report_is_byte_stable(self, adts):
        reports = [
            render_report(
                run_chaos(adts, seeds=(7,), scenarios=(self.ROWS["dist"],))
            )
            for _ in range(2)
        ]
        assert reports[0] == reports[1]

    def test_campaign_passes_and_covers_the_matrix(self, adts):
        report = run_chaos(
            adts, scenarios=(self.ROWS["dist"], self.ROWS["dist_sweep"])
        )
        assert report["passed"], [
            row for row in report["rows"] if not row["passed"]
        ]
        cells = [r for r in report["rows"] if r["scenario"] == "dist"]
        sweeps = [r for r in report["rows"] if r["scenario"] == "dist_sweep"]
        # 2 ADTs x 2 shard counts x 3 mixes x 2 seeds
        assert len(cells) == 24
        assert len(sweeps) == 4
        assert all(s["evidence"]["points_reached"] > 0 for s in sweeps)
        baseline = [c for c in cells if c["evidence"]["mix"] == "baseline"]
        assert len(baseline) == 8
        assert all(cell["evidence"]["faults"] is None for cell in baseline)

    def test_dist_rows_share_the_one_verdict(self, adts):
        report = run_chaos(
            {"Account": adts["Account"]},
            seeds=(7,),
            scenarios=(self.ROWS["storm"], self.ROWS["dist"]),
        )
        dist = [r for r in report["rows"] if r["scenario"] == "dist"]
        assert {row["policy"] for row in dist} == {"optimistic"}
        assert {row["shards"] for row in dist} == {1, 2}
        assert report["passed"] == all(r["passed"] for r in report["rows"])
