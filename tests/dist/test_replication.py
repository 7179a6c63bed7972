"""Replica groups: log shipping, view changes, fencing, failover.

The replication layer's contracts, each tested on its own:

* **Identity at ``replicas=1``** — no manager is built, so replicated
  clusters degenerate bit-identically to the bare ones (transcript and
  frontend parity).
* **Determinism** — a fault-free replicated run and the full failover
  campaign are byte-stable across repeated runs.
* **Zero committed loss** — killing every primary once mid-protocol
  loses no committed transaction: the primary ships its log tail before
  any reply externalizes an outcome.
* **Fencing** — a deposed primary's stale-epoch message is rejected
  with a ``fenced`` reply, never applied, and the run certifies
  single-primary-per-epoch.
* **Termination across failover** — a coordinator crash after the
  decision log write plus a participant crash before applying the
  decision, with a backup promotion in between, still resolves the
  in-doubt transaction to the logged decision.
* **Passive backups** — backups only append shipped records; the
  replica state they replay on demand equals a fresh verified replay of
  the same log, and a tampered record fails the read or promotion that
  replays it.
"""

import dataclasses
import hashlib

import pytest

from repro.adts.account import AccountSpec
from repro.adts.qstack import QStackSpec
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.workload import WorkloadConfig, generate
from repro.chaos import SCENARIOS, _KillPrimariesOnce, run_chaos
from repro.core.methodology import derive
from repro.dist import replication, run_distributed
from repro.dist.audit import audit_global
from repro.dist.cluster import Cluster, ClusterFrontend, shard_workload
from repro.errors import RecoveryError
from repro.experiments import golden
from repro.robust.decision_log import replay_into
from repro.spec.operation import Invocation


def make_adt(name):
    if name == "Account":
        return AccountSpec()
    return QStackSpec(operations=golden.QSTACK_WORKED_OPERATIONS)


@pytest.fixture(scope="module", params=["Account", "QStack"])
def fixture(request):
    adt = make_adt(request.param)
    return adt, derive(adt).final_table


def workload_for(adt, seed, transactions=8):
    return generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=transactions,
            operations_per_transaction=3,
            seed=seed,
        ),
    )


def digest(transcript) -> str:
    return hashlib.sha256(repr(transcript).encode()).hexdigest()


def serve_programs(frontend, workload, assignments, indices=None):
    """Serve the workload's programs (all, or ``indices``) in order."""
    if indices is None:
        indices = range(len(workload.programs))
    for index in indices:
        program = workload.programs[index]
        gtxn = frontend.begin()
        aborted = False
        for step_index, step in enumerate(program.steps):
            decision = frontend.request(
                gtxn, assignments[index][step_index], step.invocation
            )
            if decision.aborted:
                aborted = True
                break
        if aborted:
            continue
        if program.voluntary_abort:
            frontend.abort(gtxn, "voluntary")
        else:
            frontend.try_commit(gtxn)


class _LabelCrash:
    """Crash schedule keyed on exact ``(actor, label)`` points.

    Each listed point fires exactly once, the first time its actor
    reaches its label; everything else runs through.
    """

    def __init__(self, points) -> None:
        self.remaining = set(points)
        self.fired: list[tuple[str, str]] = []

    def fire(self, actor: str, label: str) -> bool:
        if (actor, label) in self.remaining:
            self.remaining.discard((actor, label))
            self.fired.append((actor, label))
            return True
        return False


class TestReplicasOneParity:
    @pytest.mark.parametrize("policy", ["optimistic", "blocking"])
    def test_transcript_identical_to_bare_cluster(self, fixture, policy):
        adt, table = fixture
        workload = workload_for(adt, 7)
        bare = run_distributed(
            adt, table, workload, shards=2, policy=policy, seed=7
        )
        replicated = run_distributed(
            adt, table, workload, shards=2, policy=policy, seed=7, replicas=1
        )
        assert replicated == bare
        assert digest(replicated) == digest(bare)

    def test_frontend_transcript_identical(self, fixture):
        adt, table = fixture
        workload = workload_for(adt, 11)

        def serve(replicas):
            cluster = Cluster(
                adt, table, shards=2, policy="blocking", replicas=replicas
            )
            frontend = ClusterFrontend(cluster)
            assignments = shard_workload(workload, cluster.shard_names, 11)
            serve_programs(frontend, workload, assignments)
            frontend.finalize()
            return dict(cluster.gstatus), dict(cluster.gstamps)

        assert serve(1) == serve(2) == serve(1)


class TestDeterminism:
    def test_fault_free_replicated_run_is_bit_identical(self, fixture):
        adt, table = fixture
        workload = workload_for(adt, 1991)

        def run():
            cluster = Cluster(
                adt, table, shards=2, policy="blocking", replicas=2
            )
            transcript = cluster.run(workload, seed=1991)
            return cluster, transcript

        first_cluster, first = run()
        second_cluster, second = run()
        assert first == second
        assert digest(first) == digest(second)
        assert (
            first_cluster.replication.lag_report()
            == second_cluster.replication.lag_report()
        )

    def test_empty_fault_plan_is_bit_identical_across_runs(self, fixture):
        from repro.robust import FaultPlan, FaultSpec

        adt, table = fixture
        workload = workload_for(adt, 1991)

        def run():
            cluster = Cluster(
                adt,
                table,
                shards=2,
                policy="blocking",
                replicas=2,
                fault_plan=FaultPlan(1991, FaultSpec()),
            )
            return cluster.run(workload, seed=1991)

        assert digest(run()) == digest(run())

    def test_backups_fully_caught_up_after_fault_free_run(self, fixture):
        adt, table = fixture
        cluster = Cluster(adt, table, shards=2, policy="blocking", replicas=3)
        cluster.run(workload_for(adt, 5), seed=5)
        for shard, row in cluster.replication.lag_report().items():
            for backup in row["backups"].values():
                assert backup["lag"] == 0
                assert backup["applied"] == row["log_records"]


class TestFailover:
    def run_with_kills(self, adt, table, seed):
        cluster = Cluster(
            adt,
            table,
            shards=2,
            policy="blocking",
            replicas=2,
            crash_schedule=_KillPrimariesOnce(
                [f"node{i}" for i in range(2)]
            ),
        )
        transcript = cluster.run(workload_for(adt, seed, 10), seed=seed)
        return cluster, transcript

    def test_kill_every_primary_loses_no_commit(self, fixture):
        adt, table = fixture
        cluster, _ = self.run_with_kills(adt, table, 1991)
        assert cluster.crash_schedule.remaining == set()
        assert cluster.stats.view_changes == 2
        audit = audit_global(cluster)
        assert audit.passed, audit.violations
        lost = [
            gtxn
            for gtxn in cluster.coordinator.committed
            if cluster.gstatus.get(gtxn) != "COMMITTED"
        ]
        assert lost == []
        assert cluster.replication.fencing_violations() == []

    def test_failover_run_is_deterministic(self, fixture):
        adt, table = fixture
        _, first = self.run_with_kills(adt, table, 1991)
        _, second = self.run_with_kills(adt, table, 1991)
        assert digest(first) == digest(second)


class TestFencing:
    def test_stale_epoch_message_is_fenced_not_applied(self, fixture):
        adt, table = fixture
        cluster, _ = TestFailover().run_with_kills(adt, table, 1991)
        group = cluster.replication.groups["node0"]
        assert group.epoch >= 1
        statuses_before = dict(cluster.gstatus)
        fenced_before = cluster.stats.fenced_messages
        bus = cluster.bus
        stamp, bus.epoch_stamp = bus.epoch_stamp, None
        try:
            # A deposed epoch-0 primary's decision leg arrives late.
            bus.send(
                cluster.coordinator.name,
                "node0",
                "decide",
                payload={"decision": "abort", "_epoch": 0},
            )
            bus._pump("~fence-test", "", bus.now)
        finally:
            bus.epoch_stamp = stamp
        assert cluster.stats.fenced_messages == fenced_before + 1
        assert dict(cluster.gstatus) == statuses_before
        assert cluster.replication.fencing_violations() == []

    def test_current_epoch_messages_are_served(self, fixture):
        adt, table = fixture
        cluster = Cluster(adt, table, shards=2, policy="blocking", replicas=2)
        cluster.run(workload_for(adt, 3), seed=3)
        assert cluster.stats.fenced_messages == 0
        for group in cluster.replication.groups.values():
            assert {epoch for epoch, _ in group.servings} <= {group.epoch}


class TestTerminationAcrossFailover:
    def test_in_doubt_txn_resolves_to_logged_decision(self, fixture):
        """Coordinator dies right after logging the decision; the
        participant dies right before applying it; a backup is promoted
        in between.  The termination protocol must land the logged
        decision on the promoted primary — never a divergent one."""
        adt, table = fixture
        schedule = _LabelCrash(
            {
                ("coord", "decision:post-log"),
                ("node0", "decided:pre-log"),
            }
        )
        cluster = Cluster(
            adt,
            table,
            shards=2,
            policy="blocking",
            replicas=2,
            crash_schedule=schedule,
        )
        cluster.run(workload_for(adt, 1991, 10), seed=1991)
        assert ("coord", "decision:post-log") in schedule.fired
        assert cluster.stats.view_changes >= 1
        audit = audit_global(cluster)
        assert audit.passed, audit.violations
        assert audit.in_doubt == ()
        for gtxn in cluster.coordinator.committed:
            assert cluster.gstatus.get(gtxn) == "COMMITTED"


class TestObserverReads:
    def observer_invocation(self, adt):
        name = "Balance" if adt.name == "Account" else "Top"
        return Invocation(operation=name, args=())

    def test_replica_read_matches_primary_preview(self, fixture):
        adt, table = fixture
        cluster = Cluster(adt, table, shards=2, policy="blocking", replicas=2)
        cluster.run(workload_for(adt, 7), seed=7)
        invocation = self.observer_invocation(adt)
        for shard in cluster.shard_names:
            served = cluster.observer_read(shard, invocation)
            assert served == cluster._shard_object(shard).preview(invocation)
        assert cluster.stats.replica_reads == 2

    def test_falls_back_to_primary_without_live_backup(self, fixture):
        adt, table = fixture
        cluster = Cluster(adt, table, shards=2, policy="blocking", replicas=2)
        cluster.run(workload_for(adt, 7), seed=7)
        for group in cluster.replication.groups.values():
            for backup in group.backups:
                cluster.bus.crash(backup.name)
        invocation = self.observer_invocation(adt)
        served = cluster.observer_read("shard0", invocation)
        assert served == cluster._shard_object("shard0").preview(invocation)


class TestCampaign:
    def test_campaign_passes_and_is_byte_stable(self):
        adt = AccountSpec()
        adts = {"Account": (adt, derive(adt).final_table)}
        rows = tuple(s for s in SCENARIOS if s.name == "replication")
        first = run_chaos(adts, scenarios=rows)
        second = run_chaos(adts, scenarios=rows)
        assert first == second
        row = first["rows"][0]
        assert first["passed"], [
            gate
            for gates in (row["safety"], row["liveness"])
            for gate, ok in gates.items()
            if not ok
        ]
        assert row["liveness"]["primary_kill.all_primaries_killed"]
        assert row["safety"]["primary_kill.no_committed_loss"]
        assert row["safety"]["primary_kill.single_primary_per_epoch"]


def backups_of(cluster):
    return [
        backup
        for name in sorted(cluster.replication.groups)
        for backup in cluster.replication.groups[name].backups
    ]


def replica_fingerprint(sched):
    return (
        {name: sched.object(name).state() for name in sched.object_names()},
        sched.dependency_graph().edges(),
        sched.stats.seed_counters(),
    )


class _CatchUpMidRun:
    """Crash-schedule shim: catches every backup up at every 7th
    protocol point and leaves the crash decision to ``inner``."""

    def __init__(self, inner=None) -> None:
        self.inner = inner
        self.cluster = None
        self.points = 0

    def fire(self, actor: str, label: str) -> bool:
        self.points += 1
        if self.points % 7 == 0:
            for backup in backups_of(self.cluster):
                backup.caught_up()
        return self.inner is not None and self.inner.fire(actor, label)


class TestPassiveBackups:
    def run(self, adt, table, kill=False, catch_up=False):
        inner = (
            _KillPrimariesOnce([f"node{i}" for i in range(2)])
            if kill
            else None
        )
        schedule = _CatchUpMidRun(inner) if catch_up else inner
        cluster = Cluster(
            adt,
            table,
            shards=2,
            policy="blocking",
            replicas=3,
            crash_schedule=schedule,
        )
        if catch_up:
            schedule.cluster = cluster
        transcript = cluster.run(workload_for(adt, 1991, 10), seed=1991)
        return cluster, transcript

    def assert_replicas_match_fresh_replay(self, cluster):
        for backup in backups_of(cluster):
            fresh = replay_into(
                TableDrivenScheduler(policy=cluster.policy), backup.log
            )
            assert replica_fingerprint(
                backup.caught_up()
            ) == replica_fingerprint(fresh), backup.name

    @pytest.mark.parametrize("kill", [False, True], ids=["nominal", "kill"])
    def test_caught_up_replica_equals_fresh_replay(self, fixture, kill):
        adt, table = fixture
        cluster, _ = self.run(adt, table, kill=kill)
        if kill:
            assert cluster.stats.view_changes == 2
        self.assert_replicas_match_fresh_replay(cluster)
        invocation = TestObserverReads().observer_invocation(adt)
        for shard in cluster.shard_names:
            cluster.observer_read(shard, invocation)
        self.assert_replicas_match_fresh_replay(cluster)

    @pytest.mark.parametrize("kill", [False, True], ids=["nominal", "kill"])
    def test_mid_run_catch_up_is_incremental_and_invisible(
        self, fixture, kill
    ):
        """Catching backups up while the run goes on changes nothing the
        run observes, and the replica built in steps equals one built by
        a single replay."""
        adt, table = fixture
        plain_cluster, plain = self.run(adt, table, kill=kill)
        cluster, transcript = self.run(adt, table, kill=kill, catch_up=True)
        assert cluster.crash_schedule.points >= 7
        assert digest(transcript) == digest(plain)
        assert (
            cluster.replication.lag_report()
            == plain_cluster.replication.lag_report()
        )
        self.assert_replicas_match_fresh_replay(cluster)

    def test_fault_free_run_never_replays_on_a_backup(
        self, fixture, monkeypatch
    ):
        adt, table = fixture
        built = []

        def recording_scheduler(*args, **kwargs):
            sched = TableDrivenScheduler(*args, **kwargs)
            built.append(sched)
            return sched

        callers = set()
        real_request = TableDrivenScheduler.request

        def recording_request(self, *args, **kwargs):
            callers.add(id(self))
            return real_request(self, *args, **kwargs)

        monkeypatch.setattr(
            replication, "TableDrivenScheduler", recording_scheduler
        )
        monkeypatch.setattr(TableDrivenScheduler, "request", recording_request)
        cluster, _ = self.run(adt, table)
        assert cluster.stats.repl_records_applied > 0
        assert built == []
        primaries = {id(node.sched.inner) for node in cluster.nodes}
        assert callers and callers <= primaries


class TestTamperedLogFailsLoud:
    def test_read_and_promotion_name_the_tampered_record(self, fixture):
        """A backup caught up by an observer read mid-stream; a record
        shipped after that read is tampered with.  Both readers replay
        it, verified, and name it."""
        adt, table = fixture
        workload = workload_for(adt, 7)
        cluster = Cluster(adt, table, shards=2, policy="blocking", replicas=2)
        frontend = ClusterFrontend(cluster)
        assignments = shard_workload(workload, cluster.shard_names, 7)
        half = len(workload.programs) // 2
        group = cluster.replication.groups["node0"]
        (backup,) = group.backups
        invocation = TestObserverReads().observer_invocation(adt)
        serve_programs(frontend, workload, assignments, range(half))
        cluster.observer_read(group.shard, invocation)
        replayed = backup.applied
        serve_programs(
            frontend, workload, assignments,
            range(half, len(workload.programs)),
        )
        frontend.finalize()
        records = backup.log.records
        index = next(
            i
            for i in range(replayed, backup.applied)
            if records[i].kind == "request"
            and records[i].outcome == "executed"
        )
        records[index] = dataclasses.replace(
            records[index], returned=records[index].returned + "!"
        )
        pattern = rf"replay record {index}: request "
        with pytest.raises(RecoveryError, match=pattern):
            cluster.observer_read(group.shard, invocation)
        epoch = group.epoch
        with pytest.raises(RecoveryError, match=pattern):
            cluster.replication.promote(group, lambda gtxns: None)
        assert group.epoch == epoch
        assert group.backups == [backup]
