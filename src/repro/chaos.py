"""One chaos runner: a declarative scenario table with safety/liveness verdicts.

The paper's claim — a compatibility table derived from the spec admits
more concurrency without giving up serializability or the AD/CD commit
contract — is certified under faults by the rows of :data:`SCENARIOS`:

``storm``
    The bare scheduler under :meth:`FaultSpec.storm` with the invariant
    monitor attached; the survivor's committed history must serialize.
``sweep``
    The scheduler crash-point sweep: every recovered continuation is
    transcript-identical to the uncrashed run.
``dist``
    A sharded cluster under each fault mix of :data:`DIST_MIXES`,
    audited by :func:`~repro.dist.audit.audit_global`.
``dist_sweep``
    The protocol crash-point sweep: every point audits clean and loses
    no admitted transaction.
``serve``
    The hardened :class:`~repro.serve.loop.ServingLoop` under each load
    mix of :data:`SERVE_MIXES`: clean audits, no shed request ever
    committed, every request settled exactly once, and
    overload-plus-faults goodput at least half nominal.
``replication``
    Replica groups through :data:`REPLICATION_SCENARIOS`: primary kills
    mid-2PC, a false-suspicion partition that heals, a deposed-epoch
    message that must be fenced, and a backup-crash storm.

Every row's check returns ``{"safety": {gate: bool}, "liveness": {gate:
bool}, "evidence": {...}}`` — Lea's split: safety gates say nothing bad
happened (serializability, AD/CD, no loss, fencing, no resurrection,
determinism), liveness gates say something good eventually did (nothing
left in doubt, failover, settling, catching up, goodput).
:func:`verdict` is the only place pass/fail is decided: a row passes
when all of its gates hold, and the report passes when every row does.

Everything is seeded and clock-free, so the same ADTs and seeds give a
byte-identical report (:func:`render_report` sorts keys); each row keeps
transcript or outcome digests, so even sub-field drift is loud.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Callable

from repro.cc.harness import drive
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.serializability import is_serializable
from repro.cc.workload import WorkloadConfig, generate
from repro.dist.audit import audit_global
from repro.dist.cluster import Cluster, ClusterFrontend, shard_workload
from repro.dist.crash import dist_crash_sweep
from repro.robust.crash import crash_sweep
from repro.robust.decision_log import DecisionLog
from repro.robust.faults import FaultPlan, FaultSpec, RobustStats
from repro.robust.monitor import MonitoredScheduler
from repro.serve.backend import ClusterBackend, SchedulerBackend
from repro.serve.breaker import BreakerConfig
from repro.serve.deadline import DeadlinePolicy, RetryPolicy
from repro.serve.loop import ServingLoop
from repro.serve.shed import ShedConfig
from repro.serve.workload import ServeConfig
from repro.serve.workload import generate as serve_workload

__all__ = [
    "DIST_MIXES",
    "REPLICATION_SCENARIOS",
    "SCENARIOS",
    "SERVE_MIXES",
    "Scenario",
    "plan",
    "render_report",
    "run_chaos",
    "verdict",
]

#: The row fields that identify a cell besides scenario, ADT and seed.
AXES = ("backend", "shards", "replicas", "policy")

#: Fault mixes of the ``dist`` row; ``None`` is the fault-free control.
DIST_MIXES: dict[str, FaultSpec | None] = {
    "baseline": None,
    "messages": FaultSpec.message_storm(),
    "dist": FaultSpec.dist_storm(),
}

#: Load mixes of the ``serve`` row: offered-load scale and a fault spec
#: per backend kind (the bare scheduler has no bus to storm).
SERVE_MIXES: dict[str, dict] = {
    "nominal": {"load": 1.0, "scheduler": None, "cluster": None},
    "overload": {"load": 2.0, "scheduler": None, "cluster": None},
    "overload_faults": {
        "load": 2.0,
        "scheduler": FaultSpec(
            spurious_abort_rate=0.05,
            op_failure_rate=0.05,
            commit_delay_rate=0.05,
        ),
        # The dist storm with shorter, rarer partitions: a 5.0-unit
        # partition stalls 2PC longer than a serving deadline budget
        # tolerates, which would grade the fault plan, not the hardening.
        "cluster": FaultSpec(
            msg_drop_rate=0.05,
            msg_duplicate_rate=0.05,
            msg_delay_rate=0.05,
            msg_reorder_rate=0.05,
            partition_rate=0.05 / 4,
            crash_rate=0.05 / 2,
            partition_duration=2.0,
            max_partitions=2,
        ),
    },
}

#: The ``serve`` row's liveness floor: overload-plus-faults committed work
#: over nominal committed work.
GOODPUT_FLOOR = 0.5

#: The sub-scenarios of one ``replication`` row, in run order.
REPLICATION_SCENARIOS = (
    "nominal", "primary_kill", "partition_heal", "duel_fence", "replica_storm",
)

#: Terminal outcomes that must never appear in a committed history.
_SHED_OUTCOMES = ("shed", "deadline_exceeded", "retries_exhausted")


@dataclass(frozen=True)
class Scenario:
    """One row of the table: a check, the cells it runs over, its seeds.

    ``check(adt, table, seed, cell)`` returns the row's ``safety``,
    ``liveness`` and ``evidence``; each cell carries the :data:`AXES`
    plus any check-specific keys (the ``dist`` row's ``mix``).
    """

    name: str
    check: Callable[..., dict]
    cells: tuple[dict, ...]
    seeds: tuple[int, ...]


def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _spec_dict(spec: FaultSpec | None) -> dict | None:
    return None if spec is None else asdict(spec)


def _prefixed(prefix: str, gates: dict) -> dict:
    return {f"{prefix}.{gate}": ok for gate, ok in gates.items()}


def _workload(adt, seed: int, transactions: int = 6, operations: int = 3):
    return generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=transactions,
            operations_per_transaction=operations,
            seed=seed,
        ),
    )


def _audit_gates(audit) -> tuple[dict, dict]:
    """Split :func:`audit_global`'s verdict into (safety, liveness)."""
    return (
        {"serializable": audit.serializable, "ad_cd_ok": audit.ad_cd_ok},
        {"none_in_doubt": not audit.in_doubt},
    )


# ----------------------------------------------------------------------
# storm / sweep: the bare scheduler
# ----------------------------------------------------------------------


def _storm(adt, table, seed: int, cell: dict) -> dict:
    """One fault-storm run under the invariant monitor."""
    stats = RobustStats()
    fault_plan = FaultPlan(seed, FaultSpec.storm(0.05), stats=stats)
    monitored = MonitoredScheduler(
        TableDrivenScheduler(policy=cell["policy"]),
        log=DecisionLog(),
        check_interval=4,
        robust_stats=stats,
    )
    final = {"scheduler": monitored}

    def remember(_index, scheduler):
        # The fault plan may crash-swap the scheduler mid-run; the row
        # audits whichever instance finished the workload.
        final["scheduler"] = scheduler

    transcript = drive(
        monitored, adt, table, _workload(adt, seed),
        checkpoint=remember, fault_plan=fault_plan,
    )
    survivor = final["scheduler"]
    return {
        "safety": {"serializable": is_serializable(survivor)},
        "liveness": {},
        "evidence": {
            "degraded": bool(getattr(survivor, "degraded", False)),
            "committed": list(transcript.committed()),
            "final_state": transcript.final_state,
            "faults": fault_plan.report(),
            "robust": stats.to_dict(),
        },
    }


def _sweep(adt, table, seed: int, cell: dict) -> dict:
    """Crash before every scheduler decision point and recover."""
    sweep = crash_sweep(adt, table, _workload(adt, seed), policy=cell["policy"])
    return {
        "safety": {
            "transcript_identical": all(
                point.transcript_identical for point in sweep.results
            ),
            "serializable": all(point.serializable for point in sweep.results),
        },
        "liveness": {},
        "evidence": sweep.to_dict(),
    }


# ----------------------------------------------------------------------
# dist / dist_sweep: the sharded cluster
# ----------------------------------------------------------------------


def _dist(adt, table, seed: int, cell: dict) -> dict:
    """One cluster run under a message/crash fault mix, globally audited."""
    spec = DIST_MIXES[cell["mix"]]
    fault_plan = (
        None if spec is None else FaultPlan(seed, spec, stats=RobustStats())
    )
    cluster = Cluster(
        adt, table, shards=cell["shards"], policy=cell["policy"],
        fault_plan=fault_plan,
    )
    transcript = cluster.run(_workload(adt, seed), seed=seed)
    audit = audit_global(cluster)
    safety, liveness = _audit_gates(audit)
    return {
        "safety": safety,
        "liveness": liveness,
        "evidence": {
            "mix": cell["mix"],
            "digest": _digest(transcript),
            "committed": [
                gtxn
                for gtxn, status in transcript.statuses
                if status == "COMMITTED"
            ],
            "final_states": [list(pair) for pair in transcript.final_states],
            "in_doubt": list(audit.in_doubt),
            "violations": list(audit.violations),
            "faults": None if fault_plan is None else fault_plan.report(),
            "dist": dict(transcript.dist_stats),
        },
    }


def _dist_sweep(adt, table, seed: int, cell: dict) -> dict:
    """Crash every reached protocol point in its own cluster run."""
    sweep = dist_crash_sweep(
        adt, table, _workload(adt, seed),
        shards=cell["shards"], policy=cell["policy"], seed=seed,
    )
    audits = [point.audit for point in sweep.results]
    return {
        "safety": {
            "serializable": all(audit.serializable for audit in audits),
            "ad_cd_ok": all(audit.ad_cd_ok for audit in audits),
            "no_regressions": not any(
                point.regressions for point in sweep.results
            ),
        },
        "liveness": {
            "none_in_doubt": not any(audit.in_doubt for audit in audits),
        },
        "evidence": sweep.to_dict(),
    }


# ----------------------------------------------------------------------
# serve: the hardened serving loop under overload and faults
# ----------------------------------------------------------------------


def _hardened_loop(backend, workload, seed: int, fault_plan=None) -> ServingLoop:
    """One serving loop with deadlines, breakers, shedding and retries on."""
    return ServingLoop(
        backend,
        workload,
        max_inflight=8,
        retry_aborts=True,
        max_retries=4,
        deadline=DeadlinePolicy(budget=96.0),
        retry_policy=RetryPolicy(seed=seed),
        breakers=BreakerConfig(),
        shedding=ShedConfig(queue_limit=24),
        fault_plan=fault_plan,
    )


def _serve_mix(adt, table, seed: int, cell: dict, mix: dict) -> tuple:
    """One serving run of ``mix``; returns (safety, liveness, evidence)."""
    spec = mix[cell["backend"]]
    fault_plan = None if spec is None else FaultPlan(seed, spec)
    if cell["backend"] == "scheduler":
        scheduler = TableDrivenScheduler(policy=cell["policy"])
        backend = SchedulerBackend(scheduler)
        object_names = ("obj0", "obj1")
        for name in object_names:
            backend.register_object(name, adt, table)
        loop_plan = fault_plan

        def committed(txn: int) -> bool:
            return scheduler.transaction(txn).status.name == "COMMITTED"
    else:
        cluster = Cluster(
            adt, table, shards=cell["shards"], policy=cell["policy"],
            fault_plan=fault_plan, replicas=cell["replicas"],
        )
        backend = ClusterBackend(
            ClusterFrontend(cluster, allow_faults=fault_plan is not None)
        )
        object_names = tuple(cluster.shard_names)
        # The cluster consults the plan on its bus; the loop gets none.
        loop_plan = None

        def committed(txn: int) -> bool:
            return cluster.gstatus.get(txn) == "COMMITTED"

    workload = serve_workload(
        adt,
        ServeConfig(
            sessions=6,
            requests_per_session=5,
            operations_per_request=2,
            mode="open",
            mean_interarrival=2.0 / mix["load"],
            objects=len(object_names),
            zipf_s=0.9,
            seed=seed,
        ),
        object_names=object_names,
    )
    loop = _hardened_loop(backend, workload, seed, fault_plan=loop_plan)
    result = loop.run()
    # No resurrection: no request the loop shed, expired or retired may
    # have any of its transactions committed.
    resurrected = [
        f"request {rid} ({outcome}) committed as txn {txn}"
        for rid, outcome in sorted(loop.outcomes.items())
        if outcome in _SHED_OUTCOMES
        for txn in loop.request_txns.get(rid, ())
        if committed(txn)
    ]
    evidence = {
        "requests": result.requests,
        "committed": result.committed,
        "aborted": result.aborted,
        "shed": result.shed,
        "deadline_exceeded": result.deadline_exceeded,
        "retries_exhausted": result.retries_exhausted,
        "retries": result.retries,
        "goodput_ops": result.goodput_ops,
        "sim_duration": result.sim_duration,
        "goodput_per_time": result.goodput_per_time(),
        "forced_wakes": result.forced_wakes,
        "breaker_transitions": len(result.breaker_transitions),
        "degradation_steps": len(result.degradation_steps),
        "outcomes_digest": _digest(tuple(sorted(loop.outcomes.items()))),
        "resurrected": resurrected,
        "faults": None if fault_plan is None else {
            "seed": fault_plan.seed,
            "faults_injected": fault_plan.stats.faults_injected,
            "faults_by_kind": dict(fault_plan.stats.faults_by_kind),
        },
    }
    if cell["backend"] == "scheduler":
        safety = {"serializable": is_serializable(scheduler)}
        liveness = {}
    else:
        audit = audit_global(cluster)
        safety, liveness = _audit_gates(audit)
        evidence["in_doubt"] = list(audit.in_doubt)
        evidence["violations"] = list(audit.violations)
        evidence["dist"] = cluster.stats.to_dict()
    safety["no_resurrection"] = not resurrected
    # Every admitted request reaches exactly one terminal outcome:
    # ``result.requests`` sums the terminal counters, so a request
    # settled twice or never breaks the equality.
    liveness["terminal_outcomes"] = (
        len(loop.outcomes) == len(workload.requests) == result.requests
    )
    return safety, liveness, evidence


def _serve(adt, table, seed: int, cell: dict) -> dict:
    """Every serving mix on one backend, plus the graceful-degradation gate."""
    safety, liveness, mixes = {}, {}, {}
    for name in sorted(SERVE_MIXES):
        mix_safety, mix_liveness, mixes[name] = _serve_mix(
            adt, table, seed, cell, SERVE_MIXES[name]
        )
        safety.update(_prefixed(name, mix_safety))
        liveness.update(_prefixed(name, mix_liveness))
    # Gate on completed work, not work-per-sim-time: the fault plan's
    # stalls legitimately stretch the clock, and a per-time ratio would
    # grade the plan's stall budget rather than the work still landed.
    nominal = mixes["nominal"]["goodput_ops"]
    stormy = mixes["overload_faults"]["goodput_ops"]
    ratio = stormy / nominal if nominal else 0.0
    liveness["goodput"] = ratio >= GOODPUT_FLOOR
    return {
        "safety": safety,
        "liveness": liveness,
        "evidence": {"mixes": mixes, "goodput_ratio": ratio},
    }


# ----------------------------------------------------------------------
# replication: failover, fencing and backup crashes over replica groups
# ----------------------------------------------------------------------


class _KillPrimariesOnce:
    """A crash schedule that kills each listed primary exactly once.

    Fires at the first 2PC-adjacent protocol point (an operation apply,
    a PREPARE log, or a decision apply) each primary reaches, so every
    shard loses its primary mid-protocol — the worst moment — exactly
    once per run.  Deterministic: the fire set depends only on the run's
    own protocol point order.
    """

    POINT_KINDS = ("op", "prepare", "decide")

    def __init__(self, names) -> None:
        self.remaining = set(names)
        self.fired: list[tuple[str, str]] = []

    def fire(self, actor: str, label: str) -> bool:
        if (
            actor in self.remaining
            and label.split(":")[0] in self.POINT_KINDS
        ):
            self.remaining.discard(actor)
            self.fired.append((actor, label))
            return True
        return False


def _drive_frontend(
    cluster: Cluster,
    workload,
    seed: int,
    partition: tuple[int, str, float],
    max_attempts: int = 64,
) -> None:
    """Serve ``workload`` txn-by-txn through a :class:`ClusterFrontend`.

    ``partition=(txn index, node name, duration)`` opens a
    coordinator↔node partition just before that transaction begins,
    which the heartbeat detector sees as a dead primary (false
    suspicion) and fails over while the old primary is still alive.
    Outcomes settle through the frontend's at-least-once retry
    machinery; ``finalize()`` drains the tail.
    """
    frontend = ClusterFrontend(cluster, allow_faults=True)
    assignments = shard_workload(workload, cluster.shard_names, seed)
    for index, program in enumerate(workload.programs):
        if index == partition[0]:
            cluster.bus.open_partition(
                cluster.coordinator.name, partition[1], partition[2]
            )
        gtxn = frontend.begin()
        for step_index, step in enumerate(program.steps):
            shard = assignments[index][step_index]
            for _ in range(max_attempts):
                decision = frontend.request(gtxn, shard, step.invocation)
                if decision.executed or decision.aborted:
                    break
                frontend.tick_boundary()
            if frontend.status(gtxn) != "ACTIVE" or decision.aborted:
                break
        if frontend.status(gtxn) != "ACTIVE":
            continue
        if program.voluntary_abort:
            frontend.abort(gtxn, "voluntary")
            continue
        for _ in range(max_attempts):
            commit = frontend.try_commit(gtxn)
            if commit.committed or commit.must_abort:
                break
            frontend.tick_boundary()
        else:
            frontend.abort(gtxn, "livelock-guard")
    frontend.finalize()


def _replica_checks(cluster: Cluster) -> tuple[dict, dict, dict]:
    """Gates and evidence every replication sub-scenario shares."""
    audit = audit_global(cluster)
    # Zero committed-transaction loss: every decision the coordinator
    # durably logged as commit must have survived as COMMITTED.
    lost = sorted(
        gtxn
        for gtxn in cluster.coordinator.committed
        if cluster.gstatus.get(gtxn) != "COMMITTED"
    )
    fencing = cluster.replication.fencing_violations()
    safety, liveness = _audit_gates(audit)
    safety["no_committed_loss"] = not lost
    safety["single_primary_per_epoch"] = not fencing
    evidence = {
        "committed": sorted(
            gtxn
            for gtxn, status in cluster.gstatus.items()
            if status == "COMMITTED"
        ),
        "lost_commits": lost,
        "fencing_violations": fencing,
        "audit_violations": list(audit.violations),
        "view_changes": cluster.stats.view_changes,
        "fenced_messages": cluster.stats.fenced_messages,
        "replication": cluster.replication.lag_report(),
    }
    return safety, liveness, evidence


def _replication(adt, table, seed: int, cell: dict) -> dict:
    """The five failover sub-scenarios over ``replicas``-wide groups."""
    shards = cell["shards"]
    transactions = 10
    workload = _workload(adt, seed, transactions=transactions)

    def replicated(crash_schedule=None, fault_plan=None) -> Cluster:
        return Cluster(
            adt, table, shards=shards, policy=cell["policy"],
            fault_plan=fault_plan, crash_schedule=crash_schedule,
            replicas=cell["replicas"],
        )

    scenarios = {}

    def record(name, checks, safety=(), liveness=(), **extra) -> None:
        base_safety, base_liveness, evidence = checks
        evidence.update(extra)
        scenarios[name] = (
            {**base_safety, **dict(safety)},
            {**base_liveness, **dict(liveness)},
            evidence,
        )

    # nominal: the fault-free goodput reference, run twice.
    nominal_cluster = replicated()
    nominal = nominal_cluster.run(workload, seed=seed)
    rerun = replicated().run(workload, seed=seed)
    nominal_committed = sum(
        1 for _, status in nominal.statuses if status == "COMMITTED"
    )
    record(
        "nominal", _replica_checks(nominal_cluster),
        safety={"deterministic": nominal == rerun},
        liveness={
            "backups_caught_up": all(
                backup["lag"] == 0
                for shard in nominal_cluster.replication.lag_report().values()
                for backup in shard["backups"].values()
            ),
        },
        digest=_digest(nominal),
    )

    # primary_kill: every primary dies once, mid-protocol.
    schedule = _KillPrimariesOnce(node.name for node in nominal_cluster.nodes)
    kill_cluster = replicated(crash_schedule=schedule)
    kill = kill_cluster.run(workload, seed=seed)
    kill_committed = sum(
        1 for _, status in kill.statuses if status == "COMMITTED"
    )
    record(
        "primary_kill", _replica_checks(kill_cluster),
        liveness={
            "all_primaries_killed": not schedule.remaining,
            "failover_per_shard": kill_cluster.stats.view_changes >= shards,
            "goodput":
                kill_committed >= int(GOODPUT_FLOOR * nominal_committed),
        },
        killed=[list(pair) for pair in schedule.fired],
        committed_vs_nominal=[kill_committed, nominal_committed],
    )

    # partition_heal: a false suspicion fails over, then the link heals.
    part_cluster = replicated()
    _drive_frontend(
        part_cluster, workload, seed,
        partition=(transactions // 2, part_cluster.nodes[0].name, 200.0),
    )
    record(
        "partition_heal", _replica_checks(part_cluster),
        liveness={
            "failed_over": part_cluster.stats.view_changes >= 1,
            "all_settled": all(
                status in ("COMMITTED", "ABORTED")
                for status in part_cluster.gstatus.values()
            ),
        },
    )

    # duel_fence: a message stamped with the deposed epoch must bounce.
    bus = part_cluster.bus
    before = dict(part_cluster.gstatus)
    fenced_before = part_cluster.stats.fenced_messages
    stamp, bus.epoch_stamp = bus.epoch_stamp, None
    try:
        bus.send(
            part_cluster.coordinator.name,
            part_cluster.nodes[0].name,
            "decide",
            payload={"decision": "abort", "_epoch": 0},
        )
        bus._pump("~duel", "", bus.now)
    finally:
        bus.epoch_stamp = stamp
    record(
        "duel_fence", _replica_checks(part_cluster),
        safety={
            "stale_message_fenced":
                part_cluster.stats.fenced_messages > fenced_before,
            "statuses_unaffected": dict(part_cluster.gstatus) == before,
        },
    )

    # replica_storm: message faults plus primary and backup crashes,
    # twice, and both runs must agree byte for byte.
    runs = []
    for _ in range(2):
        storm_cluster = replicated(
            fault_plan=FaultPlan(seed, FaultSpec.replication_storm(0.05))
        )
        storm = storm_cluster.run(workload, seed=seed)
        runs.append((_digest(storm), _replica_checks(storm_cluster)))
    record(
        "replica_storm", runs[0][1],
        safety={"deterministic": runs[0] == runs[1]},
        digest=runs[0][0],
    )

    safety, liveness = {}, {}
    for name in REPLICATION_SCENARIOS:
        scenario_safety, scenario_liveness, _ = scenarios[name]
        safety.update(_prefixed(name, scenario_safety))
        liveness.update(_prefixed(name, scenario_liveness))
    return {
        "safety": safety,
        "liveness": liveness,
        "evidence": {name: scenarios[name][2] for name in REPLICATION_SCENARIOS},
    }


# ----------------------------------------------------------------------
# The table and the runner
# ----------------------------------------------------------------------


def _cell(backend, policy, shards=None, replicas=None, **extra) -> dict:
    return {
        "backend": backend, "shards": shards, "replicas": replicas,
        "policy": policy, **extra,
    }


_POLICIES = ("optimistic", "blocking")

#: The chaos table: one row per scenario, with the seeds CI certifies.
SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        "storm", _storm,
        tuple(_cell("scheduler", policy) for policy in _POLICIES),
        (1, 2, 3, 4, 5, 7, 23, 1991),
    ),
    Scenario(
        "sweep", _sweep,
        tuple(_cell("scheduler", policy) for policy in _POLICIES),
        (1, 2, 3, 4, 5, 7, 23),
    ),
    Scenario(
        "dist", _dist,
        tuple(
            _cell("cluster", "optimistic", shards=shards, replicas=1, mix=mix)
            for shards in (1, 2)
            for mix in sorted(DIST_MIXES)
        ),
        (7, 23),
    ),
    Scenario(
        "dist_sweep", _dist_sweep,
        tuple(
            _cell("cluster", "optimistic", shards=shards, replicas=1)
            for shards in (1, 2)
        ),
        (7,),
    ),
    Scenario(
        "serve", _serve,
        (
            _cell("scheduler", "optimistic"),
            _cell("cluster", "blocking", shards=2, replicas=1),
        ),
        (1991,),
    ),
    Scenario(
        "replication", _replication,
        (_cell("cluster", "blocking", shards=2, replicas=2),),
        (1991,),
    ),
)


def plan(adt_names, seeds=None, scenarios=SCENARIOS):
    """Every ``(scenario, adt name, cell, seed)`` the runner visits, in
    report order.  ``seeds`` overrides every row's own seeds."""
    for scenario in scenarios:
        for adt_name in sorted(adt_names):
            for cell in scenario.cells:
                for seed in scenario.seeds if seeds is None else seeds:
                    yield scenario, adt_name, cell, seed


def verdict(rows: list[dict]) -> bool:
    """The one pass/fail rule: stamp each row's ``passed`` as the
    conjunction of its safety and liveness gates; the report passes when
    every row does."""
    for row in rows:
        row["passed"] = all(row["safety"].values()) and all(
            row["liveness"].values()
        )
    return all(row["passed"] for row in rows)


def run_chaos(
    adts: dict[str, tuple],
    seeds: tuple[int, ...] | None = None,
    scenarios: tuple[Scenario, ...] = SCENARIOS,
) -> dict:
    """Run every row of ``scenarios`` over ``adts`` (name → ``(adt,
    table)``); returns the JSON-ready report, whose ``passed`` is the
    CLI exit gate."""
    rows = []
    for scenario, adt_name, cell, seed in plan(adts, seeds, scenarios):
        adt, table = adts[adt_name]
        outcome = scenario.check(adt, table, seed, cell)
        rows.append(
            {
                "scenario": scenario.name,
                "adt": adt_name,
                "seed": seed,
                **{axis: cell[axis] for axis in AXES},
                "safety": outcome["safety"],
                "liveness": outcome["liveness"],
                "evidence": outcome["evidence"],
            }
        )
    return {
        "matrix": {
            "adts": sorted(adts),
            "seeds": None if seeds is None else list(seeds),
            "mixes": {
                "dist": {
                    name: _spec_dict(spec) for name, spec in DIST_MIXES.items()
                },
                "serve": {
                    name: {
                        "load": mix["load"],
                        "scheduler": _spec_dict(mix["scheduler"]),
                        "cluster": _spec_dict(mix["cluster"]),
                    }
                    for name, mix in SERVE_MIXES.items()
                },
            },
            "scenarios": [
                {
                    "name": scenario.name,
                    "cells": list(scenario.cells),
                    "seeds": list(scenario.seeds),
                }
                for scenario in scenarios
            ],
        },
        "rows": rows,
        "passed": verdict(rows),
    }


def render_report(report: dict) -> str:
    """Byte-stable serialisation of a chaos report (sorted keys)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
