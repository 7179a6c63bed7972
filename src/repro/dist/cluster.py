"""The deterministic closed-loop driver of a sharded cluster.

This is :func:`repro.cc.harness.drive` lifted over the bus: each shard's
objects live on one :class:`~repro.dist.node.ParticipantNode`, the
driver plays every transaction program round-robin (one action per live
transaction per round, admission in program order), and every scheduler
interaction travels through the :class:`~repro.dist.bus.SimBus` as a
coordinator RPC.  The observable outcome is a :class:`DistTranscript`,
the distributed analogue of :class:`~repro.cc.harness.Transcript` — and
for a one-shard cluster the two are *identical*: a zero-latency
fault-free bus plus the one-phase commit optimization make the single
node's scheduler see the exact same call sequence as the bare harness
(:meth:`DistTranscript.to_harness` converts; the parity is asserted by
``benchmarks/bench_dist.py`` and the dist test suite).

Turn discipline:

* Turn boundaries (once per round) revive crashed endpoints — nodes
  recover from their durable logs and resolve in-doubt transactions with
  the termination protocol — flush unacknowledged decisions, and consult
  the fault plan's crash point (round-robin victim over the coordinator
  and the nodes).
* A coordinator crash (:class:`~repro.dist.bus.SimCrash` escaping a
  protocol crash point) loses the turn: volatile 2PC state dies, the
  coordinator restarts from its decision log, and the runner retries on
  its next turn.
* Cross-node wait cycles — invisible to every local scheduler — are
  detected on the coordinator's global wait graph, fed by blocked-op and
  commit-wait outcomes; the youngest cycle member is aborted, matching
  the local victim rule.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.cc.harness import Transcript
from repro.cc.scheduler import CommitDecision, OpDecision
from repro.cc.transaction import OperationRecord
from repro.cc.workload import Workload
from repro.errors import SchedulerError
from repro.obs.events import FaultInjected, NodeCrashed, NodeRecovered
from repro.obs.latency import LatencyRecorder
from repro.obs.spans import _NO_CONTEXT, SpanEmitter, trace_id_for
from repro.obs.tracers import NULL_TRACER
from repro.spec.adt import render_state

from repro.dist.audit import stitch_edges
from repro.dist.bus import SimBus, SimCrash
from repro.dist.coordinator import Coordinator
from repro.dist.node import ParticipantNode
from repro.dist.replication import ReplicationManager
from repro.dist.stats import DistStats

__all__ = [
    "Cluster",
    "ClusterFrontend",
    "DistTranscript",
    "run_distributed",
    "shard_workload",
]


def shard_workload(
    workload: Workload, shard_names, seed: int = 0
) -> tuple[tuple[str, ...], ...]:
    """Per-program, per-step shard (object) assignments.

    One shard → every step runs there (the degenerate assignment the
    one-shard parity rests on); several shards → a seeded uniform choice
    per step, stable across runs and processes (string seeding).
    """
    shard_names = list(shard_names)
    if len(shard_names) == 1:
        only = shard_names[0]
        return tuple(
            tuple(only for _ in program.steps) for program in workload.programs
        )
    rng = random.Random(f"shard:{seed}")
    return tuple(
        tuple(
            shard_names[rng.randrange(len(shard_names))]
            for _ in program.steps
        )
        for program in workload.programs
    )


@dataclass(frozen=True)
class DistTranscript:
    """The complete observable outcome of one distributed run.

    Field-for-field the shape of :class:`~repro.cc.harness.Transcript`
    with the per-shard final states and the distributed-layer counters
    added; every field is hashable/comparable, so determinism is a
    single ``==`` between two same-``(seed, FaultPlan)`` runs.
    """

    shards: int
    #: (gtxn, step index, decision) per answered operation attempt.
    op_decisions: tuple
    #: (gtxn, kind, detail); the harness kinds plus nothing new — 2PC
    #: aborts surface as ``must-abort``, cascades as ``observed-abort``.
    resolutions: tuple
    #: Stitched global dependency edges: ((later, earlier), name), sorted.
    edges: tuple
    #: (gtxn, status name) for every admitted transaction.
    statuses: tuple
    #: (object name, repr of final state) per shard, in shard order.
    final_states: tuple
    #: Scheduler seed counters summed across all nodes, sorted by name.
    seed_stats: tuple
    #: The distributed-layer counters (:meth:`DistStats.as_tuple`).
    dist_stats: tuple

    def to_harness(self) -> Transcript:
        """The equivalent harness transcript (one-shard clusters only)."""
        if self.shards != 1:
            raise ValueError(
                f"only a 1-shard transcript converts; this one has "
                f"{self.shards} shards"
            )
        return Transcript(
            op_decisions=self.op_decisions,
            resolutions=self.resolutions,
            edges=self.edges,
            statuses=self.statuses,
            final_state=self.final_states[0][1],
            seed_stats=self.seed_stats,
        )


class _GRunner:
    """Progress of one global transaction program through the cluster."""

    __slots__ = (
        "gtxn",
        "program",
        "shards",
        "step",
        "done",
        "externally_aborted",
        "participants",
        "op_counts",
        "pending_abort",
        "admitted_at",
    )

    def __init__(self, gtxn: int, program, shards: tuple[str, ...]) -> None:
        self.gtxn = gtxn
        self.program = program
        self.shards = shards  # per-step shard assignment
        self.step = 0
        self.done = False
        self.externally_aborted = False
        self.participants: set[str] = set()
        self.op_counts: dict[str, int] = {}  # node -> executed ops there
        self.pending_abort: tuple[str, str] | None = None  # (kind, reason)
        self.admitted_at = 0.0  # bus sim-time at admission (e2e latency)


class Cluster:
    """A sharded cluster: N participant nodes, one coordinator, one bus."""

    def __init__(
        self,
        adt,
        table,
        shards: int = 1,
        policy: str = "optimistic",
        fault_plan=None,
        tracer=NULL_TRACER,
        crash_schedule=None,
        initial_state=None,
        replicas: int = 1,
    ) -> None:
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self.adt = adt
        self.table = table
        self.policy = policy
        self.plan = fault_plan
        self.tracer = tracer
        self.crash_schedule = crash_schedule
        self.stats = DistStats()
        self.bus = SimBus(plan=fault_plan, stats=self.stats, tracer=tracer)
        #: Always-on sim-time latency histograms (end-to-end txn latency
        #: and per-kind RPC round-trips); tracer-independent, never part
        #: of the transcript.
        self.latency = LatencyRecorder()
        self.bus.latency = (
            lambda kind, value: self.latency.observe("rpc", kind, value)
        )
        self._spans = SpanEmitter("driver", tracer, clock=lambda: self.bus.now)
        self._root_span: dict[int, object] = {}
        self._root_ctx: dict[int, tuple] = {}
        self.coordinator = Coordinator(tracer=tracer, stats=self.stats)
        self.coordinator.bus = self.bus
        self.coordinator.crash_hook = self._crash_point
        self.bus.register_endpoint(self.coordinator.name, self.coordinator.handle)
        # One shard → the harness's default object name, for parity.
        self.shard_names = (
            ["obj"] if shards == 1 else [f"shard{i}" for i in range(shards)]
        )
        self.nodes: list[ParticipantNode] = []
        self.owner: dict[str, str] = {}
        for index, shard in enumerate(self.shard_names):
            node = ParticipantNode(
                f"node{index}", policy=policy, tracer=tracer, stats=self.stats
            )
            node.bus = self.bus
            node.crash_hook = self._crash_point
            self.bus.register_endpoint(node.name, node.handle)
            node.register_object(shard, adt, table, initial_state)
            self.nodes.append(node)
            self.owner[shard] = node.name
        self._node_by_name = {node.name: node for node in self.nodes}
        self.bus.partition_links = [
            frozenset((self.coordinator.name, node.name)) for node in self.nodes
        ]
        self._victims = itertools.cycle(
            [self.coordinator.name] + [node.name for node in self.nodes]
        )
        #: Crashed primaries a brewing failover holds down — the
        #: ordinary revive-from-own-log path must not race a promotion.
        self._held: set[str] = set()
        #: ``replicas > 1`` turns each shard into a replica group; with
        #: one replica the manager (and every replication code path) is
        #: absent, keeping such clusters bit-identical to earlier runs.
        self.replication = (
            ReplicationManager(self, replicas) if replicas > 1 else None
        )
        # Post-run state the global audit stitches over.
        self.gstatus: dict[int, str] = {}
        self.grecords: dict[int, list[OperationRecord]] = {}
        self.gstamps: dict[int, int] = {}
        self.admitted = 0
        self.transcript: DistTranscript | None = None

    # ------------------------------------------------------------------
    # Crash machinery
    # ------------------------------------------------------------------

    def _log_records(self, actor: str) -> int:
        if actor == self.coordinator.name:
            return len(self.coordinator.log)
        return len(self._node_by_name[actor].log)

    def _crash_point(self, actor: str, label: str) -> None:
        """Hook run at every named protocol step; may kill ``actor``."""
        if self.crash_schedule is None:
            return
        if self.crash_schedule.fire(actor, label):
            if self.tracer:
                self.tracer.emit(
                    NodeCrashed(
                        time=self.bus.now,
                        node=actor,
                        log_records=self._log_records(actor),
                    )
                )
            raise SimCrash(actor)

    def _coordinator_crashed(self) -> None:
        """Restart the coordinator from its log (volatile 2PC state dies)."""
        self.stats.node_crashes += 1
        self.coordinator.recover()
        self.stats.coordinator_recoveries += 1
        if self.tracer:
            self.tracer.emit(
                NodeRecovered(
                    time=self.bus.now,
                    node=self.coordinator.name,
                    replayed=len(self.coordinator.log),
                )
            )

    def _induce_crash(self, victim: str) -> None:
        """A fault-plan crash: kill ``victim`` at a turn boundary."""
        if self.tracer:
            self.tracer.emit(
                NodeCrashed(
                    time=self.bus.now,
                    node=victim,
                    log_records=self._log_records(victim),
                )
            )
        self.stats.node_crashes += 1
        if victim == self.coordinator.name:
            # The driver embeds the coordinator, so its restart is
            # immediate; the damage is the lost volatile state.
            self.coordinator.recover()
            self.stats.coordinator_recoveries += 1
            if self.tracer:
                self.tracer.emit(
                    NodeRecovered(
                        time=self.bus.now,
                        node=victim,
                        replayed=len(self.coordinator.log),
                    )
                )
        else:
            # Nodes stay unreachable for the rest of the round and are
            # revived from their logs at the next turn boundary.
            self.bus.crash(victim)

    def _revive_down(self, mark_aborted) -> None:
        for actor in sorted(self.bus.down()):
            if actor in self._held:
                continue  # a failover is brewing; hands off
            if (
                actor != self.coordinator.name
                and actor not in self._node_by_name
            ):
                continue  # backup replicas are revived by the manager
            self.bus.revive(actor)
            if actor == self.coordinator.name:
                self.coordinator.recover()
                self.stats.coordinator_recoveries += 1
                if self.tracer:
                    self.tracer.emit(
                        NodeRecovered(
                            time=self.bus.now,
                            node=actor,
                            replayed=len(self.coordinator.log),
                        )
                    )
                continue
            node = self._node_by_name[actor]
            recovery_span = self._spans.start(
                f"node:{actor}", "recovery", detail=actor
            )
            try:
                replayed = node.recover()
                self.stats.node_recoveries += 1
                in_doubt = node.in_doubt()
                if self.tracer:
                    self.tracer.emit(
                        NodeRecovered(
                            time=self.bus.now,
                            node=actor,
                            replayed=replayed,
                            in_doubt=len(in_doubt),
                        )
                    )
                self._terminate(node, in_doubt, mark_aborted)
            finally:
                recovery_span.finish("ok")

    def _terminate(self, node, in_doubt, mark_aborted) -> None:
        """Termination protocol: ask the coordinator about in-doubt gtxns."""
        for gtxn in in_doubt:
            term_span = self._spans.child(
                self._root_ctx.get(gtxn, _NO_CONTEXT),
                "termination", gtxn, detail=node.name,
            )
            reply = self.bus.rpc(
                node.name, self.coordinator.name, "query", gtxn,
                span=term_span.context,
            )
            if reply is None:
                term_span.finish("timeout")
                continue  # still in doubt; retried at the next boundary
            try:
                result = node.apply_decision(
                    gtxn, reply.payload["decision"], span=term_span.context
                )
            except SimCrash as crash:
                term_span.finish("crashed")
                self.stats.node_crashes += 1
                self.bus.crash(crash.actor)
                return
            term_span.finish(reply.payload["decision"])
            mark_aborted(result.get("others_aborted", ()))

    # ------------------------------------------------------------------
    # The drive loop
    # ------------------------------------------------------------------

    def run(
        self,
        workload: Workload,
        seed: int = 0,
        concurrency: int | None = None,
        max_turns: int | None = None,
    ) -> DistTranscript:
        """Run ``workload`` to completion; the distributed ``drive``."""
        programs = list(workload.programs)
        assignments = shard_workload(workload, self.shard_names, seed)
        concurrency = (
            len(programs) if concurrency is None else max(1, concurrency)
        )
        if max_turns is None:
            max_turns = 1000 * max(1, workload.total_operations())
        coordinator = self.coordinator
        plan = self.plan

        ops: list = []
        resolutions: list = []
        live: list[_GRunner] = []
        runner_of: dict[int, _GRunner] = {}
        admitted = 0
        stamps = itertools.count()
        sequence = itertools.count()

        def admit() -> None:
            nonlocal admitted
            while admitted < len(programs) and len(live) < concurrency:
                runner = _GRunner(
                    admitted, programs[admitted], assignments[admitted]
                )
                runner.admitted_at = self.bus.now
                root = self._spans.start(
                    trace_id_for(admitted), "txn", admitted
                )
                self._root_span[admitted] = root
                self._root_ctx[admitted] = root.context
                live.append(runner)
                runner_of[admitted] = runner
                admitted += 1

        def mark_aborted(gtxns) -> None:
            for gtxn in gtxns:
                victim = runner_of.get(gtxn)
                if victim is not None and not victim.done:
                    victim.externally_aborted = True

        def emit_fault(kind: str, gtxn: int = -1, detail: str = "") -> None:
            if self.tracer:
                self.tracer.emit(
                    FaultInjected(
                        time=self.bus.now, kind=kind, txn=gtxn, detail=detail
                    )
                )

        def finish(runner: _GRunner, status: str) -> None:
            runner.done = True
            self.gstatus[runner.gtxn] = status
            coordinator.clear_waiting(runner.gtxn)
            live.remove(runner)
            self.latency.observe(
                "e2e",
                "committed" if status == "COMMITTED" else "aborted",
                self.bus.now - runner.admitted_at,
            )
            root = self._root_span.pop(runner.gtxn, None)
            if root is not None:
                root.finish(status)

        def attempt_abort(runner: _GRunner, reason: str):
            """One abort attempt; ``None`` means a node was unreachable."""
            if not runner.participants:
                return ()
            others = coordinator.do_abort(
                runner.gtxn, sorted(runner.participants), reason=reason,
                span=self._root_ctx.get(runner.gtxn, _NO_CONTEXT),
            )
            if others is None:
                return None
            mark_aborted(others)
            return others

        def break_deadlock() -> None:
            victim_gtxn = coordinator.find_deadlock_victim()
            if victim_gtxn is None:
                return
            victim = runner_of.get(victim_gtxn)
            if victim is None or victim.done:
                coordinator.clear_waiting(victim_gtxn)
                return
            others = attempt_abort(victim, "global-deadlock")
            if others is None:
                return  # unreachable; the cycle is re-found later
            self.stats.global_deadlocks += 1
            coordinator.clear_waiting(victim_gtxn)
            victim.externally_aborted = True

        def turn_boundary() -> None:
            if self.replication is not None:
                self.replication.boundary(mark_aborted)
            self._revive_down(mark_aborted)
            coordinator.flush_unacked()

        admit()
        turns = 0
        while live:
            turn_boundary()
            for runner in list(live):
                turns += 1
                if turns > max_turns:
                    raise SchedulerError(
                        f"cluster exceeded {max_turns} turns; "
                        f"workload livelocked"
                    )
                gtxn = runner.gtxn
                if plan and plan.crash():
                    # A fault-plan crash: the victim rotates round-robin
                    # over the coordinator and the nodes; crashed nodes
                    # stay unreachable until the next turn boundary.
                    emit_fault("crash")
                    self._induce_crash(next(self._victims))
                try:
                    if runner.externally_aborted:
                        # Aborted from outside its own turn: a cascade, a
                        # deadlock victim, or a 2PC abort seen elsewhere.
                        # The abort is known from ONE node's report; the
                        # transaction's other legs must be taken down too
                        # (idempotent: dead legs ack without a scheduler
                        # call, so a one-shard run stays bit-identical to
                        # the harness, which makes no call here either).
                        others = attempt_abort(runner, "cascade")
                        if others is None:
                            continue  # a leg was unreachable; retry
                        resolutions.append((gtxn, "observed-abort", ()))
                        finish(runner, "ABORTED")
                        continue
                    if runner.pending_abort is not None:
                        kind, reason = runner.pending_abort
                        others = attempt_abort(runner, reason)
                        if others is None:
                            continue  # retry on the next turn
                        if kind:  # "" = an own-abort already recorded
                            resolutions.append((gtxn, kind, tuple(others)))
                        finish(runner, "ABORTED")
                        continue
                    if runner.step < len(runner.program.steps):
                        if plan and plan.spurious_abort(gtxn):
                            emit_fault("spurious_abort", gtxn=gtxn)
                            runner.pending_abort = (
                                "fault-abort", "fault-injected",
                            )
                            others = attempt_abort(runner, "fault-injected")
                            if others is not None:
                                resolutions.append(
                                    (gtxn, "fault-abort", tuple(others))
                                )
                                finish(runner, "ABORTED")
                            continue
                        if plan and plan.op_failure(gtxn):
                            emit_fault("op_failure", gtxn=gtxn)
                            continue  # transient: retried next turn
                        self._op_turn(
                            runner, ops, sequence, finish, attempt_abort,
                            mark_aborted, break_deadlock,
                        )
                        continue
                    if runner.program.voluntary_abort:
                        runner.pending_abort = ("voluntary-abort", "voluntary")
                        others = attempt_abort(runner, "voluntary")
                        if others is None:
                            continue
                        resolutions.append(
                            (gtxn, "voluntary-abort", tuple(others))
                        )
                        finish(runner, "ABORTED")
                        continue
                    if plan and plan.commit_delay(gtxn) is not None:
                        emit_fault("commit_delay", gtxn=gtxn)
                        continue
                    self._commit_turn(
                        runner,
                        resolutions,
                        stamps,
                        finish,
                        mark_aborted,
                        break_deadlock,
                    )
                except SimCrash:
                    # The coordinator died mid-protocol: the action is
                    # lost and retried on the runner's next turn.
                    self._coordinator_crashed()
            admit()
        self._finalize(mark_aborted)

        self.admitted = admitted
        edge_map = stitch_edges(self)
        edges = tuple(
            sorted((pair, dep.name) for pair, dep in edge_map.items())
        )
        statuses = tuple(
            (gtxn, self.gstatus.get(gtxn, "ABORTED"))
            for gtxn in range(admitted)
        )
        final_states = tuple(
            (shard, render_state(self._shard_object(shard).state()))
            for shard in self.shard_names
        )
        totals: dict[str, int] = {}
        for node in self.nodes:
            for name, value in node.sched.stats.seed_counters().items():
                totals[name] = totals.get(name, 0) + value
        self.transcript = DistTranscript(
            shards=len(self.nodes),
            op_decisions=tuple(ops),
            resolutions=tuple(resolutions),
            edges=edges,
            statuses=statuses,
            final_states=final_states,
            seed_stats=tuple(sorted(totals.items())),
            dist_stats=self.stats.as_tuple(),
        )
        return self.transcript

    def _shard_object(self, shard: str):
        return self._node_by_name[self.owner[shard]].sched.object(shard)

    def observer_read(self, shard: str, invocation):
        """A snapshot observer read, served off the primary's critical path.

        With replication, a live backup previews the invocation against
        its replica state at its applied watermark (traced as
        :class:`~repro.obs.events.ReplicaReadServed`); without — or when
        every backup is down — the primary's object previews it
        directly.  Pure either way: no transaction, no log record, no
        scheduler decision.
        """
        if self.replication is not None:
            result = self.replication.observer_read(shard, invocation)
            if result is not None:
                return result
        return self._shard_object(shard).preview(invocation)

    def _op_turn(
        self, runner, ops, sequence, finish, attempt_abort,
        mark_aborted, break_deadlock,
    ) -> None:
        """Forward the runner's next operation and absorb the outcome."""
        gtxn = runner.gtxn
        step = runner.program.steps[runner.step]
        shard = runner.shards[runner.step]
        node_name = self.owner[shard]
        outcome = self.coordinator.do_operation(
            gtxn,
            node_name,
            {
                "op_seq": runner.op_counts.get(node_name, 0),
                "object_name": shard,
                "invocation": step.invocation,
            },
            span=self._root_ctx.get(gtxn, _NO_CONTEXT),
        )
        if outcome.status == "unreachable":
            return  # no decision was observed; retried next turn
        runner.participants.add(node_name)
        mark_aborted(outcome.others_aborted)
        decision = OpDecision(
            executed=outcome.status == "executed",
            returned=outcome.returned,
            blocked_on=frozenset(outcome.blocked_on),
            aborted=outcome.status == "aborted",
            dependencies=outcome.dependencies,
        )
        ops.append((gtxn, runner.step, decision))
        if decision.executed:
            runner.op_counts[node_name] = (
                runner.op_counts.get(node_name, 0) + 1
            )
            self.grecords.setdefault(gtxn, []).append(
                OperationRecord(
                    object_name=shard,
                    invocation=step.invocation,
                    returned=outcome.returned,
                    sequence=next(sequence),
                )
            )
            runner.step += 1
            self.coordinator.clear_waiting(gtxn)
        elif decision.aborted:
            # An own-turn abort is recorded in the op decision alone —
            # the harness writes no resolution line for it either.  The
            # other legs must still be taken down (idempotent: on the
            # originating node the dead leg acks without a scheduler
            # call, so one-shard parity is untouched).
            others = attempt_abort(runner, "cascade")
            if others is None:
                runner.pending_abort = ("", "cascade")
            else:
                finish(runner, "ABORTED")
        else:
            self.coordinator.note_waiting(gtxn, outcome.blocked_on)
            break_deadlock()

    def _commit_turn(
        self, runner, resolutions, stamps, finish, mark_aborted, break_deadlock
    ) -> None:
        gtxn = runner.gtxn
        if not runner.participants:
            # A stepless program: nothing anywhere to prepare — the
            # trivial commit, decided locally by the driver.
            resolutions.append((gtxn, "committed", ()))
            self.gstamps[gtxn] = next(stamps)
            finish(runner, "COMMITTED")
            return
        outcome = self.coordinator.do_commit(
            gtxn, sorted(runner.participants),
            span=self._root_ctx.get(gtxn, _NO_CONTEXT),
        )
        if outcome.status == "unreachable":
            return
        mark_aborted(outcome.others_aborted)
        if outcome.status == "committed":
            resolutions.append((gtxn, "committed", ()))
            self.gstamps[gtxn] = next(stamps)
            finish(runner, "COMMITTED")
        elif outcome.status == "aborted":
            resolutions.append((gtxn, "must-abort", ()))
            finish(runner, "ABORTED")
        else:  # waiting
            resolutions.append(
                (gtxn, "commit-waiting", tuple(sorted(outcome.waiting_on)))
            )
            self.coordinator.note_waiting(gtxn, outcome.waiting_on)
            break_deadlock()

    def _finalize(self, mark_aborted) -> None:
        """Settle the tail: unacked decisions, in-doubt and orphan legs."""
        for _ in range(2 * (len(self.nodes) + 2)):
            if self.replication is not None:
                self.replication.boundary(mark_aborted)
            self._revive_down(mark_aborted)
            self.coordinator.flush_unacked()
            dirty = False
            for node in self.nodes:
                if node.name in self.bus.down():
                    dirty = True
                    continue
                in_doubt = node.in_doubt()
                if in_doubt:
                    dirty = True
                    self._terminate(node, in_doubt, mark_aborted)
                for gtxn in node.unresolved():
                    status = self.gstatus.get(gtxn)
                    if status is None:
                        continue
                    dirty = True
                    decision = "commit" if status == "COMMITTED" else "abort"
                    reply = self.bus.rpc(
                        self.coordinator.name,
                        node.name,
                        "decide",
                        gtxn,
                        {"decision": decision},
                    )
                    if reply is not None:
                        mark_aborted(
                            reply.payload.get("others_aborted", ())
                        )
            down = {
                actor
                for actor in self.bus.down()
                if actor == self.coordinator.name
                or actor in self._node_by_name
            }
            if not dirty and not down:
                if not self.coordinator.volatile.unacked:
                    return


def run_distributed(
    adt,
    table,
    workload: Workload,
    shards: int = 1,
    policy: str = "optimistic",
    seed: int = 0,
    fault_plan=None,
    tracer=NULL_TRACER,
    crash_schedule=None,
    initial_state=None,
    concurrency: int | None = None,
    max_turns: int | None = None,
    replicas: int = 1,
) -> DistTranscript:
    """Build a cluster, run ``workload``, return the transcript."""
    cluster = Cluster(
        adt,
        table,
        shards=shards,
        policy=policy,
        fault_plan=fault_plan,
        tracer=tracer,
        crash_schedule=crash_schedule,
        initial_state=initial_state,
        replicas=replicas,
    )
    return cluster.run(
        workload, seed=seed, concurrency=concurrency, max_turns=max_turns
    )


class _FrontTxn:
    """Per-transaction 2PC bookkeeping held by the frontend."""

    __slots__ = ("participants", "op_counts", "admitted_at")

    def __init__(self, admitted_at: float) -> None:
        self.participants: set[str] = set()
        self.op_counts: dict[str, int] = {}
        self.admitted_at = admitted_at


class ClusterFrontend:
    """Per-call 2PC submission over a fault-free cluster.

    :meth:`Cluster.run` owns the scripted round-robin drive (and all
    fault handling); this is the *serving* door — the
    :class:`~repro.serve.loop.ServingLoop` begins, requests, and commits
    transactions one call at a time, in whatever order its batching
    produces, and the frontend keeps the coordinator bookkeeping the
    drive loop would have kept:

    * participants and per-node operation sequence numbers per gtxn;
    * the coordinator's global wait graph (``note_waiting`` /
      ``clear_waiting``) with the youngest-victim cycle break after
      every blocked or waiting outcome;
    * **eager settlement** of externally aborted transactions — when an
      outcome reports ``others_aborted``, every reported gtxn has its
      remaining legs taken down immediately (a worklist, since those
      aborts can cascade further), so callers learn of the abort
      through their resolution listener instead of a stale status;
    * ``cluster.gstatus`` / ``grecords`` / ``gstamps`` / ``admitted``,
      so :func:`~repro.dist.audit.audit_global` certifies a served run
      exactly as it certifies a driven one;
    * root spans and the cluster's e2e latency histogram per gtxn.

    By default fault plans and crash schedules remain the drive loop's
    domain: the frontend refuses a cluster configured with either, which
    is what makes every RPC outcome reliably reachable here.  With
    ``allow_faults=True`` the frontend instead *serves over* the faulty
    cluster: an unreachable/crashed outcome becomes a transient decision
    (not executed, not aborted — the caller retries), an incomplete
    abort is parked in ``_unsettled`` and re-driven at tick boundaries,
    and :meth:`tick_boundary` / :meth:`finalize` run the same
    revive/flush/terminate machinery ``Cluster.run`` runs at its turn
    boundaries, so at-least-once serving converges to the exact same
    audited end state.
    """

    def __init__(self, cluster: Cluster, allow_faults: bool = False) -> None:
        faulty = (
            cluster.plan is not None or cluster.crash_schedule is not None
        )
        if faulty and not allow_faults:
            raise SchedulerError(
                "ClusterFrontend serves fault-free clusters only; "
                "fault plans belong to Cluster.run "
                "(or pass allow_faults=True)"
            )
        self.cluster = cluster
        self.allow_faults = allow_faults
        self._txn: dict[int, _FrontTxn] = {}
        self._status: dict[int, str] = {}
        self._listeners: list = []
        self._stamps = itertools.count()
        self._sequence = itertools.count()
        #: gtxn -> abort reason, for aborts a fault left incomplete.
        self._unsettled: dict[int, str] = {}

    # -- lifecycle -----------------------------------------------------

    def begin(self) -> int:
        cluster = self.cluster
        gtxn = cluster.admitted
        cluster.admitted += 1
        root = cluster._spans.start(trace_id_for(gtxn), "txn", gtxn)
        cluster._root_span[gtxn] = root
        cluster._root_ctx[gtxn] = root.context
        self._txn[gtxn] = _FrontTxn(admitted_at=cluster.bus.now)
        self._status[gtxn] = "ACTIVE"
        return gtxn

    def status(self, gtxn: int) -> str:
        return self._status[gtxn]

    def add_resolution_listener(self, listener) -> None:
        """``listener(gtxn, "committed" | "aborted")`` on every settlement."""
        self._listeners.append(listener)

    def request(
        self,
        gtxn: int,
        object_name: str,
        invocation,
        deadline: float | None = None,
    ) -> OpDecision:
        cluster = self.cluster
        state = self._txn[gtxn]
        node_name = cluster.owner[object_name]
        try:
            outcome = cluster.coordinator.do_operation(
                gtxn,
                node_name,
                {
                    "op_seq": state.op_counts.get(node_name, 0),
                    "object_name": object_name,
                    "invocation": invocation,
                },
                span=cluster._root_ctx.get(gtxn, _NO_CONTEXT),
                deadline=deadline,
            )
        except SimCrash:
            cluster._coordinator_crashed()
            return self._transient_op()
        if outcome.status == "unreachable":
            if self.allow_faults:
                # No decision was observed; the caller retries.
                return self._transient_op()
            raise SchedulerError(
                f"unreachable node {node_name} on a fault-free bus"
            )
        state.participants.add(node_name)
        self._mark_aborted(outcome.others_aborted)
        decision = OpDecision(
            executed=outcome.status == "executed",
            returned=outcome.returned,
            blocked_on=frozenset(outcome.blocked_on),
            aborted=outcome.status == "aborted",
            dependencies=outcome.dependencies,
        )
        if decision.executed:
            state.op_counts[node_name] = state.op_counts.get(node_name, 0) + 1
            cluster.grecords.setdefault(gtxn, []).append(
                OperationRecord(
                    object_name=object_name,
                    invocation=invocation,
                    returned=outcome.returned,
                    sequence=next(self._sequence),
                )
            )
            cluster.coordinator.clear_waiting(gtxn)
        elif decision.aborted:
            others = self._finish_abort(gtxn, "cascade")
            self._mark_aborted(others)
        else:
            cluster.coordinator.note_waiting(gtxn, outcome.blocked_on)
            self._break_deadlock()
        return decision

    def try_commit(
        self, gtxn: int, deadline: float | None = None
    ) -> CommitDecision:
        cluster = self.cluster
        state = self._txn[gtxn]
        if not state.participants:
            # A stepless transaction: nothing anywhere to prepare.
            cluster.gstamps[gtxn] = next(self._stamps)
            self._settle(gtxn, "COMMITTED")
            return CommitDecision(committed=True)
        try:
            outcome = cluster.coordinator.do_commit(
                gtxn,
                sorted(state.participants),
                span=cluster._root_ctx.get(gtxn, _NO_CONTEXT),
                deadline=deadline,
            )
        except SimCrash:
            cluster._coordinator_crashed()
            return self._transient_commit()
        if outcome.status == "unreachable":
            if self.allow_faults:
                return self._transient_commit()
            raise SchedulerError("unreachable participant on a fault-free bus")
        self._mark_aborted(outcome.others_aborted)
        if outcome.status == "committed":
            cluster.gstamps[gtxn] = next(self._stamps)
            self._settle(gtxn, "COMMITTED")
            return CommitDecision(committed=True)
        if outcome.status == "aborted":
            self._settle(gtxn, "ABORTED")
            return CommitDecision(committed=False, must_abort=True)
        cluster.coordinator.note_waiting(gtxn, outcome.waiting_on)
        self._break_deadlock()
        return CommitDecision(
            committed=False, waiting_on=frozenset(outcome.waiting_on)
        )

    def abort(self, gtxn: int, reason: str = "voluntary") -> tuple:
        others = self._finish_abort(gtxn, reason)
        self._mark_aborted(others)
        return others

    # -- settlement ----------------------------------------------------

    def _transient_op(self) -> OpDecision:
        """A no-decision operation outcome: not executed, retry later."""
        return OpDecision(executed=False, blocked_on=frozenset())

    def _transient_commit(self) -> CommitDecision:
        """A no-decision commit outcome: still waiting, retry later."""
        return CommitDecision(committed=False, waiting_on=frozenset())

    def _finish_abort(self, gtxn: int, reason: str) -> tuple:
        """Take down every leg of ``gtxn`` and settle it; returns cascades."""
        state = self._txn[gtxn]
        if state.participants:
            others = self.cluster.coordinator.do_abort(
                gtxn,
                sorted(state.participants),
                reason=reason,
                span=self.cluster._root_ctx.get(gtxn, _NO_CONTEXT),
            )
            if others is None:
                if not self.allow_faults:
                    raise SchedulerError(
                        "incomplete abort on a fault-free bus"
                    )
                # A leg was unreachable.  The abort is decided (the
                # caller sees ABORTED now); delivery to the remaining
                # legs is re-driven at tick boundaries until complete.
                self._unsettled[gtxn] = reason
                others = ()
        else:
            others = ()
        self._settle(gtxn, "ABORTED")
        return others

    def _settle(self, gtxn: int, status: str) -> None:
        cluster = self.cluster
        self._status[gtxn] = status
        cluster.gstatus[gtxn] = status
        cluster.coordinator.clear_waiting(gtxn)
        state = self._txn[gtxn]
        cluster.latency.observe(
            "e2e",
            "committed" if status == "COMMITTED" else "aborted",
            cluster.bus.now - state.admitted_at,
        )
        root = cluster._root_span.pop(gtxn, None)
        if root is not None:
            root.finish(status)
        outcome = "committed" if status == "COMMITTED" else "aborted"
        for listener in list(self._listeners):
            listener(gtxn, outcome)

    def _mark_aborted(self, gtxns) -> None:
        """Eagerly settle externally aborted transactions (worklist)."""
        worklist = [g for g in gtxns if self._status.get(g) == "ACTIVE"]
        while worklist:
            gtxn = worklist.pop(0)
            if self._status.get(gtxn) != "ACTIVE":
                continue
            others = self._finish_abort(gtxn, "cascade")
            worklist.extend(
                g for g in others if self._status.get(g) == "ACTIVE"
            )

    def _break_deadlock(self) -> None:
        coordinator = self.cluster.coordinator
        victim = coordinator.find_deadlock_victim()
        if victim is None:
            return
        if self._status.get(victim) != "ACTIVE":
            coordinator.clear_waiting(victim)
            return
        self.cluster.stats.global_deadlocks += 1
        others = self._finish_abort(victim, "global-deadlock")
        self._mark_aborted(others)

    # -- fault-mode boundaries -----------------------------------------

    def _retry_unsettled(self) -> None:
        """Re-drive aborts whose delivery a fault left incomplete."""
        for gtxn in sorted(self._unsettled):
            reason = self._unsettled[gtxn]
            state = self._txn[gtxn]
            others = self.cluster.coordinator.do_abort(
                gtxn,
                sorted(state.participants),
                reason=reason,
                span=self.cluster._root_ctx.get(gtxn, _NO_CONTEXT),
            )
            if others is not None:
                del self._unsettled[gtxn]
                self._mark_aborted(others)

    def tick_boundary(self) -> None:
        """The served analogue of ``Cluster.run``'s turn boundary.

        Revives crashed endpoints (nodes recover from their logs and run
        the termination protocol), flushes unacknowledged decisions,
        re-drives incomplete aborts, and consults the fault plan's crash
        point.  A no-op on a fault-free cluster: nothing is down,
        nothing is unacked, the plan draws nothing.
        """
        cluster = self.cluster
        if cluster.replication is not None:
            cluster.replication.boundary(self._mark_aborted)
        cluster._revive_down(self._mark_aborted)
        try:
            cluster.coordinator.flush_unacked()
        except SimCrash:
            cluster._coordinator_crashed()
        self._retry_unsettled()
        plan = cluster.plan
        if plan and plan.crash():
            if cluster.tracer:
                cluster.tracer.emit(
                    FaultInjected(time=cluster.bus.now, kind="crash")
                )
            cluster._induce_crash(next(cluster._victims))

    def finalize(self) -> None:
        """Settle the tail after serving ends (crash-free boundaries)."""
        # Suspend the crash plan: the run is over, the tail must drain.
        plan, self.cluster.plan = self.cluster.plan, None
        schedule, self.cluster.crash_schedule = (
            self.cluster.crash_schedule, None,
        )
        try:
            for _ in range(2 * (len(self.cluster.nodes) + 2)):
                self.tick_boundary()
                down = {
                    actor
                    for actor in self.cluster.bus.down()
                    if actor == self.cluster.coordinator.name
                    or actor in self.cluster._node_by_name
                }
                if not self._unsettled and not down:
                    if not self.cluster.coordinator.volatile.unacked:
                        break
            self.cluster._finalize(self._mark_aborted)
        finally:
            self.cluster.plan = plan
            self.cluster.crash_schedule = schedule
