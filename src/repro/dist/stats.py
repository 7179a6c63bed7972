"""Counters of the distributed layer, exported as ``dist_*`` metrics."""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["DistStats"]


@dataclass
class DistStats:
    """Counters shared by the bus, the nodes and the coordinator.

    One instance is threaded through a whole cluster (the
    :class:`~repro.cc.scheduler.SchedulerStats` pattern) and exported
    through the metrics registry by :meth:`publish` as ``dist_*``
    counters — what ``simulate --shards N --metrics-format ...`` shows.
    """

    # -- bus ----------------------------------------------------------
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_delayed: int = 0
    messages_reordered: int = 0
    partitions_opened: int = 0
    partition_drops: int = 0
    stale_replies: int = 0
    rpc_retries: int = 0
    rpc_timeouts: int = 0
    # -- commit protocol ----------------------------------------------
    one_phase_commits: int = 0
    prepares_sent: int = 0
    votes_yes: int = 0
    votes_wait: int = 0
    votes_no: int = 0
    decisions_commit: int = 0
    decisions_abort: int = 0
    indoubt_queries: int = 0
    global_deadlocks: int = 0
    # -- crash/recovery -----------------------------------------------
    node_crashes: int = 0
    node_recoveries: int = 0
    coordinator_recoveries: int = 0
    orphans_aborted: int = 0
    # -- deadlines (serving) ------------------------------------------
    #: RPCs abandoned because the caller's deadline budget ran out.
    rpc_expired: int = 0
    #: Deadline-carrying messages dropped past their deadline.
    messages_expired: int = 0
    # -- serving-layer sheds over this cluster -------------------------
    serve_shed_overload: int = 0
    serve_shed_breaker: int = 0
    serve_shed_deadline: int = 0
    serve_shed_retries: int = 0
    # -- replication ---------------------------------------------------
    repl_records_shipped: int = 0
    #: Shipped records appended to backup logs (and acked); backups
    #: replay them only when read or promoted.
    repl_records_applied: int = 0
    repl_acks: int = 0
    repl_retransmits: int = 0
    heartbeats_sent: int = 0
    heartbeats_missed: int = 0
    view_changes: int = 0
    fenced_messages: int = 0
    replica_reads: int = 0
    replica_crashes: int = 0

    def publish(self, registry) -> None:
        """Export every counter into a metrics registry as ``dist_<name>``."""
        for spec in fields(self):
            registry.counter(
                f"dist_{spec.name}",
                f"Distributed layer: {spec.name.replace('_', ' ')}.",
            ).inc(getattr(self, spec.name))

    def to_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def as_tuple(self) -> tuple[tuple[str, int], ...]:
        """Sorted ``(name, value)`` pairs (transcript-embeddable form)."""
        return tuple(sorted(self.to_dict().items()))
