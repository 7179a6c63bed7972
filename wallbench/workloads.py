"""The benchmark's workloads, built through the public ``repro.serve`` API.

A workload's *stream* for one seed is ``segments`` independent request
streams of ``segment_requests`` requests each.  Every segment is what a
user runs: derive the table, build a fresh scheduler or cluster,
register the objects, ``generate`` a :class:`~repro.serve.ServeWorkload`
and ``ServingLoop.run`` it.  Segment ``i`` of seed ``s`` is generated
from seed ``s * 1000 + i``, so the same seed always gives the same
stream, and no warm state carries from one segment to the next.

Why segments: the cost of one stream depends strongly on its seed (on
``sched_qstack`` one 160-request stream takes 0.1 s on one seed and
0.6 s on another, because the number of dependency edges differs and
every edge insertion scans all earlier ones).  A run is compared with
runs on other seeds, so it averages over many streams; each stream
keeps the history length that drives per-request cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adts.registry import make_adt
from repro.cc.scheduler import TableDrivenScheduler
from repro.core.methodology import derive
from repro.dist.cluster import Cluster, ClusterFrontend
from repro.serve import (
    ClusterBackend,
    RetryPolicy,
    SchedulerBackend,
    ServeConfig,
    ServingLoop,
    generate,
)

#: Every workload: Zipf s = 0.8 hot keys, 8 sessions, 2 operations per
#: request, at most 16 requests in flight.
SESSIONS = 8
OPERATIONS_PER_REQUEST = 2
ZIPF_S = 0.8
MAX_INFLIGHT = 16
MEAN_INTERARRIVAL = 0.5
#: Objects of the scheduler workloads; a cluster has one per shard.
SCHEDULER_OBJECTS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    adt: str
    policy: str
    backend: str  # "scheduler" or "cluster"
    mode: str  # "open" or "closed"
    segment_requests: int
    segments: int
    retry_aborts: bool = False
    shards: int = 4
    replicas: int = 1

    def segment_seed(self, seed: int, index: int) -> int:
        return seed * 1000 + index

    def scaled(self, segment_requests: int, segments: int) -> "Workload":
        """The same workload with another stream size (smoke tests)."""
        return Workload(**{
            **self.__dict__,
            "segment_requests": segment_requests,
            "segments": segments,
        })


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Deadlock-victim aborts replay the never-compacted object logs.
        Workload(
            name="sched_account", adt="Account", policy="blocking",
            backend="scheduler", mode="open",
            segment_requests=640, segments=4,
        ),
        # Granted-then-certified operations build commit-dependency
        # chains; the dependency graph never drops an edge.
        Workload(
            name="sched_qstack", adt="QStack", policy="optimistic",
            backend="scheduler", mode="open", retry_aborts=True,
            segment_requests=80, segments=128,
        ),
        # The only workload that runs repro.dist and the decision log.
        Workload(
            name="cluster_r3", adt="Account", policy="blocking",
            backend="cluster", mode="closed", shards=4, replicas=3,
            segment_requests=320, segments=8,
        ),
    )
}


@dataclass
class Segment:
    """One built, not yet served, segment."""

    workload: object  # ServeWorkload
    backend: object
    loop: ServingLoop
    #: The bare scheduler (scheduler workloads) or the cluster.
    system: object

    def schedulers(self):
        """The primary schedulers, for the state gauges."""
        if isinstance(self.system, Cluster):
            return [node.sched for node in self.system.nodes]
        return [self.system]


def derive_table(spec: Workload):
    """The first set-up step: the ADT and its derived compatibility table."""
    adt = make_adt(spec.adt)
    return adt, derive(adt).final_table


def build_segment(spec: Workload, adt, table, seed: int, wrap_backend) -> Segment:
    """Build, register, generate: the rest of the set-up ``setup_s`` times.

    ``wrap_backend(backend, total_requests)`` returns the backend the
    loop talks to (the benchmark's timing shim).
    """
    config = ServeConfig(
        sessions=SESSIONS,
        requests_per_session=spec.segment_requests // SESSIONS,
        operations_per_request=OPERATIONS_PER_REQUEST,
        mode=spec.mode,
        mean_interarrival=MEAN_INTERARRIVAL,
        objects=spec.shards if spec.backend == "cluster" else SCHEDULER_OBJECTS,
        zipf_s=ZIPF_S,
        seed=seed,
    )
    if spec.backend == "cluster":
        system = Cluster(
            adt, table, shards=spec.shards, policy=spec.policy,
            replicas=spec.replicas,
        )
        backend = ClusterBackend(ClusterFrontend(system))
        workload = generate(adt, config, object_names=tuple(system.shard_names))
    else:
        system = TableDrivenScheduler(policy=spec.policy)
        backend = SchedulerBackend(system)
        workload = generate(adt, config)
        for name in workload.object_names:
            backend.register_object(name, adt, table)
    shim = wrap_backend(backend, len(workload.requests))
    loop = ServingLoop(
        shim,
        workload,
        max_inflight=MAX_INFLIGHT,
        retry_aborts=spec.retry_aborts,
        retry_policy=RetryPolicy(seed=seed),
    )
    return Segment(workload, shim, loop, system)
