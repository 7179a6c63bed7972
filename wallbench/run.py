"""Wall-clock serving benchmark over ``repro.serve``.

Run from the repository root::

    python3 wallbench/run.py --workload sched_account --seed 1991 \
        --seconds 30 --trace 0

One run builds and serves the workload's fixed, seed-generated request
stream (see ``workloads.py``) over and over, a fresh scheduler or
cluster each time, until ``--seconds`` have passed, checks every pass,
and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics plus the
tracing overhead.  Spans of the last traced pass are written to
``.wallbench-out/`` under the working directory.  End-to-end timings are
normalized to a reference machine speed sampled between segments
(``probe.SpeedProbe``); the unnormalized figures are printed above the
JSON line.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

DEFAULT_SEED = 1991
HELD_OUT_SEED = 7
TERMINAL = {"committed", "aborted", "shed", "deadline_exceeded",
            "retries_exhausted"}
GAUGES = (
    "cc.dependencies.edges",
    "cc.objects.residual_log",
    "perf.cache.size",
    "robust.decision_log.records",
    "dist.replication.max_lag",
)


class CountingOutcomes(dict):
    """``ServingLoop.outcomes`` that remembers how often each key was set."""

    def __init__(self) -> None:
        super().__init__()
        self.sets: dict[int, int] = {}

    def __setitem__(self, key, value) -> None:
        self.sets[key] = self.sets.get(key, 0) + 1
        super().__setitem__(key, value)

    def clear(self) -> None:
        self.sets.clear()
        super().clear()


@dataclass
class SegmentRun:
    requests: int
    committed: int
    setup_s: float
    serve_s: float
    goodput_per_time: float
    goodput_ops: int
    ops_issued: int
    retries: int
    outcome_counts: dict
    latencies_ms: list
    op_ns: list
    late_rps_ratio: float
    digest: str
    problems: list
    #: Machine speed around the segment ÷ the reference speed
    #: (``probe.SpeedProbe``); normalized time = wall time × speed.
    speed: float = 1.0
    #: Traced passes only: gauge samples by quarter, and counters read
    #: from every scheduler and execution cache the segment built.
    gauges: dict = field(default_factory=dict)
    cache_lookups: int = 0
    cache_hits: int = 0
    operations_blocked: int = 0


@dataclass
class PassRun:
    segments: list
    clocks: list
    #: normalized? -> {"req_p50_ms", "req_p99_ms", "op_p99_us"} of the
    #: pass, computed once so per-request samples need not be kept.
    percentiles: dict = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return sum(s.requests for s in self.segments)

    @property
    def committed(self) -> int:
        return sum(s.committed for s in self.segments)

    @property
    def serve_s(self) -> float:
        return sum(s.serve_s for s in self.segments)

    @property
    def normalized_serve_s(self) -> float:
        return sum(s.serve_s * s.speed for s in self.segments)

    @property
    def speed(self) -> float:
        """Serving-time-weighted machine speed of the pass."""
        return self.normalized_serve_s / self.serve_s

    @property
    def digest(self) -> str:
        return hashlib.sha256(
            "".join(s.digest for s in self.segments).encode()
        ).hexdigest()

    @property
    def failed(self) -> int:
        return sum(s.requests for s in self.segments if s.problems)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q <= 100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def late_rps_ratio(start_ns: int, ends: list) -> float:
    """Throughput over the last quarter of settled requests ÷ the first."""
    ends = sorted(ends)
    quarter = len(ends) // 4
    if quarter < 1:
        return 1.0
    first = ends[quarter - 1] - start_ns
    last = ends[-1] - ends[-quarter - 1]
    return first / last if last > 0 else 1.0


def read_gauges(segment) -> dict:
    """State gauges through public accessors."""
    schedulers = segment.schedulers()
    values = {
        "cc.dependencies.edges": sum(
            len(s.dependency_graph().edges()) for s in schedulers
        ),
        "cc.objects.residual_log": sum(
            len(s.object(name).log())
            for s in schedulers for name in s.object_names()
        ),
        "perf.cache.size": sum(
            s.execution_cache.stats().size for s in schedulers
        ),
        "robust.decision_log.records": 0,
        "dist.replication.max_lag": 0,
    }
    cluster = segment.system
    if hasattr(cluster, "nodes"):
        values["robust.decision_log.records"] = sum(
            len(node.log.records) for node in cluster.nodes
        )
        if cluster.replication is not None:
            values["dist.replication.max_lag"] = max(
                (
                    backup["lag"]
                    for shard in cluster.replication.lag_report().values()
                    for backup in shard["backups"].values()
                ),
                default=0,
            )
    return values


def check_segment(spec, segment, result, outcomes) -> list:
    """Correctness problems of one served segment (empty = correct)."""
    from repro.cc.serializability import is_serializable
    from repro.dist.audit import audit_global

    problems = []
    ids = {request.request_id for request in segment.workload.requests}
    if set(outcomes) != ids:
        problems.append("admitted requests and outcomes differ")
    if any(count != 1 for count in outcomes.sets.values()):
        problems.append("a request was settled more than once")
    if any(outcome not in TERMINAL for outcome in outcomes.values()):
        problems.append("a request has a non-terminal outcome")
    if sum(1 for o in outcomes.values() if o == "committed") != result.committed:
        problems.append("committed count disagrees with outcomes")
    if result.forced_wakes:
        problems.append("forced wakes: the ready-callback path stalled")
    if spec.backend == "cluster":
        if not audit_global(segment.system).passed:
            problems.append("global audit failed")
        replication = segment.system.replication
        if replication is not None and replication.fencing_violations():
            problems.append("fencing violations")
    elif not is_serializable(segment.system):
        problems.append("served history is not serializable")
    return problems


def serve_segment(spec, seed: int, traced: bool):
    """Build and serve one segment; returns (SegmentRun, clock)."""
    from probe import LayerClock, TimedBackend
    from workloads import build_segment, derive_table

    clock = LayerClock() if traced else None
    gc.collect()
    t0 = perf_counter()
    adt, table = derive_table(spec)
    derive_s = perf_counter() - t0
    if clock is not None:
        # Before the backend is built: the bus captures bound handlers.
        clock.install()
    try:
        t1 = perf_counter()
        segment = build_segment(
            spec, adt, table, seed,
            lambda backend, n: TimedBackend(backend, n, clock),
        )
        setup_s = derive_s + perf_counter() - t1
        shim = segment.backend
        outcomes = CountingOutcomes()
        segment.loop.outcomes = outcomes
        shim.outcomes = outcomes
        gauges: dict = {}
        if traced:
            shim.sampler = lambda q: gauges.__setitem__(q, read_gauges(segment))
        start_ns = perf_counter_ns()
        result = segment.loop.run()
        serve_s = (perf_counter_ns() - start_ns) / 1e9
        if traced:
            shim.sample_due()
    finally:
        if clock is not None:
            clock.uninstall()

    # Everything below is outside the timed window.
    problems = check_segment(spec, segment, result, outcomes)
    latencies, ends = [], []
    for rid, txns in segment.loop.request_txns.items():
        end = shim.settled.get(txns[-1])
        if end is None:
            problems.append(f"request {rid}: last transaction never settled")
            continue
        ends.append(end)
        latencies.append((end - shim.began[txns[0]]) / 1e6)
    counts: dict = {}
    for outcome in outcomes.values():
        counts[outcome] = counts.get(outcome, 0) + 1
    digest = hashlib.sha256(
        (segment.workload.fingerprint() + repr(result.outcomes)).encode()
    ).hexdigest()
    run = SegmentRun(
        requests=len(segment.workload.requests),
        committed=result.committed,
        setup_s=setup_s,
        serve_s=serve_s,
        goodput_per_time=result.goodput_per_time(),
        goodput_ops=result.goodput_ops,
        ops_issued=result.ops_issued,
        retries=result.retries,
        outcome_counts=counts,
        latencies_ms=latencies,
        op_ns=shim.op_ns,
        late_rps_ratio=late_rps_ratio(start_ns, ends),
        digest=digest,
        problems=problems,
        gauges=gauges,
    )
    if traced:
        clock.txn_to_request = {
            txn: rid
            for rid, txns in segment.loop.request_txns.items()
            for txn in txns
        }
        caches = [c.stats() for c in clock.instances["perf.cache"].values()]
        run.cache_lookups = sum(c.lookups for c in caches)
        run.cache_hits = sum(c.hits for c in caches)
        run.operations_blocked = sum(
            s.stats.operations_blocked
            for s in clock.instances["cc.scheduler"].values()
        )
        clock.instances.clear()
    return run, clock


def serve_pass(spec, seed: int, traced: bool = False) -> PassRun:
    from probe import SpeedProbe

    probe = SpeedProbe()
    segments, clocks, spans = [], [], []
    for index in range(spec.segments):
        probe.maybe_sample()
        start = perf_counter()
        run, clock = serve_segment(spec, spec.segment_seed(seed, index), traced)
        spans.append((start, perf_counter()))
        segments.append(run)
        if clock is not None:
            if index > 0:
                clock.spans.clear()  # only the first segment is written out
            clocks.append(clock)
    probe.sample()
    for run, (start, end) in zip(segments, spans):
        run.speed = probe.factor(start, end)
    pass_run = PassRun(segments, clocks)
    for normalized in (True, False):

        def pooled(values_of):
            return [
                v * (s.speed if normalized else 1.0)
                for s in segments for v in values_of(s)
            ]

        latencies = pooled(lambda s: s.latencies_ms)
        pass_run.percentiles[normalized] = {
            "req_p50_ms": percentile(latencies, 50),
            "req_p99_ms": percentile(latencies, 99),
            "op_p99_us": percentile(pooled(lambda s: s.op_ns), 99) / 1e3,
        }
    for run in segments:
        run.latencies_ms = run.op_ns = None
    return pass_run


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timings(passes: list, normalized: bool = True) -> dict:
    """The timed end-to-end metrics: medians over the passes.

    With ``normalized`` every wall time is scaled by the machine speed
    around its segment, so it reads as if the machine ran at the
    reference speed.
    """

    def scale(s) -> float:
        return s.speed if normalized else 1.0

    def per_pass(name: str) -> float:
        return statistics.median(p.percentiles[normalized][name] for p in passes)

    def serve_s(p) -> float:
        return p.normalized_serve_s if normalized else p.serve_s

    return {
        "throughput_rps": metric(
            statistics.median(p.committed / serve_s(p) for p in passes),
            "req/s",
        ),
        "req_p50_ms": metric(per_pass("req_p50_ms"), "ms"),
        "req_p99_ms": metric(per_pass("req_p99_ms"), "ms"),
        "op_p99_us": metric(per_pass("op_p99_us"), "us"),
        # Every segment's set-up is one sample; the stream needs
        # ``segments`` of them.
        "setup_s": metric(
            len(passes[0].segments) * statistics.median(
                s.setup_s * scale(s) for p in passes for s in p.segments
            ),
            "s",
        ),
    }


def end_to_end(passes: list) -> dict:
    first = passes[0]
    timed = timings(passes)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_rps": timed["throughput_rps"],
        "req_p50_ms": timed["req_p50_ms"],
        "req_p99_ms": timed["req_p99_ms"],
        "op_p99_us": timed["op_p99_us"],
        "commit_ratio": metric(first.committed / first.requests, "ratio"),
        "sim_goodput": metric(
            statistics.fmean(s.goodput_per_time for s in first.segments),
            "ops/sim-unit",
        ),
        "setup_s": timed["setup_s"],
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }


def per_layer(untraced: list, traced: list) -> tuple[dict, dict]:
    """Per-layer metrics and the per-quarter gauge series."""

    def total(pass_run, fn) -> float:
        return sum(fn(clock) for clock in pass_run.clocks)

    def self_s(layer, methods=None, inclusive=False) -> float:
        return statistics.median(
            total(p, lambda c: c.layer_self_s(layer, methods, inclusive))
            for p in traced
        )

    last = traced[-1]
    clocks = last.clocks
    segments = last.segments

    def calls(layer, methods=None) -> int:
        return sum(c.layer_calls(layer, methods) for c in clocks)

    lookups = sum(s.cache_lookups for s in segments)
    hits = sum(s.cache_hits for s in segments)
    blocked = sum(s.operations_blocked for s in segments)
    sched_requests = calls("cc.scheduler", ("request",))
    committed = last.committed
    goodput_ops = sum(s.goodput_ops for s in segments)
    series = {
        gauge: [
            statistics.fmean(s.gauges[q][gauge] for s in segments)
            for q in (1, 2, 3, 4)
        ]
        for gauge in GAUGES
    }
    untraced_s = statistics.median(p.normalized_serve_s for p in untraced)
    traced_s = statistics.median(p.normalized_serve_s for p in traced)
    count, sec, ratio = "count", "s", "ratio"
    metrics = {
        "serve.loop_self_s": metric(self_s("serve", ("run",)), sec),
        "serve.backend_self_s": metric(
            self_s("serve") - self_s("serve", ("run",)), sec
        ),
        "serve.backend_calls": metric(
            calls("serve") - calls("serve", ("run",)), count
        ),
        "serve.retries": metric(sum(s.retries for s in segments), count),
        "serve.ops_per_commit": metric(
            sum(s.ops_issued for s in segments) / goodput_ops, ratio
        ),
        "serve.late_rps_ratio": metric(
            statistics.median(
                statistics.median(s.late_rps_ratio for s in p.segments)
                for p in untraced
            ),
            ratio,
        ),
        "cc.scheduler.calls": metric(calls("cc.scheduler"), count),
        "cc.scheduler.self_s": metric(self_s("cc.scheduler"), sec),
        "cc.scheduler.blocked_share": metric(
            blocked / sched_requests if sched_requests else 0.0, ratio
        ),
        "cc.dependencies.calls": metric(calls("cc.dependencies"), count),
        "cc.dependencies.self_s": metric(self_s("cc.dependencies"), sec),
        "cc.dependencies.edges": metric(series["cc.dependencies.edges"][-1], count),
        "cc.objects.executes": metric(calls("cc.objects", ("execute",)), count),
        "cc.objects.replays": metric(
            calls("cc.objects", ("remove_transactions",)), count
        ),
        "cc.objects.replay_self_s": metric(
            self_s("cc.objects", ("remove_transactions",)), sec
        ),
        "cc.objects.self_s": metric(self_s("cc.objects"), sec),
        "cc.objects.residual_log": metric(
            series["cc.objects.residual_log"][-1], count
        ),
        "perf.shadow.calls": metric(calls("perf.shadow"), count),
        "perf.shadow.self_s": metric(self_s("perf.shadow"), sec),
        "perf.cache.lookups": metric(lookups, count),
        "perf.cache.hit_rate": metric(hits / lookups if lookups else 0.0, ratio),
        "perf.cache.size": metric(series["perf.cache.size"][-1], count),
        "perf.cache.self_s": metric(self_s("perf.cache"), sec),
        "dist.coordinator.calls": metric(calls("dist.coordinator"), count),
        "dist.coordinator.self_s": metric(self_s("dist.coordinator"), sec),
        "dist.bus.rpcs": metric(calls("dist.bus", ("rpc",)), count),
        "dist.bus.sends": metric(calls("dist.bus", ("send",)), count),
        "dist.bus.msgs_per_commit": metric(
            calls("dist.bus", ("send",)) / committed if committed else 0.0, ratio
        ),
        "dist.bus.self_s": metric(self_s("dist.bus"), sec),
        "dist.node.handles": metric(calls("dist.node"), count),
        "dist.node.self_s": metric(self_s("dist.node"), sec),
        "dist.replication.backup_applies": metric(
            calls("dist.replication", ("handle",)), count
        ),
        "dist.replication.backup_self_s": metric(
            self_s("dist.replication", ("handle",)), sec
        ),
        # Backup apply including the scheduler work it replays (that
        # work's self time is in the cc.* and perf.* layers).
        "dist.replication.backup_incl_s": metric(
            self_s("dist.replication", ("handle",), inclusive=True), sec
        ),
        "dist.replication.ship_self_s": metric(
            self_s("dist.replication", ("ship",)), sec
        ),
        "dist.replication.max_lag": metric(
            series["dist.replication.max_lag"][-1], count
        ),
        "robust.decision_log.records": metric(
            series["robust.decision_log.records"][-1], count
        ),
        "robust.decision_log.self_s": metric(self_s("robust.decision_log"), sec),
        "trace.overhead": metric(traced_s / untraced_s - 1, ratio),
    }
    return metrics, series


def write_spans(spec, seed: int, traced_pass: PassRun) -> Path:
    """The first segment's spans of the last traced pass (one file per
    workload, overwritten by the next traced run)."""
    out_dir = Path.cwd() / ".wallbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{spec.name}.jsonl"
    clock = traced_pass.clocks[0]
    header = {"workload": spec.name, "seed": seed,
              "segment_seed": spec.segment_seed(seed, 0)}
    clock.write_spans(path, header, clock.txn_to_request)
    return path


def run(workload: str, seed: int, seconds: float, trace: bool,
        segment_requests: int | None = None, segments: int | None = None):
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    if segment_requests is not None or segments is not None:
        spec = spec.scaled(
            segment_requests or spec.segment_requests,
            segments or spec.segments,
        )
    print(
        f"workload={spec.name} seed={seed} adt={spec.adt} policy={spec.policy} "
        f"backend={spec.backend} mode={spec.mode} "
        f"segments={spec.segments}x{spec.segment_requests} requests "
        f"(segment seeds {spec.segment_seed(seed, 0)}.."
        f"{spec.segment_seed(seed, spec.segments - 1)})",
        flush=True,
    )
    untraced, traced = [], []
    started = perf_counter()
    while True:
        round_started = perf_counter()
        untraced.append(serve_pass(spec, seed))
        if trace:
            if traced:
                traced[-1].clocks[0].spans.clear()  # only the last is written
            traced.append(serve_pass(spec, seed, traced=True))
        # Start another round only if at least half of it fits, so a run
        # lasts --seconds give or take half a round.
        now = perf_counter()
        if now - started + (now - round_started) / 2 >= seconds:
            break
    passes = untraced + traced
    digests = {p.digest for p in passes}
    first = untraced[0]
    failed = sum(p.failed for p in passes)
    if len(digests) > 1:
        # A pass that decided differently from the first is wrong.
        failed += sum(p.requests for p in passes if p.digest != first.digest)
    attempted = sum(p.requests for p in passes)
    problems = sorted({m for p in passes for s in p.segments for m in s.problems})
    counts: dict = {}
    for s in first.segments:
        for outcome, n in s.outcome_counts.items():
            counts[outcome] = counts.get(outcome, 0) + n
    print(
        f"passes: untraced={len(untraced)} traced={len(traced)} "
        f"digest={first.digest[:16]} deterministic={len(digests) == 1}"
    )
    print(
        f"requests per pass: attempted={first.requests} "
        f"succeeded={first.committed} failed={first.requests - first.committed} "
        f"outcomes={json.dumps(counts, sort_keys=True)}"
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if trace:
        metrics, series = per_layer(untraced, traced)
        for gauge, values in series.items():
            print(f"gauge {gauge} by settled quarter: "
                  + " ".join(f"{v:.1f}" for v in values))
        print(f"spans: {write_spans(spec, seed, traced[-1])}")
    else:
        metrics = end_to_end(untraced)
        raw = timings(untraced, normalized=False)
        print("machine speed per pass: "
              + " ".join(f"{p.speed:.3f}" for p in untraced))
        print("unnormalized: " + " ".join(
            f"{name}={entry['value']:.6g}" for name, entry in raw.items()
        ))
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": not problems and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; claims must also "
             f"hold on the held-out seed {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--segment-requests", type=int, default=None,
                        help="override the stream size (smoke tests)")
    parser.add_argument("--segments", type=int, default=None,
                        help="override the segment count (smoke tests)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.segment_requests, args.segments)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
