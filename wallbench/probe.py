"""Wall-clock probes: the timed backend shim and the per-layer span clock.

Both live outside ``src/``; nothing here edits a module of the program.

* :class:`TimedBackend` sits between :class:`~repro.serve.ServingLoop`
  and the real backend.  It times every ``request`` / ``try_commit`` /
  ``abort`` call (``op_p99_us``), notes when each transaction began and
  when the call that resolved it returned (``req_p50_ms`` /
  ``req_p99_ms``), and, when tracing, opens a ``serve`` span per backend
  call and samples the state gauges at each quarter of the settled
  requests.
* :class:`LayerClock` installs class-level wrappers on the public
  methods listed in :data:`LAYERS`.  They are installed before the
  backend is built, because ``SimBus.register_endpoint`` captures bound
  handlers, and removed afterwards, so untraced passes run the
  unwrapped classes.  Each call records a span ``(id, parent, layer,
  method, start_ns, end_ns, txn)``; a span's self time is its duration
  minus the durations of its direct children.  ``repro.graph`` is not
  wrapped (it is called millions of times): its time lands in the self
  time of its ``cc.objects`` / ``perf.*`` callers.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter, perf_counter_ns

from repro.cc.dependencies import DependencyGraph
from repro.cc.objects import SharedObject
from repro.cc.scheduler import TableDrivenScheduler
from repro.dist.bus import SimBus
from repro.dist.coordinator import Coordinator
from repro.dist.node import ParticipantNode
from repro.dist.replication import BackupReplica, ReplicaGroup, ReplicationManager
from repro.perf.cache import ExecutionCache
from repro.perf.shadow import ShadowStateIndex
from repro.robust.decision_log import DecisionLog, LoggingScheduler
from repro.serve.loop import ServingLoop

#: layer -> ((class, methods), ...).  Instances of classes whose layer is
#: in :data:`TRACKED` are remembered, so their counters can be read after
#: the pass (every scheduler's stats, every execution cache).
LAYERS = {
    "serve": ((ServingLoop, ("run",)),),
    "cc.scheduler": ((TableDrivenScheduler, ("request", "try_commit", "abort")),),
    "cc.dependencies": (
        (
            DependencyGraph,
            ("add", "predecessors", "dependents", "abort_cascade",
             "depends_transitively"),
        ),
    ),
    "cc.objects": ((SharedObject, ("execute", "preview", "remove_transactions")),),
    "perf.shadow": (
        (ShadowStateIndex, ("note_execute", "shadow_state", "shadow_return")),
    ),
    "perf.cache": ((ExecutionCache, ("get_or_execute", "get_or_execute_batch")),),
    "dist.coordinator": ((Coordinator, ("do_operation", "do_commit", "do_abort")),),
    "dist.bus": ((SimBus, ("send", "rpc")),),
    "dist.node": ((ParticipantNode, ("handle",)),),
    "dist.replication": (
        (BackupReplica, ("handle",)),
        (ReplicaGroup, ("ship",)),
        (ReplicationManager, ("boundary",)),
    ),
    "robust.decision_log": (
        (LoggingScheduler, ("request", "try_commit", "abort")),
        (DecisionLog, ("append",)),
    ),
}

TRACKED = ("cc.scheduler", "perf.cache")

SPAN_FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "request")

#: Backend calls that make a scheduling decision; their wall time is
#: ``op_p99_us``.
DECISION_CALLS = ("request", "try_commit", "abort")


class LayerClock:
    """Spans of every wrapped call, kept in memory until the pass ends."""

    def __init__(self) -> None:
        #: (span_id, parent_id, layer, method, start_ns, end_ns, txn)
        self.spans: list[tuple] = []
        #: Open spans: [span_id, txn, children_ns].
        self._stack: list[list] = []
        self._next = 0
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.self_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.total_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.instances: dict[str, dict[int, object]] = defaultdict(dict)
        self._saved: list[tuple[type, str, object]] = []
        #: txn -> request id, filled in once the segment has been served.
        self.txn_to_request: dict[int, int] = {}

    # -- span recording -------------------------------------------------

    def call(self, layer: str, method: str, fn, args, kwargs, txn=None):
        stack = self._stack
        parent = stack[-1] if stack else None
        if txn is None and parent is not None:
            txn = parent[1]
        span_id = self._next
        self._next += 1
        frame = [span_id, txn, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            key = (layer, method)
            self.calls[key] += 1
            self.self_ns[key] += duration - frame[2]
            self.total_ns[key] += duration
            if parent is not None:
                parent[2] += duration
            self.spans.append(
                (span_id, parent[0] if parent else None, layer, method,
                 start, end, txn)
            )

    # -- class-level wrappers -------------------------------------------

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for cls, methods in targets:
                for method in methods:
                    original = cls.__dict__[method]
                    self._saved.append((cls, method, original))
                    setattr(cls, method, self._wrap(layer, method, original))

    def uninstall(self) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def _wrap(self, layer: str, method: str, original):
        clock = self
        if layer in TRACKED:
            seen = self.instances[layer]

            def wrapper(obj, *args, **kwargs):
                seen[id(obj)] = obj
                return clock.call(layer, method, original, (obj,) + args, kwargs)
        else:

            def wrapper(*args, **kwargs):
                return clock.call(layer, method, original, args, kwargs)

        wrapper.__name__ = original.__name__
        wrapper.__doc__ = original.__doc__
        return wrapper

    # -- summaries ------------------------------------------------------

    def layer_calls(self, layer: str, methods=None) -> int:
        return sum(
            count for (lay, meth), count in self.calls.items()
            if lay == layer and (methods is None or meth in methods)
        )

    def layer_self_s(self, layer: str, methods=None, inclusive=False) -> float:
        """Self time in seconds, or span time with ``inclusive``."""
        source = self.total_ns if inclusive else self.self_ns
        return sum(
            ns for (lay, meth), ns in source.items()
            if lay == layer and (methods is None or meth in methods)
        ) / 1e9

    def write_spans(self, path, header: dict, txn_to_request: dict) -> None:
        """A header line, then one JSON array per span (:data:`SPAN_FIELDS`).

        Spans of one request share the ``request`` field.
        """
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({**header, "fields": SPAN_FIELDS}) + "\n")
            for span_id, parent, layer, method, start, end, txn in self.spans:
                out.write(json.dumps([
                    span_id, parent, f"{layer}.{method}", start, end,
                    txn_to_request.get(txn),
                ]) + "\n")


class TimedBackend:
    """The serving protocol, passed through with wall-clock bookkeeping.

    ``clock`` (a :class:`LayerClock`) turns on per-call ``serve`` spans.
    A ``sampler``, when set, is called with the quarter index (1..4) as
    the settled request count (``len(outcomes)``) crosses each quarter of
    ``total_requests``.
    """

    def __init__(self, backend, total_requests: int, clock=None) -> None:
        self.inner = backend
        self.clock = clock
        self.sampler = None
        #: txn -> perf_counter_ns at the start of its ``begin`` call.
        self.began: dict[int, int] = {}
        #: txn -> perf_counter_ns at the return of the call that resolved it.
        self.settled: dict[int, int] = {}
        #: Wall time of every decision call, in ns.
        self.op_ns: list[int] = []
        self.outcomes: dict | None = None
        self._resolved: list[int] = []
        self._quarters = [
            max(1, (total_requests * q + 3) // 4) for q in (1, 2, 3, 4)
        ]
        self.samples_taken = 0
        backend.add_resolution_listener(self._on_resolution)

    def _on_resolution(self, txn: int, status: str) -> None:
        self._resolved.append(txn)

    def sample_due(self) -> None:
        """Take every gauge sample whose quarter has been reached."""
        settled = len(self.outcomes) if self.outcomes is not None else 0
        while (
            self.samples_taken < 4
            and settled >= self._quarters[self.samples_taken]
        ):
            self.samples_taken += 1
            self.sampler(self.samples_taken)

    def _timed(self, method: str, args, kwargs, txn=None):
        if self.sampler is not None:
            self.sample_due()
        fn = getattr(self.inner, method)
        start = perf_counter_ns()
        if self.clock is not None:
            result = self.clock.call("serve", f"backend.{method}", fn,
                                     args, kwargs, txn)
        else:
            result = fn(*args, **kwargs)
        end = perf_counter_ns()
        if method in DECISION_CALLS:
            self.op_ns.append(end - start)
        if self._resolved:
            settled = self.settled
            for resolved in self._resolved:
                settled[resolved] = end
            self._resolved.clear()
        return result, start

    # -- the serving protocol -------------------------------------------

    def begin(self) -> int:
        txn, start = self._timed("begin", (), {})
        self.began[txn] = start
        return txn

    def status(self, txn: int) -> str:
        return self.inner.status(txn)

    def request(self, txn, object_name, invocation, deadline=None):
        return self._timed(
            "request", (txn, object_name, invocation),
            {"deadline": deadline}, txn,
        )[0]

    def try_commit(self, txn, deadline=None):
        return self._timed("try_commit", (txn,), {"deadline": deadline}, txn)[0]

    def abort(self, txn, reason="voluntary"):
        return self._timed("abort", (txn,), {"reason": reason}, txn)[0]

    def tick_boundary(self) -> None:
        self._timed("tick_boundary", (), {})

    def finalize(self) -> None:
        self._timed("finalize", (), {})

    def __getattr__(self, name):
        # set_now, emit, note_shed, has_faults, adaptive introspection,
        # add_resolution_listener: untimed pass-through.
        return getattr(self.inner, name)


#: Kernel iterations per second of :func:`speed_kernel` that count as the
#: reference machine speed: the median measured on a 2-core x86 VM with
#: CPython 3.11.  Normalized timings read as if the machine ran at it.
REFERENCE_KERNEL_RATE = 2000.0


def speed_kernel() -> int:
    """Fixed pure-Python work that uses no code of the program.

    Dict inserts and lookups and tuple allocation, like the interpreter
    work of the serving stack, so its rate follows the machine's speed.
    """
    table = {}
    total = 0
    for i in range(2000):
        table[i] = (i, i * 3)
    for i in range(2000):
        total += table[i][1] % 7
    return total


class SpeedProbe:
    """Samples the machine's speed on :func:`speed_kernel` between segments.

    A sample runs the kernel for ``SLICE_S`` seconds; :meth:`maybe_sample`
    takes one only if ``EVERY_S`` seconds have passed since the last, so
    the probe costs about a tenth of a pass.
    """

    SLICE_S = 0.05
    EVERY_S = 0.5

    def __init__(self) -> None:
        #: (perf_counter at the end of the sample, kernel runs per second)
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        start = perf_counter()
        runs = 0
        while True:
            speed_kernel()
            runs += 1
            now = perf_counter()
            if now - start >= self.SLICE_S:
                break
        self.samples.append((now, runs / (now - start)))

    def maybe_sample(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][0] >= self.EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Speed ÷ reference speed around the interval ``[start, end]``.

        The mean of the last sample taken before ``start`` and the first
        taken after ``end``.
        """
        before = [rate for at, rate in self.samples if at <= start]
        after = [rate for at, rate in self.samples if at >= end]
        return (before[-1] + after[0]) / 2 / REFERENCE_KERNEL_RATE
