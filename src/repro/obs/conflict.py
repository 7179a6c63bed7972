"""Per-object conflict telemetry: windowed rates for adaptive policies.

The adaptive concurrency-control direction (ROADMAP item 1, and the
conflict-class accounting of the composability / Malta–Martinez lines in
PAPERS.md) needs a per-object answer to "how contended is this object,
and how do its conflicts resolve?".  This module keeps cheap windowed
counters next to each compatibility table entry:

* ``requests`` — operation requests arriving at the object;
* ``grants`` — requests admitted (immediately or after blocking);
* ``blocks`` — requests that blocked on a commutativity conflict;
* ``aborts`` — transaction aborts attributed to the object;
* ``nd_fast_path`` — ND-dependency fast-path hits (the paper's
  recoverability relaxation actually paying off here);
* ``ad_edges`` / ``cd_edges`` / ``nd_pairs`` — dependency-class mix.

Counters accumulate into the **current window**; every ``window_size``
requests the window is sealed and a fresh one starts, so a
:class:`ConflictProfile` reports both lifetime totals and the most
recent sealed window — the recency signal a policy switch wants.

``recommend()`` maps a profile onto the blocking/optimistic/queued
triple the adaptive policy chooses between: high abort share → queued
(contention is resolving by churn; serialize rather than keep paying
aborts), low conflict rate → optimistic, otherwise blocking.  The abort
check runs first because an optimistic object never *blocks* — its
conflict rate stays zero while aborts pile up, and that is exactly the
situation the queued recommendation exists for.  The cutoffs live in
:class:`RecommendThresholds` and are constructor-configurable; the
defaults (0.15 / 0.25) are the documented PR 6 values.

:func:`profiles_from_trace` rebuilds profiles offline from a recorded
trace (for the ``report`` CLI), attributing aborts to the last object
the transaction touched; ND fast-path hits are scheduler-internal and
appear only in live profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.events import (
    OpBlocked,
    OpGranted,
    OpRequested,
    TraceEvent,
    TxnAborted,
)

__all__ = [
    "ConflictWindow",
    "ConflictProfile",
    "ObjectConflictTracker",
    "RecommendThresholds",
    "profiles_from_trace",
]

#: Shade ramp for the dashboard heatmap, sparse → dense.
HEAT_CHARS = " .:-=+*#%@"


@dataclass
class ConflictWindow:
    """Counter deltas over one window of ``window_size`` requests."""

    requests: int = 0
    grants: int = 0
    blocks: int = 0
    aborts: int = 0
    nd_fast_path: int = 0
    ad_edges: int = 0
    cd_edges: int = 0
    nd_pairs: int = 0

    def add(self, other: "ConflictWindow") -> None:
        self.requests += other.requests
        self.grants += other.grants
        self.blocks += other.blocks
        self.aborts += other.aborts
        self.nd_fast_path += other.nd_fast_path
        self.ad_edges += other.ad_edges
        self.cd_edges += other.cd_edges
        self.nd_pairs += other.nd_pairs


@dataclass(frozen=True)
class RecommendThresholds:
    """Cutoffs :meth:`ConflictProfile.recommend` decides against.

    * ``queued_abort_above`` — abort rate beyond which contention is
      resolving by churn and the object should serialize (``queued``);
    * ``optimistic_below`` — conflict rate under which validate-at-commit
      wins (``optimistic``).

    The defaults are the documented PR 6 values; the adaptive controller
    and tests construct tuned instances without touching them.
    """

    optimistic_below: float = 0.15
    queued_abort_above: float = 0.25


#: The default cutoffs, shared so profiles compare equal across sources.
DEFAULT_THRESHOLDS = RecommendThresholds()


@dataclass(frozen=True)
class ConflictProfile:
    """The published per-object conflict signal.

    ``total`` covers the object's lifetime; ``recent`` is the last
    *sealed* window (all-zero until one full window has elapsed).  Rates
    are computed over the lifetime totals.
    """

    object_name: str
    window_size: int
    windows_sealed: int
    total: ConflictWindow
    recent: ConflictWindow
    thresholds: RecommendThresholds = DEFAULT_THRESHOLDS

    @property
    def conflict_rate(self) -> float:
        """Fraction of requests that hit any conflict (blocked)."""
        return self.total.blocks / self.total.requests if self.total.requests else 0.0

    @property
    def abort_rate(self) -> float:
        """Aborts attributed here per request."""
        return self.total.aborts / self.total.requests if self.total.requests else 0.0

    def recommend(self) -> str:
        """Suggested concurrency-control mode for this object.

        * abort rate > ``queued_abort_above`` → ``queued`` (contention
          is resolving by churn; serialize instead) — checked first, so
          an optimistic object whose conflicts surface only as aborts
          (it never blocks, so its conflict rate stays zero) still gets
          the serialize recommendation;
        * conflict rate < ``optimistic_below`` → ``optimistic``
          (conflicts are rare enough that validate-at-commit wins);
        * otherwise → ``blocking`` (the table-driven default).
        """
        if self.abort_rate > self.thresholds.queued_abort_above:
            return "queued"
        if self.conflict_rate < self.thresholds.optimistic_below:
            return "optimistic"
        return "blocking"

    def heat_char(self) -> str:
        """One shade of :data:`HEAT_CHARS` proportional to conflict rate."""
        index = min(int(self.conflict_rate * len(HEAT_CHARS)), len(HEAT_CHARS) - 1)
        return HEAT_CHARS[index]

    def to_dict(self) -> dict:
        return {
            "object": self.object_name,
            "window_size": self.window_size,
            "windows_sealed": self.windows_sealed,
            "requests": self.total.requests,
            "grants": self.total.grants,
            "blocks": self.total.blocks,
            "aborts": self.total.aborts,
            "nd_fast_path": self.total.nd_fast_path,
            "ad_edges": self.total.ad_edges,
            "cd_edges": self.total.cd_edges,
            "nd_pairs": self.total.nd_pairs,
            "conflict_rate": self.conflict_rate,
            "abort_rate": self.abort_rate,
            "recommendation": self.recommend(),
        }


@dataclass
class ObjectConflictTracker:
    """Live windowed counters for one registered object.

    The scheduler calls the ``note_*`` hooks from its existing decision
    points; each is a couple of integer increments, so the hot path cost
    is negligible and — critically — identical whether or not a tracer
    is attached.
    """

    object_name: str
    window_size: int = 64
    windows_sealed: int = 0
    total: ConflictWindow = field(default_factory=ConflictWindow)
    current: ConflictWindow = field(default_factory=ConflictWindow)
    recent: ConflictWindow = field(default_factory=ConflictWindow)
    thresholds: RecommendThresholds = DEFAULT_THRESHOLDS

    def _seal_if_full(self) -> None:
        if self.current.requests >= self.window_size:
            self.recent = self.current
            self.current = ConflictWindow()
            self.windows_sealed += 1

    def note_request(self) -> None:
        self.total.requests += 1
        self.current.requests += 1
        self._seal_if_full()

    def note_grant(self) -> None:
        self.total.grants += 1
        self.current.grants += 1

    def note_block(self) -> None:
        self.total.blocks += 1
        self.current.blocks += 1

    def note_abort(self) -> None:
        self.total.aborts += 1
        self.current.aborts += 1

    def note_dep(self, kind: str) -> None:
        if kind == "AD":
            self.total.ad_edges += 1
            self.current.ad_edges += 1
        elif kind == "CD":
            self.total.cd_edges += 1
            self.current.cd_edges += 1
        else:
            self.total.nd_pairs += 1
            self.current.nd_pairs += 1

    def add_nd_fast(self, delta: int) -> None:
        if delta:
            self.total.nd_fast_path += delta
            self.current.nd_fast_path += delta

    def profile(self) -> ConflictProfile:
        return ConflictProfile(
            object_name=self.object_name,
            window_size=self.window_size,
            windows_sealed=self.windows_sealed,
            total=self.total,
            recent=self.recent,
            thresholds=self.thresholds,
        )


def profiles_from_trace(
    events: Sequence[TraceEvent],
    window: int = 32,
    thresholds: RecommendThresholds = DEFAULT_THRESHOLDS,
) -> dict[str, ConflictProfile]:
    """Rebuild per-object conflict profiles from a recorded trace.

    Aborts are attributed to the last object the aborting transaction
    touched (requested or blocked on) — the best offline approximation
    of "which object's conflict killed it".  ND fast-path hits are not
    reconstructible from events and stay zero here.
    """
    trackers: dict[str, ObjectConflictTracker] = {}
    last_object: dict[int, str] = {}

    def tracker(name: str) -> ObjectConflictTracker:
        existing = trackers.get(name)
        if existing is None:
            existing = trackers[name] = ObjectConflictTracker(
                object_name=name, window_size=window, thresholds=thresholds
            )
        return existing

    for event in events:
        if isinstance(event, OpRequested):
            tracker(event.object_name).note_request()
            last_object[event.txn] = event.object_name
        elif isinstance(event, OpGranted):
            tracker(event.object_name).note_grant()
            last_object[event.txn] = event.object_name
        elif isinstance(event, OpBlocked):
            tracker(event.object_name).note_block()
            last_object[event.txn] = event.object_name
        elif isinstance(event, TxnAborted):
            name = last_object.pop(event.txn, None)
            if name is not None:
                tracker(name).note_abort()
    return {name: trackers[name].profile() for name in sorted(trackers)}
