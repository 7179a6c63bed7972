"""Invariant monitoring with graceful degradation.

The optimized scheduler owes its speed to derived structures — the
:class:`~repro.perf.shadow.ShadowStateIndex`, the precompiled
:class:`~repro.perf.codegen.ConflictMatrix`, the
:class:`~repro.perf.cache.ExecutionCache` — every one of which is
*redundant*: each can be rebuilt from the authoritative state (object
logs, compatibility tables, operation specs).  Redundancy is what makes
graceful degradation possible: when a derived structure goes wrong, the
correct response is not to crash but to throw it away and recompute.

The :class:`MonitoredScheduler` wraps a scheduler (over the decision-log
layer, so the last degradation rung can replay) and audits three
invariants every ``check_interval``-th call, *before* forwarding the
call — a violated invariant is caught before it can poison a scheduling
decision, which is what keeps the decision log clean enough for the
degraded replay to verify:

``acyclicity``
    The inter-transaction dependency graph has no cycle among unresolved
    edges.  :class:`~repro.cc.dependencies.DependencyGraph` refuses to
    create cycles, so a cycle here means the graph structure itself was
    corrupted.
``serializability``
    The committed prefix admits a serial witness
    (:func:`repro.cc.serializability.find_serialization`) — the paper's
    ground truth, checked live instead of post-hoc.
``shadow_freshness``
    Every maintained shadow state equals a fresh *uncached* "log minus
    txn" replay.  Bypassing the execution cache is the point: a poisoned
    cache entry shows up exactly here.

On violation the monitor walks the **degradation ladder**:

1. emit :class:`~repro.obs.events.InvariantViolated` (one per failed
   invariant) and count it;
2. **quarantine** — ``rebuild_fast_paths()``: drop the shadow index,
   clear the execution cache, recompile the conflict matrices and
   reset the peer indexes; recheck;
3. **degrade** — replay the decision log into a bit-parity
   :class:`~repro.cc.reference.ReferenceScheduler` (no fast paths at
   all) and continue on it, emitting
   :class:`~repro.obs.events.DegradedMode`; recheck;
4. if the invariant *still* fails, raise
   :class:`~repro.errors.InvariantViolationError` — the corruption is in
   the authoritative state and no rebuild can help.

Counters flow through the shared :class:`~repro.robust.faults.RobustStats`
sink and out the metrics registry.
"""

from __future__ import annotations

from repro.errors import InvariantViolationError, RecoveryError
from repro.graph.instrument import EdgeAttribution
from repro.obs.events import DegradedMode, InvariantViolated
from repro.robust.decision_log import DecisionLog, LoggingScheduler, recover
from repro.robust.faults import RobustStats
from repro.spec.adt import execute_uncached

__all__ = ["INVARIANTS", "MonitoredScheduler"]

#: The monitored invariants, in check order.
INVARIANTS = ("acyclicity", "serializability", "shadow_freshness")


class MonitoredScheduler(LoggingScheduler):
    """A logging wrapper that audits invariants and degrades gracefully.

    ``check_interval`` sets the audit cadence: every N-th forwarded
    ``request``/``try_commit`` is preceded by a full check round (1 =
    check before every call).  ``max_recoveries`` bounds the quarantine
    rung; once spent, the next violation degrades straight to reference
    execution.  ``robust_stats`` is the shared counter sink (the
    scheduler's own ``stats`` keeps forwarding to the wrapped scheduler
    unchanged).
    """

    def __init__(
        self,
        inner,
        log: DecisionLog | None = None,
        check_interval: int = 1,
        max_recoveries: int = 1,
        robust_stats: RobustStats | None = None,
        serializability_limit: int = 6,
    ) -> None:
        super().__init__(inner, log)
        if check_interval < 1:
            raise ValueError("check_interval must be at least 1")
        self.check_interval = check_interval
        self.max_recoveries = max_recoveries
        self.robust_stats = (
            robust_stats if robust_stats is not None else RobustStats()
        )
        self.serializability_limit = serializability_limit
        self.degraded = False
        self._calls = 0
        #: Quarantine rebuilds performed by *this* monitor, bounded by
        #: ``max_recoveries`` (the shared ``robust_stats.recoveries``
        #: counter also absorbs crash recoveries, so it cannot be the bound).
        self._rebuilds = 0

    # ------------------------------------------------------------------
    # Audited surface
    # ------------------------------------------------------------------

    def request(self, txn, object_name, invocation):
        self._preflight()
        return super().request(txn, object_name, invocation)

    def try_commit(self, txn):
        self._preflight()
        return super().try_commit(txn)

    def reincarnate(self, scheduler_factory=None) -> "MonitoredScheduler":
        """Crash-recover the wrapped scheduler, keeping the monitor alive.

        The rebuilt wrapper preserves the audit configuration, the shared
        counters and the degraded flag (a degraded run stays degraded:
        recovery replays into the reference scheduler again).
        """
        if scheduler_factory is None and self.degraded:
            scheduler_factory = self._reference_factory()
        inner = super().reincarnate(scheduler_factory).inner
        rebuilt = MonitoredScheduler(
            inner,
            log=self.log,
            check_interval=self.check_interval,
            max_recoveries=self.max_recoveries,
            robust_stats=self.robust_stats,
            serializability_limit=self.serializability_limit,
        )
        rebuilt.degraded = self.degraded
        rebuilt._calls = self._calls
        rebuilt._rebuilds = self._rebuilds
        return rebuilt

    # ------------------------------------------------------------------
    # Invariant checks
    # ------------------------------------------------------------------

    def check_invariants(self) -> list[tuple[str, str]]:
        """Run every applicable check; returns ``(invariant, detail)`` failures."""
        failures: list[tuple[str, str]] = []
        detail = self._check_acyclicity()
        if detail:
            failures.append(("acyclicity", detail))
        detail = self._check_serializability()
        if detail:
            failures.append(("serializability", detail))
        detail = self._check_shadow_freshness()
        if detail:
            failures.append(("shadow_freshness", detail))
        return failures

    def _check_acyclicity(self) -> str:
        """Iterative three-colour DFS over the recorded dependency edges."""
        successors: dict[int, list[int]] = {}
        for (later, earlier) in self.inner.dependency_graph().edges():
            successors.setdefault(earlier, []).append(later)
        state: dict[int, int] = {}  # 1 = on stack, 2 = done
        for root in successors:
            if state.get(root):
                continue
            stack = [(root, iter(successors.get(root, ())))]
            state[root] = 1
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    mark = state.get(child)
                    if mark == 1:
                        return f"dependency cycle through txns {child} and {node}"
                    if mark is None:
                        state[child] = 1
                        stack.append(
                            (child, iter(successors.get(child, ())))
                        )
                        advanced = True
                        break
                if not advanced:
                    state[node] = 2
                    stack.pop()
        return ""

    def _check_serializability(self) -> str:
        """The committed prefix must admit a serial witness *now*.

        Unlike the post-hoc checker this runs mid-transaction: active
        transactions' operations are still in the object logs, so final
        states cannot be compared — the witness must reproduce every
        *recorded return value* of the committed transactions.  (A
        committed transaction can never have observed a still-active one:
        such an observation records an AD/CD edge, and commitment waits
        for every predecessor to resolve — so committed returns are
        explainable by committed transactions alone.)
        """
        committed = sorted(
            (
                txn
                for txn in self._all_transactions()
                if txn.is_committed
            ),
            key=lambda txn: txn.commit_sequence or 0,
        )
        if not committed:
            return ""
        if self._serial_returns_ok(committed):
            return ""
        if len(committed) <= self.serializability_limit:
            from itertools import permutations

            for candidate in permutations(committed):
                if self._serial_returns_ok(list(candidate)):
                    return ""
        return "committed prefix admits no serial witness"

    def _all_transactions(self):
        found = []
        index = 0
        while True:
            try:
                found.append(self.inner.transaction(index))
            except Exception:
                return found
            index += 1

    def _serial_returns_ok(self, order) -> bool:
        """Whether serial execution in ``order`` reproduces every recorded
        return value (uncached — a poisoned cache must not vouch for
        itself)."""
        states: dict[str, object] = {}
        for transaction in order:
            for record in transaction.records:
                name = record.object_name
                shared = self.inner.object(name)
                state = states.get(name, shared.initial_state)
                execution = execute_uncached(
                    shared.adt, state, record.invocation, EdgeAttribution.BOTH
                )
                if execution.returned != record.returned:
                    return False
                states[name] = execution.post_state
        return True

    def _check_shadow_freshness(self) -> str:
        """Compare every maintained shadow state to an uncached replay."""
        index = getattr(self.inner, "shadow_index", None)
        if index is None:  # reference scheduler: no fast path to audit
            return ""
        shadow = index()
        for name in self.inner.object_names():
            shared = self.inner.object(name)
            for txn, state in sorted(shadow.maintained(name).items()):
                fresh = shared.baseline
                for entry in shared.log():
                    if entry.txn == txn:
                        continue
                    fresh = execute_uncached(
                        shared.adt,
                        fresh,
                        entry.invocation,
                        EdgeAttribution.BOTH,
                    ).post_state
                if state != fresh:
                    return (
                        f"object {name!r}: maintained shadow state for txn "
                        f"{txn} is {state!r}, uncached replay gives {fresh!r}"
                    )
        return ""

    # ------------------------------------------------------------------
    # The degradation ladder
    # ------------------------------------------------------------------

    def _preflight(self) -> None:
        self._calls += 1
        if self._calls % self.check_interval:
            return
        self.enforce()

    def enforce(self) -> None:
        """One audit round, walking the ladder until the checks pass."""
        stats = self.robust_stats
        stats.invariant_checks += 1
        failures = self.check_invariants()
        if not failures:
            return
        self._report(failures)

        # Rung 1: quarantine — rebuild the derived fast paths.
        rebuild = getattr(self.inner, "rebuild_fast_paths", None)
        while (
            failures
            and rebuild is not None
            and not self.degraded
            and self._rebuilds < self.max_recoveries
        ):
            rebuild()
            self._rebuilds += 1
            stats.recoveries += 1
            failures = self.check_invariants()
            if failures:
                self._report(failures)

        # Rung 2: degrade — replay the log into the reference scheduler.
        if failures and not self.degraded:
            self._degrade(failures[0][0])
            failures = self.check_invariants()
            if failures:
                self._report(failures)

        if failures:
            raise InvariantViolationError(
                "invariants still violated after degradation: "
                + "; ".join(f"{name}: {detail}" for name, detail in failures)
            )

    def _report(self, failures: list[tuple[str, str]]) -> None:
        self.robust_stats.invariant_violations += len(failures)
        tracer = self.inner.tracer
        if tracer:
            for invariant, detail in failures:
                tracer.emit(
                    InvariantViolated(
                        time=self.inner.now,
                        invariant=invariant,
                        detail=detail,
                    )
                )

    def _reference_factory(self):
        from repro.cc.reference import ReferenceScheduler

        policy = self.inner.policy
        return lambda: ReferenceScheduler(policy=policy)

    def _degrade(self, reason: str) -> None:
        """Replace the wrapped scheduler by a reference replay of the log.

        The reference scheduler maintains no shadow index, conflict
        matrices or execution cache, so nothing the corrupted fast paths
        could have touched survives; replay verification doubles as proof
        that every decision already logged was fast-path-independent.
        When it is *not* — a corrupted fast path influenced a decision in
        the window between two audits, so the log itself is tainted — no
        fallback can reproduce the recorded history, and the ladder ends in
        :class:`~repro.errors.InvariantViolationError` (tightening
        ``check_interval`` shrinks that window).
        """
        tracer, now = self.inner.tracer, self.inner.now
        try:
            recovered = recover(
                self.log,
                policy=self.inner.policy,
                scheduler_factory=self._reference_factory(),
            )
        except RecoveryError as error:
            raise InvariantViolationError(
                f"cannot degrade after {reason} violation: the decision "
                f"log is tainted by a pre-audit corrupted decision "
                f"({error})"
            ) from error
        recovered.tracer = tracer
        recovered.now = now
        self.inner = recovered
        self.degraded = True
        self.robust_stats.degradations += 1
        if tracer:
            tracer.emit(DegradedMode(time=now, reason=reason))
