"""Shared objects: live state, operation execution, replay recovery.

A :class:`SharedObject` wraps one ADT instance.  Its live state is an
object graph mutated in place by executed operations; in parallel it keeps
an *operation log* — the global execution order of (transaction,
invocation) pairs — which is the basis of recovery:

When a transaction aborts, its operations are removed from the log and the
remaining operations are **replayed from the baseline** (footnote 1
of the paper: "p's changes have to be undone and possibly q's, and the
changes of q must be reapplied").  Replay also *re-verifies* the return
values of the surviving active transactions: if a surviving operation
would now return something different, the information it handed to its
transaction was invalidated, and the object reports those transactions so
the scheduler can cascade the abort.  A sound compatibility table makes
such collateral aborts impossible beyond the recorded AD edges — the
property checked by the scheduler-soundness experiment (X5).

Only entries of *active* transactions can ever need that replay.
:meth:`SharedObject.compact` folds the longest prefix of resolved entries
into the ``baseline`` (the low watermark), so the log — and every replay —
is bounded by the active window rather than by history.  The state at
registration stays available as ``initial_state`` for the serial audits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cc.transaction import TxnId
from repro.graph.instrument import EdgeAttribution, InstrumentedGraph, LocalityTrace
from repro.graph.object_graph import ObjectGraph
from repro.spec.adt import ADTSpec, AbstractState
from repro.spec.operation import Invocation
from repro.spec.returnvalue import ReturnValue

__all__ = ["AppliedOperation", "SharedObject"]


@dataclass
class AppliedOperation:
    """One log entry: who executed what, and what came back."""

    txn: TxnId
    invocation: Invocation
    returned: ReturnValue
    trace: LocalityTrace


class SharedObject:
    """One concurrently accessed ADT instance with replay recovery."""

    def __init__(
        self,
        name: str,
        adt: ADTSpec,
        initial_state: AbstractState | None = None,
        attribution: EdgeAttribution = EdgeAttribution.SOURCE,
    ) -> None:
        """Create a shared instance of ``adt``.

        Runtime traces default to ``SOURCE`` edge attribution — the
        reference-granular reading the paper's Stage 5 uses.  The literal
        ``BOTH`` reading also attributes ordering-edge changes to the
        *neighbouring* vertices, which makes adjacent front/back operations
        (Push vs. Deq on a two-element QStack) appear to conflict and
        erases exactly the concurrency the ``f ≠ b`` predicate exists to
        expose; see the attribution ablation benchmark.
        """
        self.name = name
        self.adt = adt
        self.attribution = attribution
        self._initial_state = (
            adt.initial_state() if initial_state is None else initial_state
        )
        #: The recovery base: ``initial_state`` with every compacted log
        #: prefix folded in.
        self._baseline = self._initial_state
        self._graph: ObjectGraph = adt.build_graph(self._initial_state)
        self._log: list[AppliedOperation] = []

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    @property
    def graph(self) -> ObjectGraph:
        """The live object graph (used to evaluate reference predicates)."""
        return self._graph

    @property
    def initial_state(self) -> AbstractState:
        """The state at registration, never rebased.

        The serial audits (``replay_serial``, the invariant monitor's
        serial witness) replay committed transactions from here.  Recovery
        replays from :attr:`baseline` instead.
        """
        return self._initial_state

    @property
    def baseline(self) -> AbstractState:
        """The recovery base: the state every replay of :meth:`log` starts from."""
        return self._baseline

    def state(self) -> AbstractState:
        """The current abstract state."""
        return self.adt.abstract_state(self._graph)

    def log(self) -> list[AppliedOperation]:
        """A copy of the operation log in execution order."""
        return list(self._log)

    def active_writers(self, exclude: TxnId) -> set[TxnId]:
        """Transactions (other than ``exclude``) present in the log."""
        return {entry.txn for entry in self._log if entry.txn != exclude}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, txn: TxnId, invocation: Invocation) -> AppliedOperation:
        """Execute an invocation on the live state and log it."""
        view = InstrumentedGraph(self._graph, attribution=self.attribution)
        operation = self.adt.operation(invocation.operation)
        returned = operation.execute(view, *invocation.args)
        applied = AppliedOperation(
            txn=txn, invocation=invocation, returned=returned, trace=view.trace
        )
        self._log.append(applied)
        return applied

    def preview(self, invocation: Invocation) -> ReturnValue:
        """Execute an invocation against a throwaway copy of the state.

        Used by the blocking scheduler to evaluate outcome-conditional
        entries without committing to the execution.
        """
        returned, _ = self.preview_with_trace(invocation)
        return returned

    def preview_with_trace(
        self, invocation: Invocation
    ) -> tuple[ReturnValue, LocalityTrace]:
        """Preview an invocation on an id-preserving clone of the live graph.

        The returned locality trace uses the *live* graph's vertex ids
        (the clone shares them and would allocate the same fresh ids), so
        it can be intersected with traces already recorded on the object —
        the basis of the scheduler's runtime conflict certification.
        """
        scratch = self._graph.clone()
        view = InstrumentedGraph(scratch, attribution=self.attribution)
        operation = self.adt.operation(invocation.operation)
        returned = operation.execute(view, *invocation.args)
        return returned, view.trace

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def remove_transactions(self, txns: set[TxnId]) -> set[TxnId]:
        """Erase the given transactions' operations and replay the rest.

        Returns the set of *surviving* transactions whose replayed return
        values differ from the originally observed ones — the transactions
        whose information was invalidated by the abort.  Under a sound
        compatibility table this set is always empty (the scheduler already
        cascaded every AD-dependent); it is surfaced rather than assumed so
        the soundness experiments can detect violations.
        """
        survivors = [entry for entry in self._log if entry.txn not in txns]
        self._graph = self.adt.build_graph(self._baseline)
        invalidated: set[TxnId] = set()
        replayed: list[AppliedOperation] = []
        for entry in survivors:
            view = InstrumentedGraph(self._graph, attribution=self.attribution)
            operation = self.adt.operation(entry.invocation.operation)
            returned = operation.execute(view, *entry.invocation.args)
            if returned != entry.returned:
                invalidated.add(entry.txn)
            replayed.append(
                AppliedOperation(
                    txn=entry.txn,
                    invocation=entry.invocation,
                    returned=entry.returned,
                    trace=view.trace,
                )
            )
        self._log = replayed
        return invalidated

    def compact(self, is_active) -> None:
        """Fold the longest resolved log prefix into :attr:`baseline`.

        ``is_active(txn)`` tells whether a transaction may still abort.
        Entries before the first active one can never be replayed
        differently, so they become part of the baseline and leave the
        log.  Entries of resolved transactions interleaved after an
        active one stay: undoing that transaction must replay them.
        """
        log = self._log
        cut = 0
        for entry in log:
            if is_active(entry.txn):
                break
            cut += 1
        if cut == 0:
            return
        if cut == len(log):
            # Everything logged is resolved: the live state is the base.
            self._baseline = self.state()
        else:
            graph = self.adt.build_graph(self._baseline)
            for entry in log[:cut]:
                view = InstrumentedGraph(graph, attribution=self.attribution)
                operation = self.adt.operation(entry.invocation.operation)
                operation.execute(view, *entry.invocation.args)
            self._baseline = self.adt.abstract_state(graph)
        del log[:cut]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedObject {self.name} state={self.state()!r}>"
