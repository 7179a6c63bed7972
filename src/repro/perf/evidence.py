"""The shared evidence base of one derivation.

Malta & Martinez-style precomputation: instead of re-deciding every
pairwise question by fresh enumeration, build the full
``|states| x |invocations|`` execution matrix **once** and answer every
downstream judgement — classification, outcome cells, commutativity,
recoverability, replay legality — against it.  The matrix doubles as a
successor index (the state-transition relation), and histories replay by
dictionary lookup through a memo.

An :class:`EvidenceBase` is built once per
:func:`~repro.core.methodology.derive` run (and by the parallel workers,
once per process); executions it performs go through the installed
:class:`~repro.perf.cache.ExecutionCache` when one is active, so the
matrix itself is shared with any other consumer in the same process.

The matrix build is **vectorized**: per invocation, the whole states
column is produced by batched calls to the ``exec``-generated
:class:`~repro.perf.codegen.CompiledADT` executor over a preallocated
result array —
:meth:`~repro.perf.cache.ExecutionCache.get_or_execute_batch` when a
cache is installed (two lock acquisitions per column instead of two per
cell), a straight list fill otherwise.  The executors are bit-identical
to :func:`~repro.spec.adt.execute_invocation` by construction
(``tests/perf/test_codegen.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from repro.graph.instrument import EdgeAttribution
from repro.spec.adt import (
    ADTSpec,
    AbstractState,
    EnumerationBounds,
    Execution,
    active_execution_cache,
    execute_invocation,
)
from repro.spec.operation import Invocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.classification import OpClass
    from repro.semantics.history import HistoryEvent

__all__ = ["EvidenceBase"]


class EvidenceBase:
    """Precomputed execution matrix + successor index + replay memo.

    Drop-in provider for everything the five-stage pipeline (and the
    Section-3 table builders) previously recomputed per cell:

    * ``by_operation`` — operation -> invocation -> executions over every
      enumerated state (the Stage-4 evidence shape);
    * :meth:`execute` — the memoized ``(state, invocation)`` execution,
      covering off-matrix states (post-states outside the enumerated
      fragment) as well;
    * :meth:`successor` — the state-transition relation;
    * :meth:`replay` — memoized history replay (legality + final state);
    * :meth:`commute_in_state` — the direct commutativity check with the
      shared first-leg execution reused across every partner.
    """

    def __init__(
        self,
        adt: ADTSpec,
        operations: Sequence[str] | None = None,
        bounds: EnumerationBounds | None = None,
        attribution: EdgeAttribution = EdgeAttribution.BOTH,
    ) -> None:
        self.adt = adt
        self.bounds = bounds or adt.default_bounds
        self.attribution = attribution
        self.operations = (
            list(operations) if operations is not None else adt.operation_names()
        )
        self._states: list[AbstractState] = adt.state_list(self.bounds)
        #: operation -> invocation -> executions over every state
        self.by_operation: dict[str, dict[Invocation, list[Execution]]] = {}
        #: the full state x invocation matrix (grows lazily past the
        #: enumerated fragment through :meth:`execute`)
        self._matrix: dict[tuple[AbstractState, Invocation], Execution] = {}
        self._replay_memo: dict[tuple, AbstractState | None] = {}
        from repro.perf.codegen import compile_adt

        compiled_adt = compile_adt(adt)
        cache = active_execution_cache()
        states = self._states
        for name in self.operations:
            per_invocation: dict[Invocation, list[Execution]] = {}
            for invocation in adt.invocations_of(name, self.bounds):
                executor = compiled_adt.executor(name, attribution)
                if cache is not None:
                    executions = cache.get_or_execute_batch(
                        adt,
                        invocation,
                        attribution,
                        states,
                        lambda state, _run=executor, _inv=invocation: _run(
                            state, _inv
                        ),
                    )
                else:
                    executions = [
                        executor(state, invocation) for state in states
                    ]
                for state, execution in zip(states, executions):
                    self._matrix[(state, invocation)] = execution
                per_invocation[invocation] = executions
            self.by_operation[name] = per_invocation

    # ------------------------------------------------------------------
    # The execution matrix
    # ------------------------------------------------------------------

    def execute(self, state: AbstractState, invocation: Invocation) -> Execution:
        """The (memoized) execution of ``invocation`` in ``state``."""
        key = (state, invocation)
        execution = self._matrix.get(key)
        if execution is None:
            execution = execute_invocation(
                self.adt, state, invocation, self.attribution
            )
            self._matrix[key] = execution
        return execution

    def successor(
        self, state: AbstractState, invocation: Invocation
    ) -> AbstractState:
        """The state-transition relation ``state --invocation--> state'``."""
        return self.execute(state, invocation).post_state

    def states(self) -> list[AbstractState]:
        """The enumerated states (a list; safe to iterate repeatedly)."""
        return self._states

    def matrix_size(self) -> int:
        """Entries currently held (enumerated fragment + lazy growth)."""
        return len(self._matrix)

    def invocation_pairs(
        self, executing: str, invoked: str
    ) -> Iterator[tuple[Invocation, Invocation]]:
        for first in self.by_operation[executing]:
            for second in self.by_operation[invoked]:
                yield first, second

    # ------------------------------------------------------------------
    # Histories
    # ------------------------------------------------------------------

    def replay(
        self, history: Sequence["HistoryEvent"], start: AbstractState
    ) -> AbstractState | None:
        """Memoized history replay (same contract as
        :func:`repro.semantics.history.replay`): the final state when every
        recorded return value matches, else ``None``."""
        events = tuple(history)
        key = (events, start)
        try:
            return self._replay_memo[key]
        except KeyError:
            pass
        state: AbstractState | None = start
        for index, event in enumerate(events):
            # Memoize every legal prefix too: replays in this library
            # overwhelmingly share prefixes (h1, h1.o2, h1.o2.h2 ...).
            execution = self.execute(state, event.invocation)
            if execution.returned != event.returned:
                state = None
                break
            state = execution.post_state
            self._replay_memo[(events[: index + 1], start)] = state
        self._replay_memo[key] = state
        return state

    def event_alphabet(self) -> set["HistoryEvent"]:
        """Every event the covered operations exhibit over the matrix."""
        from repro.semantics.history import HistoryEvent

        return {
            HistoryEvent(execution.invocation, execution.returned)
            for per_invocation in self.by_operation.values()
            for executions in per_invocation.values()
            for execution in executions
        }

    # ------------------------------------------------------------------
    # Pairwise judgements
    # ------------------------------------------------------------------

    def commute_in_state(
        self,
        state: AbstractState,
        first: Invocation,
        second: Invocation,
    ) -> bool:
        """Direct commutativity of a pair started in ``state``.

        Identical in outcome to
        :func:`repro.semantics.commutativity.commute_in_state`, but the
        four executions are matrix lookups — in particular the shared
        first legs are computed once across every partner invocation.
        """
        x_then_y_first = self.execute(state, first)
        x_then_y_second = self.execute(x_then_y_first.post_state, second)
        y_then_x_second = self.execute(state, second)
        y_then_x_first = self.execute(y_then_x_second.post_state, first)
        return (
            x_then_y_second.post_state == y_then_x_first.post_state
            and x_then_y_first.returned == y_then_x_first.returned
            and x_then_y_second.returned == y_then_x_second.returned
        )

    # ------------------------------------------------------------------
    # Stage-4 evidence queries (the former private pipeline helper)
    # ------------------------------------------------------------------

    def labels(self, operation: str) -> set[str]:
        """Outcome labels the operation ever exhibits."""
        from repro.core.classification import outcome_label

        return {
            outcome_label(execution)
            for executions in self.by_operation[operation].values()
            for execution in executions
        }

    def class_given_label(self, operation: str, label: str) -> "OpClass | None":
        """Strongest outcome-restricted class over the operation's invocations."""
        from repro.core.classification import classify_with_outcome

        classes = []
        for executions in self.by_operation[operation].values():
            restricted = classify_with_outcome(executions, label)
            if restricted is not None:
                classes.append(restricted)
        return max(classes) if classes else None

    def serial_label_pairs(
        self, executing: str, invoked: str
    ) -> set[tuple[str, str]]:
        """Outcome-label pairs observable when ``invoked`` directly follows
        ``executing`` (the ``"serial"`` feasibility mode)."""
        from repro.core.classification import outcome_label

        pairs = set()
        for first_execs in self.by_operation[executing].values():
            for first_execution in first_execs:
                for second_inv in self.by_operation[invoked]:
                    second_execution = self.execute(
                        first_execution.post_state, second_inv
                    )
                    pairs.add(
                        (
                            outcome_label(first_execution),
                            outcome_label(second_execution),
                        )
                    )
        return pairs
