"""The serving loop's decisions are the reference scheduler's decisions.

The serving loop's correctness anchor, by record and replay: a
:class:`~repro.serve.backend.SchedulerBackend` that records every
``begin`` / ``request`` / ``try_commit`` / ``abort`` call the production
loop makes (arguments and return value) runs the loop over the compiled
:class:`~repro.cc.scheduler.TableDrivenScheduler`; the recorded calls are
then replayed, in order, into a fresh frozen
:class:`~repro.cc.reference.ReferenceScheduler` with the same objects
registered.  Every returned decision must compare equal, and so must the
final dependency edges, per-transaction statuses, rendered object states
and seed counters.  The loop's own accounting is checked against the
reference too: every request settles exactly once, and a request counts
as committed iff its last transaction, and only that one, committed.

Grid: every builtin ADT x both policies x ten seeds, as a single-request
front-end (``max_inflight=1``, one object) and a batched one
(``max_inflight=4``, two objects), each served plain and at-least-once
(``retry_aborts`` with seeded backoff and a deadline budget, so retries
and deadline aborts appear in the recorded stream).
"""

import pytest

from repro.adts.registry import builtin_names, make_adt
from repro.cc.reference import ReferenceScheduler
from repro.cc.scheduler import TableDrivenScheduler
from repro.core.methodology import derive
from repro.serve import (
    DeadlinePolicy,
    RetryPolicy,
    SchedulerBackend,
    ServeConfig,
    ServingLoop,
    generate,
)
from repro.spec.adt import render_state

SEEDS = [1, 2, 7, 11, 23, 47, 101, 1991, 2024, 31337]

_TABLES = {}


def _fixture(adt_name):
    if adt_name not in _TABLES:
        adt = make_adt(adt_name)
        _TABLES[adt_name] = adt, derive(adt).final_table
    return _TABLES[adt_name]


class RecordingBackend(SchedulerBackend):
    """Records each decision call the loop makes, with its result."""

    def __init__(self, scheduler) -> None:
        super().__init__(scheduler)
        self.calls: list[tuple[str, tuple, object]] = []

    def begin(self):
        txn = super().begin()
        self.calls.append(("begin", (), txn))
        return txn

    def request(self, txn, object_name, invocation, deadline=None):
        decision = super().request(txn, object_name, invocation, deadline)
        self.calls.append(("request", (txn, object_name, invocation), decision))
        return decision

    def try_commit(self, txn, deadline=None):
        decision = super().try_commit(txn, deadline)
        self.calls.append(("try_commit", (txn,), decision))
        return decision

    def abort(self, txn, reason="voluntary"):
        cascade = super().abort(txn, reason)
        self.calls.append(("abort", (txn, reason), cascade))
        return cascade


def workload_for(adt, seed, objects):
    return generate(
        adt,
        ServeConfig(
            sessions=4,
            requests_per_session=3,
            operations_per_request=3,
            mode="open",
            mean_interarrival=0.5,
            objects=objects,
            abort_probability=0.15,
            seed=seed,
        ),
    )


def end_state(scheduler, begun, object_names):
    """Edges, statuses, rendered states and seed counters of a run."""
    edges = sorted(
        (pair, dependency.name)
        for pair, dependency in scheduler.dependency_graph().edges().items()
    )
    statuses = [scheduler.transaction(txn).status.name for txn in range(begun)]
    states = [
        render_state(scheduler.object(name).state()) for name in object_names
    ]
    return edges, statuses, states, scheduler.stats.seed_counters()


def serve_and_replay(adt_name, seed, policy, max_inflight, objects,
                     at_least_once):
    """Serve one run, replay its decision calls, and return the pieces."""
    adt, table = _fixture(adt_name)
    workload = workload_for(adt, seed, objects)
    options = {}
    if at_least_once:
        options = dict(
            retry_aborts=True,
            retry_policy=RetryPolicy(seed=seed),
            deadline=DeadlinePolicy(budget=40.0),
        )
    scheduler = TableDrivenScheduler(policy=policy)
    backend = RecordingBackend(scheduler)
    for name in workload.object_names:
        backend.register_object(name, adt, table)
    loop = ServingLoop(backend, workload, max_inflight=max_inflight, **options)
    result = loop.run()
    label = f"{adt_name}/{policy}/seed={seed}/retry={at_least_once}"

    reference = ReferenceScheduler(policy=policy)
    for name in workload.object_names:
        reference.register_object(name, adt, table)
    for index, (method, args, recorded) in enumerate(backend.calls):
        replayed = getattr(reference, method)(*args)
        assert replayed == recorded, (
            f"{label}: call {index} {method}{args} decided {recorded!r} "
            f"in the loop but {replayed!r} in the reference"
        )
    begun = sum(method == "begin" for method, _, _ in backend.calls)
    final = end_state(reference, begun, workload.object_names)
    assert end_state(scheduler, begun, workload.object_names) == final, (
        f"{label}: end states diverge"
    )
    return workload, loop, result, reference, final, label


def check_served_run(adt_name, seed, policy, max_inflight, objects):
    for at_least_once in (False, True):
        workload, loop, result, reference, final, label = serve_and_replay(
            adt_name, seed, policy, max_inflight, objects, at_least_once
        )
        # The loop's accounting, against the reference's verdicts.
        assert len(loop.outcomes) == len(workload.requests) == result.requests
        for rid, outcome in loop.outcomes.items():
            txns = loop.request_txns.get(rid, [])
            committed = [
                txn for txn in txns
                if reference.transaction(txn).status.name == "COMMITTED"
            ]
            expected = txns[-1:] if outcome == "committed" else []
            assert committed == expected, (
                f"{label}: request {rid} ({outcome}) committed {committed}"
            )
        assert result.committed == final[1].count("COMMITTED")


@pytest.mark.parametrize("policy", ["optimistic", "blocking"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("adt_name", builtin_names())
class TestReplay:
    def test_single_request_matches_reference(self, adt_name, seed, policy):
        check_served_run(adt_name, seed, policy, max_inflight=1, objects=1)

    def test_batched_matches_reference(self, adt_name, seed, policy):
        check_served_run(adt_name, seed, policy, max_inflight=4, objects=2)


@pytest.mark.parametrize("adt_name", builtin_names())
def test_committed_counts_match_reference(adt_name):
    # Plain batched blocking serving sheds nothing and has no deadline,
    # so every request ends committed or aborted, and the committed count
    # is the reference's number of committed transactions.
    workload, _, result, _, final, _ = serve_and_replay(
        adt_name, 7, "blocking", max_inflight=4, objects=2, at_least_once=False
    )
    assert result.committed == final[1].count("COMMITTED")
    assert result.committed + result.aborted == result.requests
    assert result.requests == len(workload.requests)
