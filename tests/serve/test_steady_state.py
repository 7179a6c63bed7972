"""Bounded steady state: live state follows the active population.

The scheduler folds every object log at the low watermark (see
``SharedObject.compact``), so the residual log of a long serving run is
bounded by what can be in flight, not by how many requests have been
served.  The admission queue's shed-free fast path must decide exactly
what the full-backlog path decides.
"""

import pytest

from repro.adts.registry import make_adt
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.serializability import is_serializable
from repro.core.methodology import derive
from repro.serve import (
    BreakerConfig,
    SchedulerBackend,
    ServeConfig,
    ServingLoop,
    ShedConfig,
    generate,
)

MAX_INFLIGHT = 16
OPERATIONS_PER_REQUEST = 2


@pytest.fixture(scope="module")
def account():
    adt = make_adt("Account")
    return adt, derive(adt).final_table


def backend_for(account, workload, policy="blocking"):
    adt, table = account
    scheduler = TableDrivenScheduler(policy=policy)
    backend = SchedulerBackend(scheduler)
    for name in workload.object_names:
        backend.register_object(name, adt, table)
    return scheduler, backend


def residual_log(scheduler) -> int:
    return sum(
        len(scheduler.object(name).log()) for name in scheduler.object_names()
    )


@pytest.mark.parametrize("requests", [150, 1200])
def test_residual_log_bounded_by_inflight_work(account, requests):
    adt, _ = account
    workload = generate(
        adt,
        ServeConfig(
            sessions=8,
            requests_per_session=requests // 8,
            operations_per_request=OPERATIONS_PER_REQUEST,
            mode="open",
            mean_interarrival=0.5,
            objects=8,
            zipf_s=0.8,
            seed=1991,
        ),
    )
    scheduler, backend = backend_for(account, workload)
    samples: list[int] = []
    scheduler.add_resolution_listener(
        lambda txn, status: status == "committed"
        and samples.append(residual_log(scheduler))
    )
    result = ServingLoop(backend, workload, max_inflight=MAX_INFLIGHT).run()
    assert result.committed > requests // 2
    bound = MAX_INFLIGHT * OPERATIONS_PER_REQUEST
    quarters = [samples[len(samples) * q // 4 - 1] for q in (1, 2, 3)]
    assert all(sample <= bound for sample in quarters), quarters
    # Nothing is active after the run: every log folds completely, while
    # the registration state stays what the serial audit replays from.
    assert residual_log(scheduler) == 0
    assert scheduler.active_transactions() == set()
    for name in scheduler.object_names():
        shared = scheduler.object(name)
        assert shared.baseline == shared.state()
        assert shared.initial_state == adt.initial_state()
    assert is_serializable(scheduler)


@pytest.mark.parametrize("breakers", [None, BreakerConfig()])
def test_admission_paths_decide_identically(account, breakers):
    """Lazy admission (no ladder, no deadlines) matches the full pop.

    ``ShedConfig(queue_limit=10**9)`` routes through the full-backlog
    path without ever engaging a ladder rung, so both runs must settle
    every request the same way.
    """
    adt, _ = account
    workload = generate(
        adt,
        ServeConfig(
            sessions=8,
            requests_per_session=20,
            operations_per_request=OPERATIONS_PER_REQUEST,
            mode="open",
            mean_interarrival=0.05,
            objects=2,
            zipf_s=0.8,
            seed=7,
        ),
    )
    results = []
    for shedding in (None, ShedConfig(queue_limit=10**9)):
        _, backend = backend_for(account, workload)
        results.append(
            ServingLoop(
                backend,
                workload,
                max_inflight=4,
                retry_aborts=True,
                breakers=breakers,
                shedding=shedding,
            ).run()
        )
    lazy, full = results
    assert full.degradation_steps == ()
    assert lazy.outcomes == full.outcomes
    assert (lazy.committed, lazy.aborted, lazy.shed, lazy.retries) == (
        full.committed,
        full.aborted,
        full.shed,
        full.retries,
    )
    assert lazy.ticks == full.ticks
    assert breakers is None or lazy.breaker_transitions == full.breaker_transitions
