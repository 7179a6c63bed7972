"""Parity: the compiled scheduler is bit-identical to the seed reference.

The hot-path optimizations (incremental shadow states, per-request context
reuse, preview-verdict memoization) and the registration-time compilation
layer (integer conflict matrices, incremental peer index, codegen
executors, shadow transition memo — see ``docs/PERFORMANCE.md``) must not
change a single observable decision.  These tests drive identical seeded
workloads through :class:`~repro.cc.scheduler.TableDrivenScheduler` and
the frozen :class:`~repro.cc.reference.ReferenceScheduler` and require
equal transcripts: every ``OpDecision`` and ``CommitDecision`` in issue
order, the recorded dependency edges, final per-transaction statuses, the
final object state, and the seed-comparable ``SchedulerStats`` counters
(including ``condition_evaluations`` — the compiled path must account
exactly the work the bitmask fast path displaces).

Coverage: every builtin ADT x both policies x 20 seeded workloads each
(with voluntary aborts and varying concurrency, so cascades, blocking,
deadlock victims, peer-index invalidation and replay invalidation all
appear in the stream).

The reference never compacts its object logs, so the same grid is the
"compaction off" oracle for low-watermark folding; along it the compacted
scheduler must also keep its incremental active set exact and pass the
serializability and shadow-freshness audits.
"""

from __future__ import annotations

import pytest

from repro.adts.registry import builtin_names, make_adt
from repro.cc.harness import drive
from repro.cc.reference import ReferenceScheduler
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.serializability import is_serializable
from repro.cc.workload import WorkloadConfig, generate
from repro.core.methodology import derive
from repro.errors import SchedulerError
from repro.robust.monitor import MonitoredScheduler

SEEDS = range(20)

_TABLES = {}


def _table(adt):
    if adt.name not in _TABLES:
        _TABLES[adt.name] = derive(adt).final_table
    return _TABLES[adt.name]


def _workload(adt, seed: int):
    # Vary the shape with the seed so the 20 runs are not one scenario
    # repeated: small/large transaction counts, clean and abort-heavy
    # mixes, full and limited concurrency.
    config = WorkloadConfig(
        transactions=4 + (seed % 3) * 2,
        operations_per_transaction=3 + seed % 3,
        abort_probability=(0.0, 0.2, 0.35)[seed % 3],
        seed=seed,
    )
    return generate(adt, "obj", config), (None, 3)[seed % 2]


@pytest.mark.parametrize("adt_name", builtin_names())
@pytest.mark.parametrize("policy", ["optimistic", "blocking"])
def test_transcripts_identical(adt_name, policy):
    adt = make_adt(adt_name)
    table = _table(adt)
    for seed in SEEDS:
        workload, concurrency = _workload(adt, seed)
        reference = drive(
            ReferenceScheduler(policy=policy),
            adt,
            table,
            workload,
            concurrency=concurrency,
        )
        optimized = drive(
            TableDrivenScheduler(policy=policy),
            adt,
            table,
            workload,
            concurrency=concurrency,
        )
        assert optimized == reference, (
            f"{adt_name}/{policy}/seed={seed}: transcripts diverge"
        )


def _scanned_active(scheduler) -> set[int]:
    """The active set the slow way: every transaction ever begun."""
    active = set()
    txn = 0
    while True:
        try:
            transaction = scheduler.transaction(txn)
        except SchedulerError:
            return active
        if transaction.is_active:
            active.add(txn)
        txn += 1


def _assert_compacted_invariants(scheduler) -> None:
    active = _scanned_active(scheduler)
    assert scheduler.active_transactions() == active
    for name in scheduler.object_names():
        log = scheduler.object(name).log()
        # The low watermark: no resolved entry heads a log.
        assert not log or log[0].txn in active
    assert MonitoredScheduler(scheduler).check_invariants() == []


@pytest.mark.parametrize("adt_name", builtin_names())
@pytest.mark.parametrize("policy", ["optimistic", "blocking"])
def test_compacted_runs_keep_invariants(adt_name, policy):
    adt = make_adt(adt_name)
    table = _table(adt)
    for seed in SEEDS:
        workload, concurrency = _workload(adt, seed)
        scheduler = TableDrivenScheduler(policy=policy)
        drive(
            scheduler,
            adt,
            table,
            workload,
            concurrency=concurrency,
            checkpoint=lambda _, current: _assert_compacted_invariants(current),
        )
        _assert_compacted_invariants(scheduler)
        assert is_serializable(scheduler)
        shared = scheduler.object("obj")
        assert shared.log() == []
        assert shared.baseline == shared.state()


def test_optimizations_actually_engage():
    """The parity above must not be vacuous: on a contended commutative
    workload the scheduler serves shadow queries from the index, settles
    peers through the bitmask ND fast path and serves shadow transitions
    from the memo — while its misses still flow through the cache."""
    adt = make_adt("Account")
    table = _table(adt)
    workload = generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=8,
            operations_per_transaction=6,
            operation_mix={"Deposit": 1.0},
            seed=5,
        ),
    )
    scheduler = TableDrivenScheduler(policy="optimistic")
    drive(scheduler, adt, table, workload)
    assert scheduler.stats.shadow_replays_avoided > 0
    assert scheduler.stats.nd_fast_path_hits > 0
    assert scheduler.stats.shadow_full_replays < (
        scheduler.stats.shadow_full_replays
        + scheduler.stats.shadow_replays_avoided
    )
    # The shadow transition memo fronts the execution cache, so repeated
    # transitions show up there; first-seen transitions still miss into
    # the cache, keeping the ``execution_cache_*`` metrics live.
    assert scheduler.stats.compiled_memo_hits > 0
    cache = scheduler.execution_cache.stats()
    assert cache.misses > 0, "scheduler traffic must flow through the cache"


def test_preview_reuse_engages_under_blocking():
    adt = make_adt("Account")
    table = _table(adt)
    workload = generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=6,
            operations_per_transaction=5,
            operation_mix={"Deposit": 1.0},
            seed=9,
        ),
    )
    scheduler = TableDrivenScheduler(policy="blocking")
    drive(scheduler, adt, table, workload)
    assert scheduler.stats.preview_reuses > 0


def test_rebuild_fast_paths_preserves_parity():
    """The quarantine rung recompiles matrices and resets the peer index;
    decisions after mid-run rebuilds must match the reference.  Seed 5
    runs 35 decision points with aborts on both sides of each rebuild."""
    adt_name = "QStack"
    adt = make_adt(adt_name)
    table = _table(adt)
    workload, concurrency = _workload(adt, 5)

    rebuilds = []

    def checkpoint(index, scheduler):
        if index in (7, 20):
            scheduler.rebuild_fast_paths()
            rebuilds.append(index)
        return None

    rebuilt = drive(
        TableDrivenScheduler(policy="optimistic"),
        make_adt(adt_name),
        table,
        workload,
        concurrency=concurrency,
        checkpoint=checkpoint,
    )
    reference = drive(
        ReferenceScheduler(policy="optimistic"),
        make_adt(adt_name),
        table,
        workload,
        concurrency=concurrency,
    )
    assert rebuilds == [7, 20]
    assert rebuilt == reference
