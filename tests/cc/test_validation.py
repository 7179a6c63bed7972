"""Tests for the commit-time validation scheduler (intentions lists)."""

import pytest

from repro.adts.account import AccountSpec
from repro.adts.qstack import QStackSpec
from repro.cc.validation import ValidationScheduler
from repro.core.methodology import derive
from repro.errors import SchedulerError, TransactionStateError
from repro.experiments import golden
from repro.perf.cache import ExecutionCache
from repro.spec.operation import Invocation
from repro.spec.returnvalue import ok

DEPOSIT = Invocation("Deposit", (1,))
WITHDRAW = Invocation("Withdraw", (1,))


@pytest.fixture(scope="module")
def qstack():
    return QStackSpec(operations=golden.QSTACK_WORKED_OPERATIONS)


@pytest.fixture(scope="module")
def qstack_table(qstack):
    return derive(qstack).final_table


def make_scheduler(qstack, table, state=("a", "b")):
    scheduler = ValidationScheduler()
    scheduler.register_object("qs", qstack, table, initial_state=state)
    return scheduler


class TestDeferredExecution:
    def test_intentions_invisible_to_others(self, qstack, qstack_table):
        scheduler = make_scheduler(qstack, qstack_table)
        t1, t2 = scheduler.begin(), scheduler.begin()
        scheduler.request(t1, "qs", Invocation("Push", ("c",)))
        # t2 sees only the committed state.
        returned = scheduler.request(t2, "qs", Invocation("Top"))
        assert returned.result == "b"
        assert scheduler.object("qs").state() == ("a", "b")

    def test_own_intentions_visible(self, qstack, qstack_table):
        scheduler = make_scheduler(qstack, qstack_table)
        t1 = scheduler.begin()
        scheduler.request(t1, "qs", Invocation("Push", ("c",)))
        returned = scheduler.request(t1, "qs", Invocation("Top"))
        assert returned.result == "c"

    def test_requests_never_block(self, qstack, qstack_table):
        scheduler = make_scheduler(qstack, qstack_table)
        transactions = [scheduler.begin() for _ in range(4)]
        for txn in transactions:
            returned = scheduler.request(txn, "qs", Invocation("Pop"))
            assert returned.result == "b"  # everyone reads the same snapshot


class TestValidation:
    def test_first_committer_wins(self, qstack, qstack_table):
        scheduler = make_scheduler(qstack, qstack_table)
        t1, t2 = scheduler.begin(), scheduler.begin()
        scheduler.request(t1, "qs", Invocation("Pop"))
        scheduler.request(t2, "qs", Invocation("Pop"))
        assert scheduler.try_commit(t1)
        assert not scheduler.try_commit(t2)  # its Pop:'b' is stale
        assert scheduler.status(t2) == "aborted"
        assert scheduler.object("qs").state() == ("a",)

    def test_non_conflicting_transactions_all_commit(self, qstack, qstack_table):
        scheduler = make_scheduler(qstack, qstack_table)
        t1, t2 = scheduler.begin(), scheduler.begin()
        scheduler.request(t1, "qs", Invocation("Push", ("c",)))
        scheduler.request(t2, "qs", Invocation("Deq"))
        assert scheduler.try_commit(t1)
        assert scheduler.try_commit(t2)  # Deq'd the front: still 'a'
        assert scheduler.object("qs").state() == ("b", "c")

    def test_observers_validate_against_unchanged_state(self, qstack, qstack_table):
        scheduler = make_scheduler(qstack, qstack_table)
        t1, t2 = scheduler.begin(), scheduler.begin()
        scheduler.request(t1, "qs", Invocation("Size"))
        scheduler.request(t2, "qs", Invocation("Top"))
        assert scheduler.try_commit(t2)
        assert scheduler.try_commit(t1)

    def test_table_skips_validation_for_nd_pairs(self):
        adt = AccountSpec()
        scheduler = ValidationScheduler()
        scheduler.register_object(
            "acct", adt, derive(adt).final_table, initial_state=1
        )
        t1, t2 = scheduler.begin(), scheduler.begin()
        scheduler.request(t1, "acct", Invocation("Deposit", (1,)))
        scheduler.request(t2, "acct", Invocation("Deposit", (2,)))
        assert scheduler.try_commit(t1)
        assert scheduler.try_commit(t2)
        # Deposit/Deposit is unconditionally ND: the second commit is
        # certified by the table, not re-executed.
        assert scheduler.stats.validations_skipped_by_table >= 1
        assert scheduler.object("acct").state() == 4

    def test_no_recent_commits_skips_validation(self, qstack, qstack_table):
        scheduler = make_scheduler(qstack, qstack_table)
        t1 = scheduler.begin()
        scheduler.request(t1, "qs", Invocation("Pop"))
        assert scheduler.try_commit(t1)
        assert scheduler.stats.validations_skipped_by_table == 1


def account_scheduler(execution_cache=None) -> ValidationScheduler:
    adt = AccountSpec(max_balance=100)
    scheduler = ValidationScheduler(execution_cache=execution_cache)
    scheduler.register_object("acct", adt, derive(adt).final_table)
    return scheduler


class TestValidationRaces:
    def test_racing_commit_rejects_the_stale_withdrawal(self):
        scheduler = account_scheduler()
        t0 = scheduler.begin()
        assert scheduler.request(t0, "acct", DEPOSIT) == ok()
        assert scheduler.try_commit(t0)
        t1, t2 = scheduler.begin(), scheduler.begin()
        # Both provisionally withdraw the unit t0 committed.
        assert scheduler.request(t1, "acct", WITHDRAW) == ok()
        assert scheduler.request(t2, "acct", WITHDRAW) == ok()
        # t2 drains the account first; t1's observed ok() is now stale.
        assert scheduler.try_commit(t2)
        assert not scheduler.try_commit(t1)
        assert scheduler.status(t1) == "aborted"
        assert scheduler.stats.validation_aborts == 1
        assert scheduler.object("acct").state() == 0

    def test_validation_is_exact_under_a_tiny_cache(self):
        def run(cache):
            scheduler = account_scheduler(cache)
            txns = [scheduler.begin() for _ in range(6)]
            for txn in txns:
                for invocation in (DEPOSIT, WITHDRAW, DEPOSIT):
                    scheduler.request(txn, "acct", invocation)
            committed = [scheduler.try_commit(txn) for txn in txns]
            return committed, scheduler.object("acct").state()

        tiny, roomy = ExecutionCache(maxsize=2), ExecutionCache(maxsize=4096)
        tiny_result, roomy_result = run(tiny), run(roomy)
        # The growing committed state makes every validation replay hit
        # fresh (state, invocation) keys: a 2-entry cache must thrash.
        assert tiny.evictions > 0
        assert tiny_result == roomy_result == ([True] * 6, 6)

    def test_chaos_eviction_mid_validation_never_changes_results(self):
        cache = ExecutionCache(maxsize=64)
        scheduler = account_scheduler(cache)
        outcomes = []
        for _ in range(8):
            txn = scheduler.begin()
            assert scheduler.request(txn, "acct", DEPOSIT) == ok()
            assert scheduler.request(txn, "acct", WITHDRAW) == ok()
            assert cache.chaos_evict(count=3) >= 0
            outcomes.append(scheduler.try_commit(txn))
        assert outcomes == [True] * 8
        assert scheduler.object("acct").state() == 0


class TestLifecycle:
    def test_abort_discards_everything(self, qstack, qstack_table):
        scheduler = make_scheduler(qstack, qstack_table)
        t1 = scheduler.begin()
        scheduler.request(t1, "qs", Invocation("Push", ("c",)))
        scheduler.abort(t1)
        assert scheduler.status(t1) == "aborted"
        assert scheduler.object("qs").state() == ("a", "b")

    def test_terminal_transactions_rejected(self, qstack, qstack_table):
        scheduler = make_scheduler(qstack, qstack_table)
        t1 = scheduler.begin()
        scheduler.try_commit(t1)
        with pytest.raises(TransactionStateError):
            scheduler.request(t1, "qs", Invocation("Top"))

    def test_unknown_object_rejected(self, qstack, qstack_table):
        scheduler = make_scheduler(qstack, qstack_table)
        t1 = scheduler.begin()
        with pytest.raises(SchedulerError):
            scheduler.request(t1, "nope", Invocation("Top"))

    def test_duplicate_registration_rejected(self, qstack, qstack_table):
        scheduler = make_scheduler(qstack, qstack_table)
        with pytest.raises(SchedulerError):
            scheduler.register_object("qs", qstack, qstack_table)


class TestSerializability:
    def test_committed_serial_in_commit_order(self, qstack, qstack_table):
        """Every committed transaction's observations replay in commit order
        — the structural guarantee of commit-time application."""
        import random

        rng = random.Random(7)
        scheduler = make_scheduler(qstack, qstack_table, state=("a", "b"))
        invocations = qstack.invocations()
        log: list[tuple[int, Invocation, object]] = []
        active: dict[int, list] = {}
        for step in range(60):
            if active and rng.random() < 0.4:
                txn = rng.choice(list(active))
                if scheduler.try_commit(txn):
                    log.extend(active[txn])
                del active[txn]
            else:
                txn = scheduler.begin()
                ops = []
                for _ in range(rng.randint(1, 3)):
                    invocation = rng.choice(invocations)
                    returned = scheduler.request(txn, "qs", invocation)
                    ops.append((txn, invocation, returned))
                active[txn] = ops
        for txn in list(active):
            if scheduler.try_commit(txn):
                log.extend(active[txn])
        # Replay the committed log serially from the initial state.
        from repro.spec.adt import execute_invocation

        state = ("a", "b")
        for _, invocation, returned in log:
            execution = execute_invocation(qstack, state, invocation)
            assert execution.returned == returned
            state = execution.post_state
        assert state == scheduler.object("qs").state()
