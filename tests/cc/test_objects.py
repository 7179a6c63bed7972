"""Unit tests for shared objects and replay recovery."""

import pytest

from repro.adts.account import AccountSpec
from repro.adts.qstack import QStackSpec
from repro.cc.objects import SharedObject
from repro.perf.cache import execution_cache
from repro.spec.adt import execute_invocation
from repro.spec.operation import Invocation
from repro.spec.returnvalue import ok

DEPOSIT = Invocation("Deposit", (1,))
WITHDRAW = Invocation("Withdraw", (1,))


@pytest.fixture
def shared() -> SharedObject:
    return SharedObject("qs", QStackSpec(), initial_state=("a",))


class TestExecution:
    def test_execute_mutates_live_state(self, shared):
        applied = shared.execute(0, Invocation("Push", ("b",)))
        assert applied.returned.outcome == "ok"
        assert shared.state() == ("a", "b")

    def test_log_in_execution_order(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(1, Invocation("Pop"))
        assert [entry.txn for entry in shared.log()] == [0, 1]

    def test_active_writers(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(1, Invocation("Pop"))
        assert shared.active_writers(exclude=0) == {1}

    def test_preview_does_not_change_state(self, shared):
        returned = shared.preview(Invocation("Pop"))
        assert returned.result == "a"
        assert shared.state() == ("a",)
        assert shared.log() == []


class TestReplayRecovery:
    def test_removing_sole_writer_restores_initial_state(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        invalidated = shared.remove_transactions({0})
        assert invalidated == set()
        assert shared.state() == ("a",)

    def test_surviving_commuting_operation_keeps_return(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))  # back
        shared.execute(1, Invocation("Deq"))  # front: 'a'
        invalidated = shared.remove_transactions({0})
        assert invalidated == set()
        assert shared.state() == ()  # only the Deq survives: 'a' removed

    def test_invalidated_survivor_reported(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(1, Invocation("Pop"))  # observed 'b' (txn 0's push)
        invalidated = shared.remove_transactions({0})
        assert invalidated == {1}

    def test_removing_multiple_transactions(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(1, Invocation("Push", ("a",)))
        shared.remove_transactions({0, 1})
        assert shared.state() == ("a",)
        assert shared.log() == []

    def test_initial_state_property(self, shared):
        assert shared.initial_state == ("a",)


def undo_chain(depth: int) -> SharedObject:
    """txn 0 deposits one unit; each later txn withdraws and redeposits it."""
    shared = SharedObject("acct", AccountSpec(max_balance=100))
    shared.execute(0, DEPOSIT)
    for txn in range(1, depth + 1):
        assert shared.execute(txn, WITHDRAW).returned == ok()
        shared.execute(txn, DEPOSIT)
    return shared


class TestUndoCascades:
    def test_undo_invalidates_one_link_per_round(self):
        shared = undo_chain(depth=6)
        # The invalidated survivor's operations stay in the log until it
        # is itself removed, so the chain peels strictly one link at a
        # time — the shape that made the scheduler's old recursive
        # cascade O(depth) frames deep.
        assert shared.remove_transactions({0}) == {1}

    def test_iterated_undo_converges_and_restores_state(self):
        depth = 10
        shared = undo_chain(depth)
        invalidated = shared.remove_transactions({0})
        rounds = 0
        while invalidated:
            assert len(invalidated) == 1
            invalidated = shared.remove_transactions(invalidated)
            rounds += 1
        assert rounds == depth
        assert shared.state() == 0
        assert shared.log() == []

    def test_undo_of_independent_txns_invalidates_nothing(self):
        shared = SharedObject("acct", AccountSpec(max_balance=100))
        for txn in (0, 1, 2):
            shared.execute(txn, DEPOSIT)
        assert shared.remove_transactions({1}) == set()
        assert shared.state() == 2

    def test_replay_is_independent_of_cache_pressure(self):
        def run(maxsize):
            with execution_cache(maxsize=maxsize) as cache:
                shared = undo_chain(depth=6)
                rounds = []
                invalidated = shared.remove_transactions({0})
                while invalidated:
                    rounds.append(sorted(invalidated))
                    # Cross-check the rebuilt state against a replay of
                    # the surviving log through the installed cache, then
                    # evict mid-cascade.
                    state = shared.initial_state
                    for entry in shared.log():
                        state = execute_invocation(
                            shared.adt, state, entry.invocation
                        ).post_state
                    assert state == shared.state()
                    cache.chaos_evict(count=3)
                    invalidated = shared.remove_transactions(invalidated)
                return rounds, shared.state(), cache.evictions

        tiny_rounds, tiny_state, tiny_evictions = run(2)
        roomy_rounds, roomy_state, _ = run(4096)
        # A 2-entry cache must thrash on the cross-check replays; replay
        # recovery itself never reads the cache, so nothing changes.
        assert tiny_evictions > 0
        assert tiny_rounds == roomy_rounds == [[t] for t in range(1, 7)]
        assert tiny_state == roomy_state == 0


class TestCompact:
    def test_full_fold_rebases_baseline(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.compact(lambda txn: False)
        assert shared.log() == []
        assert shared.baseline == ("a", "b")
        assert shared.state() == ("a", "b")

    def test_prefix_fold_keeps_active_suffix(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(1, Invocation("Push", ("a",)))
        shared.compact(lambda txn: txn == 1)
        # txn 0's entry preceded every active entry: folded into the
        # baseline; txn 1's entry remains.
        assert [entry.txn for entry in shared.log()] == [1]
        assert shared.baseline == ("a", "b")
        assert shared.state() == ("a", "b", "a")

    def test_interleaved_resolved_entries_kept(self, shared):
        shared.execute(1, Invocation("Push", ("a",)))
        shared.execute(0, Invocation("Push", ("b",)))
        shared.compact(lambda txn: txn == 1)
        # txn 0 executed after the active txn 1: both entries must stay
        # so that undoing txn 1 still replays correctly.
        assert [entry.txn for entry in shared.log()] == [1, 0]
        assert shared.baseline == ("a",)

    def test_abort_after_compaction_replays_from_baseline(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(0, Invocation("Deq"))
        shared.execute(1, Invocation("Push", ("c",)))
        shared.execute(2, Invocation("Push", ("d",)))
        shared.compact(lambda txn: txn == 1)
        assert [entry.txn for entry in shared.log()] == [1, 2]
        assert shared.baseline == ("b",)
        assert shared.remove_transactions({1}) == set()
        # Replay starts from the baseline: txn 0's folded work survives.
        assert shared.state() == ("b", "d")
        assert [entry.txn for entry in shared.log()] == [2]

    def test_initial_state_unchanged(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(1, Invocation("Push", ("c",)))
        shared.compact(lambda txn: txn == 1)
        shared.compact(lambda txn: False)
        assert shared.baseline == ("a", "b", "c")
        assert shared.initial_state == ("a",)

    def test_nothing_resolved_is_a_no_op(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.compact(lambda txn: True)
        assert len(shared.log()) == 1
        assert shared.baseline == ("a",)
