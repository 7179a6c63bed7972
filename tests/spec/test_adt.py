"""Unit tests for ADT specifications and invocation execution."""

import pytest

from repro.adts.qstack import QStackSpec
from repro.errors import UnknownOperationError
from repro.spec.adt import EnumerationBounds, execute_invocation, render_state
from repro.spec.operation import Invocation


class TestEnumerationBounds:
    def test_defaults(self):
        bounds = EnumerationBounds()
        assert bounds.capacity == 3
        assert bounds.domain == ("a", "b")

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EnumerationBounds(capacity=0)

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            EnumerationBounds(domain=())


class TestADTSpecInterface:
    def test_operation_lookup(self, qstack_full):
        assert qstack_full.operation("Push").name == "Push"

    def test_unknown_operation_raises(self, qstack_full):
        with pytest.raises(UnknownOperationError):
            qstack_full.operation("Frobnicate")

    def test_operation_names_order(self, qstack_worked):
        assert qstack_worked.operation_names() == [
            "Push", "Pop", "Deq", "Top", "Size",
        ]

    def test_invocations_cross_product(self, qstack_worked):
        invocations = qstack_worked.invocations()
        # Push has one invocation per domain element; the rest are argless.
        assert Invocation("Push", ("a",)) in invocations
        assert Invocation("Push", ("b",)) in invocations
        assert Invocation("Size") in invocations
        assert len(invocations) == 2 + 4

    def test_invocations_of_single_operation(self, qstack_worked):
        assert qstack_worked.invocations_of("Pop") == [Invocation("Pop")]

    def test_state_list_size(self, qstack_full):
        # sum over lengths 0..3 of 2^k = 15
        assert len(qstack_full.state_list()) == 15

    def test_state_list_respects_tighter_bounds(self, qstack_full):
        bounds = EnumerationBounds(capacity=1, domain=("a",))
        assert set(qstack_full.state_list(bounds)) == {(), ("a",)}


class TestExecuteInvocation:
    def test_execution_record_fields(self, qstack_full):
        execution = execute_invocation(
            qstack_full, ("a",), Invocation("Push", ("b",))
        )
        assert execution.pre_state == ("a",)
        assert execution.post_state == ("a", "b")
        assert execution.returned.outcome == "ok"
        assert execution.trace.structure_modified
        assert execution.pre_simple_vertices == frozenset({(0,)})

    def test_identity_detection(self, qstack_full):
        execution = execute_invocation(qstack_full, ("a",), Invocation("Top"))
        assert execution.is_identity

    def test_executions_are_independent(self, qstack_full):
        invocation = Invocation("Push", ("a",))
        first = execute_invocation(qstack_full, (), invocation)
        second = execute_invocation(qstack_full, (), invocation)
        assert first.post_state == second.post_state == ("a",)

    def test_graph_state_round_trip(self, qstack_full):
        for state in qstack_full.state_list():
            graph = qstack_full.build_graph(state)
            assert qstack_full.abstract_state(graph) == state


class TestRenderState:
    def test_equal_sets_render_equal_whatever_the_build_order(self):
        # 8 and 16 share a hash slot, so insertion order decides iteration.
        first, second = frozenset([8, 16]), frozenset([16, 8])
        assert first == second and repr(first) != repr(second)
        assert render_state(first) == render_state(second) == "frozenset({8, 16})"

    def test_nested_and_plain_states_render_as_repr(self):
        assert render_state((frozenset([16, 8]),)) == "(frozenset({8, 16}),)"
        assert render_state(("a", 1)) == repr(("a", 1))
        assert render_state(()) == "()"
        assert render_state(frozenset()) == "frozenset()"
        assert render_state(5) == "5"
