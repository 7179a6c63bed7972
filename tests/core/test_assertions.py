"""Unit tests for the executable Assertions 1-3 (Section 4.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adts.qstack import QStackSpec
from repro.core.assertions import (
    assertion1_no_dependency,
    assertion2_commute,
    assertion3_recoverable,
    locality_dependency,
)
from repro.core.dependency import Dependency
from repro.core.templates import TABLE2
from repro.graph.instrument import LocalityTrace
from repro.spec.adt import execute_invocation
from repro.spec.operation import Invocation


@pytest.fixture(scope="module")
def qstack() -> QStackSpec:
    return QStackSpec()


def traces(qstack, state, first, second):
    return (
        execute_invocation(qstack, state, first).trace,
        execute_invocation(qstack, state, second).trace,
    )


class TestAssertion1:
    def test_disjoint_localities_no_dependency(self, qstack):
        x, y = traces(
            qstack,
            ("a", "b", "a"),
            Invocation("Replace", ("a", "b")),
            Invocation("XTop"),
        )
        # Replace is content-restricted, XTop structure-restricted: the
        # paper's separation corollary (with the corrected third term).
        assert assertion1_no_dependency(x, y)

    def test_intersecting_modifications_flagged(self, qstack):
        x, y = traces(qstack, ("a", "b"), Invocation("Pop"), Invocation("Pop"))
        assert not assertion1_no_dependency(x, y)

    def test_empty_traces_trivially_separate(self):
        assert assertion1_no_dependency(LocalityTrace(), LocalityTrace())


class TestAssertion2:
    def test_observers_commute(self, qstack):
        x, y = traces(qstack, ("a",), Invocation("Top"), Invocation("Size"))
        assert assertion2_commute(x, y)

    def test_modifier_vs_observer_on_same_vertex(self, qstack):
        x, y = traces(qstack, ("a",), Invocation("Pop"), Invocation("Top"))
        assert not assertion2_commute(x, y)

    def test_structure_content_separation_commutes(self, qstack):
        x, y = traces(
            qstack,
            ("a", "b", "b"),
            Invocation("XTop"),
            Invocation("Replace", ("b", "a")),
        )
        assert assertion2_commute(x, y)


class TestAssertion3:
    def test_observer_then_modifier_is_recoverable(self, qstack):
        # y = Pop after x = Size: Pop's modifications intersect Size's
        # observations -> CD cells only -> recoverable.
        x, y = traces(qstack, ("a",), Invocation("Size"), Invocation("Pop"))
        assert assertion3_recoverable(x, y)

    def test_modifier_then_observer_not_recoverable(self, qstack):
        # y = Size after x = Pop: Size observes what Pop modified -> AD.
        x, y = traces(qstack, ("a",), Invocation("Pop"), Invocation("Size"))
        assert not assertion3_recoverable(x, y)

    def test_commuting_pair_is_recoverable(self, qstack):
        x, y = traces(qstack, ("a",), Invocation("Top"), Invocation("Top"))
        assert assertion3_recoverable(x, y)


class TestLocalityDependency:
    def test_strongest_intersection_wins(self, qstack):
        x, y = traces(qstack, ("a",), Invocation("Pop"), Invocation("Top"))
        assert locality_dependency(x, y) is Dependency.AD

    def test_commit_dependency_case(self, qstack):
        x, y = traces(qstack, ("a",), Invocation("Size"), Invocation("Pop"))
        assert locality_dependency(x, y) is Dependency.CD

    def test_no_intersection_is_nd(self, qstack):
        x, y = traces(
            qstack,
            ("a", "b"),
            Invocation("Replace", ("a", "b")),
            Invocation("XTop"),
        )
        assert locality_dependency(x, y) is Dependency.ND


#: Locality kind -> trace attribute, spelled out independently of the
#: class-level map the implementation reads.
KIND_SETS = {
    "so": lambda trace: trace.structure_observed,
    "sm": lambda trace: trace.structure_modified,
    "co": lambda trace: trace.content_observed,
    "cm": lambda trace: trace.content_modified,
}

vertex_sets = st.sets(st.integers(min_value=0, max_value=3), max_size=4)
locality_traces = st.builds(
    LocalityTrace,
    structure_observed=vertex_sets,
    structure_modified=vertex_sets,
    content_observed=vertex_sets,
    content_modified=vertex_sets,
)


def brute_force_dependency(trace_x, trace_y):
    """Max over all 16 Table-2 cells whose intersection is non-empty."""
    return max(
        (
            dependency
            for (y_kind, x_kind), dependency in TABLE2.items()
            if KIND_SETS[y_kind](trace_y) & KIND_SETS[x_kind](trace_x)
        ),
        default=Dependency.ND,
    )


class TestLocalityDependencyOracle:
    @given(locality_traces, locality_traces)
    @settings(max_examples=400, deadline=None)
    def test_early_exit_matches_all_sixteen_cells(self, trace_x, trace_y):
        assert locality_dependency(trace_x, trace_y) is brute_force_dependency(
            trace_x, trace_y
        )

    def test_table2_has_sixteen_cells(self):
        assert len(TABLE2) == 16
