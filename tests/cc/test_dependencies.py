"""Unit tests for the inter-transaction dependency graph."""

import pytest

from repro.cc.dependencies import DependencyGraph
from repro.core.dependency import Dependency
from repro.errors import DependencyCycleError


@pytest.fixture
def graph() -> DependencyGraph:
    return DependencyGraph()


class TestEdges:
    def test_nd_edges_ignored(self, graph):
        graph.add(1, 0, Dependency.ND)
        assert graph.dependency(1, 0) is Dependency.ND
        assert graph.edges() == {}

    def test_strongest_label_kept(self, graph):
        graph.add(1, 0, Dependency.CD)
        graph.add(1, 0, Dependency.AD)
        graph.add(1, 0, Dependency.CD)
        assert graph.dependency(1, 0) is Dependency.AD

    def test_self_dependency_rejected(self, graph):
        with pytest.raises(DependencyCycleError):
            graph.add(1, 1, Dependency.AD)

    def test_cycle_rejected(self, graph):
        graph.add(1, 0, Dependency.CD)
        with pytest.raises(DependencyCycleError):
            graph.add(0, 1, Dependency.CD)

    def test_transitive_cycle_rejected(self, graph):
        graph.add(1, 0, Dependency.CD)
        graph.add(2, 1, Dependency.CD)
        with pytest.raises(DependencyCycleError):
            graph.add(0, 2, Dependency.AD)


class TestQueries:
    def test_predecessors_and_dependents(self, graph):
        graph.add(2, 0, Dependency.AD)
        graph.add(2, 1, Dependency.CD)
        assert graph.predecessors(2) == {0: Dependency.AD, 1: Dependency.CD}
        assert graph.dependents(0) == {2: Dependency.AD}

    def test_abort_dependents_filters_cd(self, graph):
        graph.add(2, 0, Dependency.AD)
        graph.add(3, 0, Dependency.CD)
        assert graph.abort_dependents(0) == {2}


class TestCascade:
    def test_transitive_cascade(self, graph):
        graph.add(1, 0, Dependency.AD)
        graph.add(2, 1, Dependency.AD)
        graph.add(3, 2, Dependency.CD)  # CD does not cascade
        assert graph.abort_cascade([0]) == {1, 2}

    def test_cascade_excludes_roots(self, graph):
        graph.add(1, 0, Dependency.AD)
        assert 0 not in graph.abort_cascade([0])

    def test_cascade_of_independent_txn_is_empty(self, graph):
        graph.add(1, 0, Dependency.CD)
        assert graph.abort_cascade([0]) == set()

    def test_multiple_roots(self, graph):
        graph.add(2, 0, Dependency.AD)
        graph.add(3, 1, Dependency.AD)
        assert graph.abort_cascade([0, 1]) == {2, 3}
