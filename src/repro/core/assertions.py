"""Executable forms of the paper's Assertions 1-3 (Section 4.3).

The assertions relate *per-state* locality intersections of two operations
to dependency formation, commutativity and recoverability:

* **Assertion 1** — the six intersections whose Table-2 entries are
  non-ND are all empty ⇒ no dependency forms.
* **Assertion 2** — the operations commute iff every same-dimension
  intersection involving at least one modifier is empty.
* **Assertion 3** — ``y`` is recoverable relative to ``x`` iff every such
  non-empty intersection lands on an ND or CD entry of Table 2 (i.e. no
  AD-producing intersection exists).

These are *locality-based* predicates; experiment X3 cross-validates them
against the direct state-machine definitions of commutativity and
recoverability from :mod:`repro.semantics`.
"""

from __future__ import annotations

from operator import attrgetter

from repro.core.dependency import Dependency
from repro.core.templates import TABLE2, table2_entry
from repro.graph.instrument import LocalityTrace

__all__ = [
    "assertion1_no_dependency",
    "assertion2_commute",
    "assertion3_recoverable",
    "locality_dependency",
]

#: The (y_kind, x_kind) combinations quantified over by Assertions 1-3:
#: all same-dimension pairs involving at least one modifier — exactly the
#: six non-ND cells of Table 2.
#:
#: Note on Assertion 1 as printed: the paper lists ``L_x^cm ∩ L_y^sm`` as
#: its third term, which is an ND cell of Table 2 (structure-modification
#: never conflicts with content-modification) and would wrongly flag the
#: paper's own Replace/XTop commuting example.  Matching the six non-ND
#: cells of Table 2 — and the paper's corollary that structure-restricted
#: and content-restricted operations never conflict — requires
#: ``L_x^cm ∩ L_y^cm`` instead; that reading is implemented here and the
#: discrepancy is recorded in EXPERIMENTS.md.
_MODIFYING_PAIRS = tuple(
    pair for pair, dep in TABLE2.items() if dep is not Dependency.ND
)

_ASSERTION1_PAIRS = _MODIFYING_PAIRS


def _intersects(trace_y: LocalityTrace, y_kind: str, trace_x: LocalityTrace,
                x_kind: str) -> bool:
    return bool(trace_y.kind(y_kind) & trace_x.kind(x_kind))


def assertion1_no_dependency(trace_x: LocalityTrace, trace_y: LocalityTrace) -> bool:
    """Assertion 1: the listed intersections are all empty ⇒ no dependency.

    Note the corollary the paper draws: "operations restricted to the
    structure of an object do not form dependencies with operations
    restricted to the content of the object".
    """
    return not any(
        _intersects(trace_y, y_kind, trace_x, x_kind)
        for (y_kind, x_kind) in _ASSERTION1_PAIRS
    )


def assertion2_commute(trace_x: LocalityTrace, trace_y: LocalityTrace) -> bool:
    """Assertion 2: ``x`` and ``y`` commute iff every same-dimension
    modifier-involving locality intersection is empty."""
    return not any(
        _intersects(trace_y, y_kind, trace_x, x_kind)
        for (y_kind, x_kind) in _MODIFYING_PAIRS
    )


def assertion3_recoverable(trace_x: LocalityTrace, trace_y: LocalityTrace) -> bool:
    """Assertion 3: ``y`` recoverable relative to ``x`` iff every non-empty
    modifier-involving intersection maps to ND or CD in Table 2."""
    for (y_kind, x_kind) in _MODIFYING_PAIRS:
        if _intersects(trace_y, y_kind, trace_x, x_kind):
            if table2_entry(y_kind, x_kind) is Dependency.AD:
                return False
    return True


#: Table 2's non-ND cells as ``(dependency, y-set getter, x-set getter)``,
#: AD cells before CD cells, so the first intersecting cell is the verdict.
_CELLS_STRONGEST_FIRST = tuple(
    (
        TABLE2[y_kind, x_kind],
        attrgetter(LocalityTrace.KIND_ATTRIBUTES[y_kind]),
        attrgetter(LocalityTrace.KIND_ATTRIBUTES[x_kind]),
    )
    for y_kind, x_kind in sorted(_MODIFYING_PAIRS, key=TABLE2.get, reverse=True)
)


def locality_dependency(
    trace_x: LocalityTrace, trace_y: LocalityTrace
) -> Dependency:
    """Strongest Table-2 dependency induced by the actual intersections.

    The "most general case" of Section 4.3: two operations conflict if the
    intersection of their localities is non-empty; the dependency formed is
    read off Table 2 per intersecting kind pair, strongest first.
    """
    for dependency, y_set, x_set in _CELLS_STRONGEST_FIRST:
        if not y_set(trace_y).isdisjoint(x_set(trace_x)):
            return dependency
    return Dependency.ND
