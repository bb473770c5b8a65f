"""Unit tests for size-change graphs, their closure, and SCT termination."""

import pytest

from repro.lang import load_program
from repro.sizechange.closure import (
    IncrementalClosure,
    check_global_condition,
    closure_of,
    find_violation,
)
from repro.sizechange.graph import DECREASE, NO_DECREASE, SizeChangeGraph, identity_graph
from repro.sizechange.termination import call_graphs_of, sct_terminates


def graph(source, target, edges):
    return SizeChangeGraph.make(source, target, edges)


def subsumes(small, large):
    """``small ⊑ large``: same endpoints, and every edge of ``small`` is in
    ``large`` with a label at least as strong."""
    if (small.source, small.target) != (large.source, large.target):
        return False
    return all(
        (x, y, True) in large.edges or (not dec and (x, y, False) in large.edges)
        for x, y, dec in small.edges
    )


def minimal_graphs(graphs):
    """The ⊑-minimal members of ``graphs``."""
    return {g for g in graphs if not any(h != g and subsumes(h, g) for h in graphs)}


class TestGraphBasics:
    def test_make_normalises_duplicate_edges(self):
        g = graph(0, 1, [("x", "y", NO_DECREASE), ("x", "y", DECREASE)])
        assert len(g.edges) == 1
        assert g.has_decreasing_edge("x", "y")

    def test_identity_graph(self):
        g = identity_graph(0, 0, ["x", "y"])
        assert g.has_edge("x", "x") and g.has_edge("y", "y")
        assert not g.has_decreasing_self_edge()

    def test_sources_and_targets(self):
        g = graph(0, 1, [("x", "a", DECREASE), ("y", "b", NO_DECREASE)])
        assert g.sources() == ("x", "y")
        assert g.targets() == ("a", "b")


class TestComposition:
    def test_compose_follows_shared_variables(self):
        g1 = graph(0, 1, [("x", "y", NO_DECREASE)])
        g2 = graph(1, 2, [("y", "z", DECREASE)])
        composed = g1.compose(g2)
        assert composed.source == 0 and composed.target == 2
        assert composed.has_decreasing_edge("x", "z")

    def test_compose_drops_unconnected_edges(self):
        g1 = graph(0, 1, [("x", "y", DECREASE)])
        g2 = graph(1, 2, [("w", "z", DECREASE)])
        assert g1.compose(g2).edges == frozenset()

    def test_compose_requires_matching_endpoints(self):
        g1 = graph(0, 1, [("x", "y", NO_DECREASE)])
        g2 = graph(2, 3, [("y", "z", NO_DECREASE)])
        with pytest.raises(ValueError):
            g1.compose(g2)

    def test_composition_is_associative(self):
        g1 = graph(0, 1, [("x", "y", NO_DECREASE), ("x", "w", DECREASE)])
        g2 = graph(1, 2, [("y", "z", DECREASE), ("w", "z", NO_DECREASE)])
        g3 = graph(2, 0, [("z", "x", NO_DECREASE)])
        assert g1.compose(g2).compose(g3) == g1.compose(g2.compose(g3))

    def test_identity_is_neutral(self):
        g = graph(0, 1, [("x", "y", DECREASE), ("z", "y", NO_DECREASE)])
        left_identity = identity_graph(0, 0, ["x", "z"])
        right_identity = identity_graph(1, 1, ["y"])
        assert left_identity.compose(g) == g
        assert g.compose(right_identity) == g

    def test_idempotence_detection(self):
        good = graph(0, 0, [("x", "x", DECREASE)])
        assert good.is_idempotent()
        not_idempotent = graph(0, 0, [("x", "y", NO_DECREASE)])
        assert not not_idempotent.is_idempotent()


class TestClosure:
    def test_closure_contains_compositions(self):
        g1 = graph(0, 1, [("x", "y", NO_DECREASE)])
        g2 = graph(1, 0, [("y", "x", DECREASE)])
        closure = closure_of([g1, g2])
        assert any(g.source == 0 and g.target == 0 and g.has_decreasing_self_edge() for g in closure)

    def test_sound_cycle_passes_global_condition(self):
        g1 = graph(0, 1, [("x", "x1", DECREASE), ("y", "y", NO_DECREASE)])
        g2 = graph(1, 0, [("x1", "x", NO_DECREASE), ("y", "y", NO_DECREASE)])
        assert check_global_condition([g1, g2])

    def test_unsound_cycle_detected(self):
        # A cycle whose only self graph has no decreasing self edge (Example 3.2).
        g = graph(0, 0, [("x", "x", NO_DECREASE)])
        assert not check_global_condition([g])
        assert find_violation(closure_of([g])) is not None

    def test_cycle_with_unrelated_decrease_is_unsound(self):
        # The decrease is on a variable that does not flow back to itself.
        g = graph(0, 0, [("x", "y", DECREASE), ("y", "x", NO_DECREASE), ("x", "x", NO_DECREASE)])
        # Composing g with itself yields x ≲ x eventually; check the machinery agrees
        # with a direct closure computation either way.
        assert check_global_condition([g]) == (find_violation(closure_of([g])) is None)


class TestIncrementalClosure:
    def test_incremental_matches_from_scratch(self):
        graphs = [
            graph(0, 1, [("x", "x1", DECREASE), ("y", "y", NO_DECREASE)]),
            graph(1, 2, [("x1", "x2", NO_DECREASE), ("y", "y", NO_DECREASE)]),
            graph(2, 0, [("x2", "x", NO_DECREASE), ("y", "y", NO_DECREASE)]),
        ]
        incremental = IncrementalClosure()
        for g in graphs:
            result = incremental.add(g)
            assert result.violation is None
        # The incremental closure keeps exactly the subsumption-minimal
        # graphs of the from-scratch closure.
        full = closure_of(graphs)
        kept = set(incremental.graphs())
        assert kept <= full
        assert kept == minimal_graphs(full)
        assert all(any(subsumes(k, g) for k in kept) for g in full)

    def test_violation_reported_when_cycle_closes(self):
        incremental = IncrementalClosure()
        assert incremental.add(graph(0, 1, [("x", "y", NO_DECREASE)])).sound
        result = incremental.add(graph(1, 0, [("y", "x", NO_DECREASE)]))
        assert result.violation is not None
        assert not incremental.is_sound()

    def test_undo_restores_previous_state(self):
        incremental = IncrementalClosure()
        first = incremental.add(graph(0, 1, [("x", "y", DECREASE)]))
        before = set(incremental.graphs())
        second = incremental.add(graph(1, 0, [("y", "x", NO_DECREASE)]))
        incremental.remove(second.added)
        assert set(incremental.graphs()) == before
        assert incremental.is_sound()

    def test_smaller_graph_evicts_and_undo_restores(self):
        incremental = IncrementalClosure()
        large = graph(0, 1, [("x", "y", NO_DECREASE), ("x", "z", NO_DECREASE)])
        small = graph(0, 1, [("x", "y", NO_DECREASE)])
        incremental.add(large)
        result = incremental.add(small)
        assert result.added == (small,)
        assert set(incremental.graphs()) == {small}
        incremental.remove(result.added)
        assert set(incremental.graphs()) == {large}

    def test_subsumed_graph_is_not_kept(self):
        incremental = IncrementalClosure()
        small = graph(0, 1, [("x", "y", NO_DECREASE)])
        incremental.add(small)
        result = incremental.add(graph(0, 1, [("x", "y", DECREASE), ("x", "z", NO_DECREASE)]))
        assert result.added == ()
        assert set(incremental.graphs()) == {small}

    def test_graph_evicted_by_its_own_addition_is_not_restored(self):
        # The edge graph is kept first, then evicted by its composition with
        # the identity-like self graph at vertex 1, all within one add.
        incremental = IncrementalClosure()
        loop = graph(1, 1, [("y", "y", NO_DECREASE)])
        incremental.add(loop)
        edge = graph(0, 1, [("x", "y", NO_DECREASE), ("x", "z", NO_DECREASE)])
        result = incremental.add(edge)
        composed = graph(0, 1, [("x", "y", NO_DECREASE)])
        assert result.added == (composed,)
        assert edge not in incremental
        incremental.remove(result.added)
        assert set(incremental.graphs()) == {loop}

    def test_violation_found_through_idempotent_power_of_kept_graph(self):
        # P is not idempotent and has no decreasing self edge; its square is
        # idempotent (the full closure's violator) but P subsumes it, so the
        # square is never kept.  The check must look at P^ω, not only at the
        # idempotent graphs it keeps.
        p = graph(0, 0, [("x", "y", NO_DECREASE), ("y", "x", NO_DECREASE), ("y", "y", NO_DECREASE)])
        assert not p.is_idempotent()
        assert find_violation(closure_of([p])) is not None
        incremental = IncrementalClosure()
        result = incremental.add(p)
        assert set(incremental.graphs()) == {p}
        assert result.violation is not None
        assert result.violation.is_idempotent()
        assert not result.violation.has_decreasing_self_edge()
        assert result.violation in closure_of([p])

    def test_remove_must_undo_the_latest_add(self):
        incremental = IncrementalClosure()
        first = incremental.add(graph(0, 1, [("x", "y", NO_DECREASE)]))
        incremental.add(graph(1, 2, [("y", "z", NO_DECREASE)]))
        with pytest.raises(ValueError):
            incremental.remove(first.added)

    def test_duplicate_addition_is_noop(self):
        incremental = IncrementalClosure()
        g = graph(0, 1, [("x", "y", NO_DECREASE)])
        incremental.add(g)
        result = incremental.add(g)
        assert result.added == ()


TERMINATING_SOURCE = """
data Nat = Z | S Nat
data List a = Nil | Cons a (List a)

add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)

ackermann :: Nat -> Nat -> Nat
ackermann Z y = S y
ackermann (S x) Z = ackermann x (S Z)
ackermann (S x) (S y) = ackermann x (ackermann (S x) y)

interleave :: List a -> List a -> List a
interleave Nil ys = ys
interleave (Cons x xs) ys = Cons x (interleave ys xs)
"""

LOOPING_SOURCE = """
data Nat = Z | S Nat
spin :: Nat -> Nat
spin x = spin x
grow :: Nat -> Nat
grow Z = Z
grow (S x) = grow (S (S x))
"""


class TestSizeChangeTermination:
    def test_structural_recursion_passes(self, nat_program, list_program):
        assert sct_terminates(nat_program.rules)
        assert sct_terminates(list_program.rules)

    def test_benchmark_prelude_passes(self, isaplanner):
        assert sct_terminates(isaplanner.rules)

    def test_ackermann_and_swapping_arguments_pass(self):
        program = load_program(TERMINATING_SOURCE)
        report = sct_terminates(program.rules)
        assert report.terminates

    def test_non_terminating_definitions_rejected(self):
        program = load_program(LOOPING_SOURCE)
        report = sct_terminates(program.rules)
        assert not report.terminates
        assert report.violation is not None

    def test_call_graphs_extracted(self, nat_program):
        edges = call_graphs_of(nat_program.rules)
        callers = {edge.caller for edge in edges}
        assert "add" in callers and "mul" in callers
