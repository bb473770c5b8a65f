"""Differential tests guarding the profile-guided hot-path optimisations.

The optimisation pass (see ``docs/profiling.md``) rewrote the size-change
closure, the matcher, substitution application and the normaliser's reduct
handling — all behaviour-preserving by construction, all guarded here by
construction-independent evidence:

* **Hypothesis differentials**: the optimised implementations against the
  verbatim pre-optimisation copies (:mod:`repro.core.reference`,
  :mod:`repro.sizechange.reference`) on random inputs — for the closure,
  which keeps only subsumption-minimal graphs, that means the same verdicts
  and a kept set that covers the full closure, plus LIFO add/undo scripts
  checked against the from-scratch :func:`closure_of`;
* **pinned full-suite parity**: the IsaPlanner + mutual suites under a
  deterministic node budget (``dfs``, wall clock off) must reproduce a
  hard-coded per-goal (status, node-count) signature — under compiled AND
  generic rewrite dispatch — so any fast path that changes search behaviour
  flips a pinned literal;
* a slice-level end-to-end check that the shipped prover and the
  reference-patched prover (:func:`repro.perf.reference_hot_paths`) agree
  goal by goal.  (The full-suite version of this comparison runs in
  ``benchmarks/bench_hot_loop.py``, where it gates the speedup claim.)
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks_data.registry import isaplanner_problems, mutual_problems
from repro.core.matching import match_or_none
from repro.core.reference import reference_apply, reference_match_or_none
from repro.core.substitution import Substitution
from repro.core.terms import Sym, Var, apply_term
from repro.core.types import DataTy
from repro.harness.runner import run_suite
from repro.perf import reference_hot_paths
from repro.search.config import ProverConfig
from repro.sizechange.closure import IncrementalClosure, closure_of, find_violation
from repro.sizechange.graph import SizeChangeGraph
from repro.sizechange.reference import (
    ReferenceIncrementalClosure,
    _reference_is_idempotent,
    reference_compose,
)

NAT = DataTy("Nat")

# ---------------------------------------------------------------------------
# Term strategies: the Nat signature {Z, S, add, mul} over variables x, y, z
# ---------------------------------------------------------------------------

_variables = st.sampled_from([Var("x", NAT), Var("y", NAT), Var("z", NAT)])
_constants = st.sampled_from([Sym("Z")])


def _apps(children):
    unary = st.builds(lambda a: apply_term(Sym("S"), a), children)
    binary = st.builds(
        lambda f, a, b: apply_term(Sym(f), a, b),
        st.sampled_from(["add", "mul"]),
        children,
        children,
    )
    return unary | binary


terms = st.recursive(_variables | _constants, _apps, max_leaves=12)
open_terms = terms.filter(lambda t: bool(t._fvs))
substitutions = st.fixed_dictionaries(
    {},
    optional={"x": terms, "y": terms, "z": terms},
).map(Substitution)
single_binding_substs = st.builds(
    lambda name, term: Substitution({name: term}),
    st.sampled_from(["x", "y", "z"]),
    terms,
)


class TestMatchingDifferential:
    @given(terms, terms)
    def test_match_agrees_with_reference_on_arbitrary_pairs(self, pattern, target):
        fast = match_or_none(pattern, target)
        slow = reference_match_or_none(pattern, target)
        if slow is None:
            assert fast is None
        else:
            assert fast is not None
            assert dict(fast) == dict(slow)

    @given(terms, substitutions)
    def test_match_agrees_with_reference_on_instances(self, pattern, theta):
        # Guaranteed-match direction: the target IS an instance of the pattern.
        target = theta.apply(pattern)
        fast = match_or_none(pattern, target)
        slow = reference_match_or_none(pattern, target)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert dict(fast) == dict(slow)
            assert fast.apply(pattern) == target

    @given(terms, terms, substitutions)
    def test_match_agrees_with_reference_under_pre_bindings(self, pattern, target, pre):
        pre_bindings = dict(pre._mapping)
        fast = match_or_none(pattern, target, pre_bindings)
        slow = reference_match_or_none(pattern, target, pre_bindings)
        if slow is None:
            assert fast is None
        else:
            assert fast is not None
            assert dict(fast) == dict(slow)


class TestSubstitutionDifferential:
    @given(terms, substitutions)
    def test_apply_agrees_with_reference(self, term, theta):
        assert theta.apply(term) == reference_apply(theta, term)

    @given(terms, single_binding_substs)
    def test_single_binding_specialisation_agrees(self, term, theta):
        # The len(mapping) == 1 fast path (_apply_single).
        assert theta.apply(term) == reference_apply(theta, term)

    @given(terms)
    def test_empty_substitution_is_identity_object(self, term):
        assert Substitution().apply(term) is term

    @given(open_terms, single_binding_substs)
    def test_single_binding_identity_preservation(self, term, theta):
        # When the bound variable does not occur, the fast path must return
        # the original object (hash-consing relies on it), like the reference.
        (name,) = theta.domain()
        if all(v.name != name for v in term._fvs):
            assert theta.apply(term) is term

    def test_large_term_path_agrees_with_reference(self):
        # Drive the memoised >128-node traversal (the small-term fast paths
        # never see it): a deep S-spine over a shared open subterm.
        base = apply_term(Sym("add"), Var("x", NAT), Var("y", NAT))
        term = base
        for _ in range(140):
            term = apply_term(Sym("S"), term)
        wide = apply_term(Sym("mul"), term, base)
        for theta in (
            Substitution({"x": apply_term(Sym("S"), Sym("Z"))}),
            Substitution({"x": Sym("Z"), "y": apply_term(Sym("S"), Sym("Z"))}),
            Substitution({"w": Sym("Z")}),
        ):
            assert theta.apply(wide) == reference_apply(theta, wide)


# ---------------------------------------------------------------------------
# Size-change graphs and the incremental closure
# ---------------------------------------------------------------------------

# Small vertex/name spaces: closures over two vertices grow combinatorially
# in the number of edge labels, and the point here is agreement, not volume.
_names = st.sampled_from(["x", "y", "z"])
_edge_lists = st.lists(st.tuples(_names, _names, st.booleans()), max_size=5)


def _graph(source, target, edges):
    return SizeChangeGraph.make(source, target, edges)


graphs_0_1 = st.builds(lambda e: _graph(0, 1, e), _edge_lists)
graphs_1_0 = st.builds(lambda e: _graph(1, 0, e), _edge_lists)
graphs_0_0 = st.builds(lambda e: _graph(0, 0, e), _edge_lists)
mixed_graphs = st.lists(graphs_0_1 | graphs_1_0 | graphs_0_0, min_size=1, max_size=6)


class TestClosureDifferential:
    @given(graphs_0_1, graphs_1_0)
    def test_compose_agrees_with_reference(self, g1, g2):
        assert g1.compose(g2) == reference_compose(g1, g2)
        assert g2.compose(g1) == reference_compose(g2, g1)

    @given(graphs_0_0)
    def test_idempotency_check_agrees_with_reference(self, g):
        assert g.is_idempotent() == _reference_is_idempotent(g)

    @settings(deadline=None, max_examples=30)
    @given(mixed_graphs)
    def test_incremental_closure_agrees_with_reference(self, graphs):
        # The shipped closure keeps only the subsumption-minimal graphs, so
        # its graph set and composition count are smaller than the
        # reference's; what must agree is every verdict, under the prover's
        # discipline of undoing an add that reports a violation.
        fast = IncrementalClosure()
        slow = ReferenceIncrementalClosure()
        for graph in graphs:
            fast_result = fast.add(graph)
            slow_result = slow.add(graph)
            assert (fast_result.violation is None) == (slow_result.violation is None)
            if fast_result.violation is not None:
                fast.remove(fast_result.added)
                slow.remove(slow_result.added)
            kept = frozenset(fast.graphs())
            full = frozenset(slow.graphs())
            assert kept <= full
            assert all(any(_subsumes(k, g) for k in kept) for g in full)
        assert fast.is_sound() == slow.is_sound()

    @settings(deadline=None, max_examples=30)
    @given(mixed_graphs, graphs_0_0)
    def test_closure_undo_agrees_with_reference(self, prefix, probe):
        # The prover's chronological trail: add, record the consequences,
        # remove them again.  Both closures must land back where they were.
        fast = IncrementalClosure()
        slow = ReferenceIncrementalClosure()
        for graph in prefix:
            fast.add(graph)
            slow.add(graph)
        fast_before = frozenset(fast.graphs())
        slow_before = frozenset(slow.graphs())
        fast_result = fast.add(probe)
        slow_result = slow.add(probe)
        fast.remove(fast_result.added)
        slow.remove(slow_result.added)
        assert frozenset(fast.graphs()) == fast_before
        assert frozenset(slow.graphs()) == slow_before
        # Re-adding after the undo must behave identically too (this is where
        # a stale memo, key-set entry or unrestored eviction would show).
        fast_again = fast.add(probe)
        slow_again = slow.add(probe)
        assert (fast_again.violation is None) == (fast_result.violation is None)
        assert (slow_again.violation is None) == (slow_result.violation is None)
        assert frozenset(fast_again.added) == frozenset(fast_result.added)


def _subsumes(small, large):
    """``small ⊑ large``, spelled out edge by edge (independently of the
    closure's own weakened-edge-set test)."""
    if (small.source, small.target) != (large.source, large.target):
        return False
    return all(
        (x, y, True) in large.edges or (not dec and (x, y, False) in large.edges)
        for x, y, dec in small.edges
    )


def _minimal(graphs):
    return {g for g in graphs if not any(h != g and _subsumes(h, g) for h in graphs)}


graphs_1_1 = st.builds(lambda e: _graph(1, 1, e), _edge_lists)
graphs_1_2 = st.builds(lambda e: _graph(1, 2, e), _edge_lists)
graphs_2_0 = st.builds(lambda e: _graph(2, 0, e), _edge_lists)
_any_graph = graphs_0_1 | graphs_1_0 | graphs_0_0 | graphs_1_1 | graphs_1_2 | graphs_2_0

#: A LIFO script for the closure: a graph to add, or ``None`` to undo the
#: most recent add still in effect (a no-op when there is none).
_scripts = st.lists(st.one_of(_any_graph, st.none()), min_size=1, max_size=10)


class TestAntichainClosure:
    """The antichain closure against the from-scratch full closure."""

    @settings(deadline=None, max_examples=60)
    @given(_scripts)
    def test_lifo_script_matches_full_closure(self, script):
        closure = IncrementalClosure()
        live = []  # (graph, AdditionResult) per add still in effect
        for step in script:
            if step is None:
                if live:
                    closure.remove(live.pop()[1].added)
            else:
                result = closure.add(step)
                live.append((step, result))
                # Every add reports a violation exactly when the full
                # closure of everything added so far has one.
                full = closure_of(graph for graph, _ in live)
                assert (result.violation is None) == (find_violation(full) is None)
                if result.violation is not None:
                    assert result.violation in full
                    assert result.violation.is_idempotent()
                    assert not result.violation.has_decreasing_self_edge()
            full = closure_of(graph for graph, _ in live)
            kept = set(closure.graphs())
            # The kept set is a subset of the full closure that covers it
            # under ⊑ — which pins it to the full closure's minimal graphs.
            assert kept <= full
            assert all(any(_subsumes(k, g) for k in kept) for g in full)
            assert kept == _minimal(full)
            assert closure.is_sound() == (find_violation(full) is None)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(_any_graph, max_size=6), _any_graph)
    def test_undo_restores_exact_state_and_readd_repeats(self, prefix, probe):
        closure = IncrementalClosure()
        for graph in prefix:
            closure.add(graph)
        before = set(closure.graphs())
        sound_before = closure.is_sound()
        first = closure.add(probe)
        after = set(closure.graphs())
        closure.remove(first.added)
        # Graphs evicted by the add come back; graphs the add kept and then
        # evicted itself do not.
        assert set(closure.graphs()) == before
        assert closure.is_sound() == sound_before
        again = closure.add(probe)
        assert set(closure.graphs()) == after
        assert (again.violation is None) == (first.violation is None)
        assert set(again.added) == set(first.added)


# ---------------------------------------------------------------------------
# Pinned full-suite parity
# ---------------------------------------------------------------------------

#: Per-goal (status, nodes) for the full IsaPlanner + mutual suites at
#: ``ProverConfig(timeout=None, max_nodes=60, strategy="dfs",
#: falsify_first=True)`` — recorded when the hot-path optimisation pass
#: landed, identical under compiled and generic dispatch and identical to
#: the pre-optimisation search.  Any fast path that changes search
#: behaviour flips one of these literals.
PINNED_SUITE_SIGNATURE = {
    "prop_01": ("proved", 12),
    "prop_02": ("failed", 61),
    "prop_03": ("failed", 61),
    "prop_04": ("failed", 61),
    "prop_05": ("out-of-scope", 0),
    "prop_06": ("proved", 10),
    "prop_07": ("proved", 6),
    "prop_08": ("proved", 6),
    "prop_09": ("failed", 61),
    "prop_10": ("proved", 6),
    "prop_11": ("proved", 2),
    "prop_12": ("proved", 11),
    "prop_13": ("proved", 2),
    "prop_14": ("failed", 61),
    "prop_15": ("failed", 61),
    "prop_16": ("out-of-scope", 0),
    "prop_17": ("proved", 5),
    "prop_18": ("proved", 6),
    "prop_19": ("proved", 11),
    "prop_20": ("failed", 61),
    "prop_21": ("proved", 6),
    "prop_22": ("proved", 20),
    "prop_23": ("proved", 22),
    "prop_24": ("proved", 22),
    "prop_25": ("proved", 16),
    "prop_26": ("out-of-scope", 0),
    "prop_27": ("out-of-scope", 0),
    "prop_28": ("proved", 24),
    "prop_29": ("failed", 61),
    "prop_30": ("failed", 61),
    "prop_31": ("proved", 20),
    "prop_32": ("proved", 22),
    "prop_33": ("proved", 11),
    "prop_34": ("proved", 17),
    "prop_35": ("proved", 5),
    "prop_36": ("proved", 8),
    "prop_37": ("failed", 61),
    "prop_38": ("failed", 61),
    "prop_39": ("failed", 61),
    "prop_40": ("proved", 2),
    "prop_41": ("proved", 13),
    "prop_42": ("proved", 2),
    "prop_43": ("failed", 9),
    "prop_44": ("proved", 5),
    "prop_45": ("proved", 2),
    "prop_46": ("proved", 2),
    "prop_47": ("failed", 61),
    "prop_48": ("out-of-scope", 0),
    "prop_49": ("failed", 61),
    "prop_50": ("proved", 14),
    "prop_51": ("proved", 12),
    "prop_52": ("failed", 61),
    "prop_53": ("failed", 61),
    "prop_54": ("failed", 61),
    "prop_55": ("proved", 53),
    "prop_56": ("failed", 61),
    "prop_57": ("proved", 27),
    "prop_58": ("proved", 27),
    "prop_59": ("out-of-scope", 0),
    "prop_60": ("out-of-scope", 0),
    "prop_61": ("failed", 61),
    "prop_62": ("out-of-scope", 0),
    "prop_63": ("out-of-scope", 0),
    "prop_64": ("proved", 10),
    "prop_65": ("failed", 61),
    "prop_66": ("failed", 9),
    "prop_67": ("proved", 13),
    "prop_68": ("failed", 61),
    "prop_69": ("failed", 61),
    "prop_70": ("out-of-scope", 0),
    "prop_71": ("out-of-scope", 0),
    "prop_72": ("failed", 61),
    "prop_73": ("failed", 9),
    "prop_74": ("failed", 61),
    "prop_75": ("failed", 61),
    "prop_76": ("out-of-scope", 0),
    "prop_77": ("out-of-scope", 0),
    "prop_78": ("failed", 33),
    "prop_79": ("failed", 61),
    "prop_80": ("proved", 17),
    "prop_81": ("failed", 61),
    "prop_82": ("proved", 21),
    "prop_83": ("proved", 16),
    "prop_84": ("proved", 19),
    "prop_85": ("out-of-scope", 0),
    "mprop_01": ("proved", 15),
    "mprop_02": ("proved", 15),
    "mprop_03": ("proved", 13),
    "mprop_04": ("proved", 39),
    "mprop_05": ("proved", 13),
    "mprop_06": ("proved", 27),
    "mprop_07": ("proved", 15),
    "mprop_08": ("proved", 15),
}


def _parity_config(compiled):
    return ProverConfig(
        timeout=None,
        max_nodes=60,
        strategy="dfs",
        falsify_first=True,
        compile_rules=compiled,
    )


def _suite_signature(result):
    return {r.name: (r.status, r.nodes) for r in result.records}


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "generic"])
def test_full_suite_matches_pinned_signature(compiled):
    problems = isaplanner_problems() + mutual_problems()
    result = run_suite(problems, _parity_config(compiled))
    signature = _suite_signature(result)
    diff = {
        name: (signature.get(name), pinned)
        for name, pinned in PINNED_SUITE_SIGNATURE.items()
        if signature.get(name) != pinned
    }
    assert not diff, f"suite signature drifted from the pinned baseline: {diff}"
    assert set(signature) == set(PINNED_SUITE_SIGNATURE)


def test_slice_parity_optimised_vs_reference_hot_paths():
    # End-to-end spot check of the measurement seam itself: the shipped
    # prover and the fully reference-patched prover agree goal by goal.
    # (benchmarks/bench_hot_loop.py runs the larger asserted version.)
    problems = isaplanner_problems()[:6] + mutual_problems()[:2]
    config = _parity_config(compiled=True)
    optimised = run_suite(problems, config)
    with reference_hot_paths():
        reference = run_suite(problems, config)
    assert [(r.name, r.status, r.nodes) for r in optimised.records] == [
        (r.name, r.status, r.nodes) for r in reference.records
    ]
