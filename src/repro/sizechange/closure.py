"""Closure of size-change graphs and the incremental global-condition check.

Definition 5.4 closes the per-edge size-change graphs of a preproof under
composition; Theorem 5.2 then reduces the global correctness condition (for
variable traces over the substructural order) to the property that every
idempotent self graph in the closure has a strictly decreasing self edge.

Two interfaces are provided:

* :func:`closure_of` / :func:`check_global_condition` — the "from scratch"
  computation, corresponding to how a non-incremental prover (e.g. Cyclist)
  would re-validate every candidate proof;
* :class:`IncrementalClosure` — the approach of Section 5.2: the closure is
  maintained as the proof graph grows, each newly uncovered edge composes with
  what is already known, violations are detected the moment they appear, and a
  trail of additions supports backtracking during proof search.  It keeps only
  the subsumption-minimal graphs of the closure, which decide Theorem 5.2 just
  as well (Ramsey-style antichain pruning, as in size-change termination
  checkers); the from-scratch functions keep the full closure and serve as
  its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .graph import SizeChangeGraph, compose_edges

__all__ = [
    "closure_of",
    "check_global_condition",
    "find_violation",
    "AdditionResult",
    "IncrementalClosure",
]


def closure_of(graphs: Iterable[SizeChangeGraph], max_graphs: int = 100_000) -> Set[SizeChangeGraph]:
    """The least set containing ``graphs`` and closed under composition."""
    closure: Set[SizeChangeGraph] = set(graphs)
    by_source: Dict[int, Set[SizeChangeGraph]] = {}
    by_target: Dict[int, Set[SizeChangeGraph]] = {}
    for g in closure:
        by_source.setdefault(g.source, set()).add(g)
        by_target.setdefault(g.target, set()).add(g)
    worklist: List[SizeChangeGraph] = list(closure)
    while worklist:
        graph = worklist.pop()
        successors = list(by_source.get(graph.target, ()))
        predecessors = list(by_target.get(graph.source, ()))
        candidates = [graph.compose(nxt) for nxt in successors]
        candidates.extend(prev.compose(graph) for prev in predecessors)
        for candidate in candidates:
            if candidate not in closure:
                closure.add(candidate)
                by_source.setdefault(candidate.source, set()).add(candidate)
                by_target.setdefault(candidate.target, set()).add(candidate)
                worklist.append(candidate)
                if len(closure) > max_graphs:
                    raise RuntimeError("size-change closure exceeded its size budget")
    return closure


def find_violation(closure: Iterable[SizeChangeGraph]) -> Optional[SizeChangeGraph]:
    """An idempotent self graph without a decreasing self edge, if one exists."""
    for graph in closure:
        if graph.is_self_graph() and graph.is_idempotent() and not graph.has_decreasing_self_edge():
            return graph
    return None


def check_global_condition(graphs: Iterable[SizeChangeGraph]) -> bool:
    """Theorem 5.2: is every idempotent self-loop of the closure progressing?"""
    return find_violation(closure_of(graphs)) is None


@dataclass
class AdditionResult:
    """The result of adding one edge graph to an :class:`IncrementalClosure`."""

    added: Tuple[SizeChangeGraph, ...]
    """Graphs newly kept in the closure by this addition (what undo removes)."""

    violation: Optional[SizeChangeGraph]
    """An idempotent self graph without a decreasing self edge in the closure."""

    @property
    def sound(self) -> bool:
        """Did the addition keep the closure free of violations?"""
        return self.violation is None


class IncrementalClosure:
    """The closure of Section 5.2, kept as an antichain under subsumption.

    Proof search adds the size-change graph of every edge as the corresponding
    node is uncovered; compositions with the graphs already known are computed
    eagerly, so the moment a cycle becomes unsound a violation is reported and
    the search can abandon the branch.

    Only the ⊑-minimal graphs of the closure are kept (``G ⊑ H``: same
    endpoints, every edge of ``G`` in ``H`` with a label at least as strong;
    see :func:`weakened_edges`).  Composition is monotone in
    ⊑ and the condition of Theorem 5.2 is downward-closed, so the kept set —
    exactly the minimal elements of the full closure — decides the condition
    for the full closure: it is violated iff some kept self graph ``P`` has an
    idempotent power ``P^ω`` without a decreasing self edge
    (``docs/proofs.md`` has the argument).  Each :meth:`add` therefore
    reports a violation exactly when :func:`closure_of` followed by
    :func:`find_violation` would find one, at a fraction of the compositions.

    :meth:`remove` supports chronological backtracking: it must be called with
    exactly the graphs reported by the most recent :meth:`add` not yet undone,
    which is the discipline a depth-first search naturally follows.  It also
    restores the graphs that add evicted.
    """

    def __init__(self) -> None:
        # The raw (source, target, edges) keys of every graph known to be
        # covered: the kept graphs, and the graphs found subsumed by a kept
        # one (rejected candidates, evicted graphs).  The add() hot loop
        # tests candidate compositions against it *before* paying for a graph
        # object.  A key stays covered until the add() that covered it is
        # undone: later adds only ever replace a kept graph by a smaller one.
        self._keys: Set[Tuple[int, int, frozenset]] = set()
        self._by_source: Dict[int, Set[SizeChangeGraph]] = {}
        self._by_target: Dict[int, Set[SizeChangeGraph]] = {}
        # The antichain buckets, one per (source, target) pair since
        # subsumption only relates graphs with the same endpoints; each kept
        # graph maps to its weakened edges, the subsumption test's operand.
        self._by_pair: Dict[Tuple[int, int], Dict[SizeChangeGraph, frozenset]] = {}
        # One (added, evicted with their weakened edges, newly covered keys,
        # violation before the add) record per add().
        self._undo: List[
            Tuple[
                Tuple[SizeChangeGraph, ...],
                List[Tuple[SizeChangeGraph, frozenset]],
                List[Tuple[int, int, frozenset]],
                Optional[SizeChangeGraph],
            ]
        ] = []
        self._violation: Optional[SizeChangeGraph] = None
        # Composition memo: (left edges, right edges) -> composed edges.
        # Composition is a pure function of the two edge sets, and depth-first
        # search re-derives the same compositions across branches relentlessly
        # (measured with pruning: 1.75x end to end, see docs/profiling.md), so
        # the memo outlives remove()/clear() — staleness is impossible, only
        # size needs bounding (see _MEMO_LIMIT).
        self._compose_memo: Dict[Tuple[frozenset, frozenset], frozenset] = {}
        # Edges -> weakened edges (see weakened_edges), bounded alike.
        self._weak_memo: Dict[frozenset, frozenset] = {}
        self.compositions_performed = 0

    #: Entry cap on the composition memo; far above anything proof search
    #: reaches per theory (measured: low thousands), so the reset-on-overflow
    #: is a memory backstop, not a working regime.
    _MEMO_LIMIT = 200_000

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_pair.values())

    def __contains__(self, graph: SizeChangeGraph) -> bool:
        return graph in self._by_pair.get((graph.source, graph.target), ())

    def graphs(self) -> Tuple[SizeChangeGraph, ...]:
        """The ⊑-minimal graphs of the closure."""
        return tuple(graph for bucket in self._by_pair.values() for graph in bucket)

    def self_graphs(self, vertex: int) -> Tuple[SizeChangeGraph, ...]:
        """The ⊑-minimal closure graphs from ``vertex`` to itself."""
        return tuple(self._by_pair.get((vertex, vertex), ()))

    def is_sound(self) -> bool:
        """Does the current closure satisfy Theorem 5.2?"""
        return self._violation is None

    # -- updates --------------------------------------------------------------

    def add(self, edge_graph: SizeChangeGraph) -> AdditionResult:
        """Add the size-change graph of a newly uncovered edge.

        All compositions with the kept graphs are computed; a candidate
        subsumed by a kept graph is dropped, and one that subsumes kept graphs
        evicts them.  The returned :class:`AdditionResult` lists the graphs
        this call left in the closure (for undo) and reports a violation if
        the closure is now unsound.
        """
        keys = self._keys
        by_source = self._by_source
        by_target = self._by_target
        by_pair = self._by_pair
        memo = self._compose_memo
        if len(memo) > self._MEMO_LIMIT:
            memo.clear()
        weak_memo = self._weak_memo
        if len(weak_memo) > self._MEMO_LIMIT:
            weak_memo.clear()
        prior = violation = self._violation
        inserted: List[SizeChangeGraph] = []
        evicted: List[Tuple[SizeChangeGraph, frozenset]] = []
        covered: List[Tuple[int, int, frozenset]] = []
        compositions = 0
        worklist: List[SizeChangeGraph] = [edge_graph]
        while worklist:
            graph = worklist.pop()
            source = graph.source
            target = graph.target
            edges = graph.edges
            key = (source, target, edges)
            if key in keys:
                continue
            keys.add(key)
            covered.append(key)
            weak = weak_memo.get(edges)
            if weak is None:
                weak = weak_memo[edges] = weakened_edges(edges)
            pair = (source, target)
            bucket = by_pair.get(pair)
            if bucket is None:
                bucket = by_pair[pair] = {}
            elif bucket:
                # One pass over the (small) bucket: either a kept graph
                # subsumes the candidate, or the candidate may subsume some
                # kept graphs — never both, as the bucket is an antichain.
                subsumed = False
                dominated: List[Tuple[SizeChangeGraph, frozenset]] = []
                for kept, kept_weak in bucket.items():
                    if kept.edges <= weak:
                        subsumed = True
                        break
                    if edges <= kept_weak:
                        dominated.append((kept, kept_weak))
                if subsumed:
                    continue
                for entry in dominated:
                    kept = entry[0]
                    del bucket[kept]
                    by_source[source].discard(kept)
                    by_target[target].discard(kept)
                    evicted.append(entry)
            bucket[graph] = weak
            bucket = by_source.get(source)
            if bucket is None:
                bucket = by_source[source] = set()
            bucket.add(graph)
            bucket = by_target.get(target)
            if bucket is None:
                bucket = by_target[target] = set()
            bucket.add(graph)
            inserted.append(graph)
            if violation is None and source == target:
                # Cheapest test first: a decreasing self edge on P is one on
                # every power of P, which settles it without composing.
                if not any(x == y and dec for x, y, dec in edges):
                    power = _idempotent_power(edges, graph.succ_index(), memo)
                    if not any(x == y and dec for x, y, dec in power):
                        violation = SizeChangeGraph(source, target, power)
            # The candidate compositions, each looked up in the memo before
            # being computed and deduplicated on the raw key before a graph
            # object is built.  Nothing mutates the buckets between here and
            # the next pop, so no defensive copies; the just-inserted graph
            # itself participates (self-composition when source == target).
            for successor in by_source.get(target, ()):
                compositions += 1
                mkey = (edges, successor.edges)
                composed = memo.get(mkey)
                if composed is None:
                    composed = memo[mkey] = compose_edges(edges, successor.succ_index())
                candidate_target = successor.target
                if (source, candidate_target, composed) not in keys:
                    worklist.append(SizeChangeGraph(source, candidate_target, composed))
            for predecessor in by_target.get(source, ()):
                if predecessor is graph:
                    continue
                compositions += 1
                mkey = (predecessor.edges, edges)
                composed = memo.get(mkey)
                if composed is None:
                    composed = memo[mkey] = compose_edges(
                        predecessor.edges, graph.succ_index()
                    )
                candidate_source = predecessor.source
                if (candidate_source, target, composed) not in keys:
                    worklist.append(SizeChangeGraph(candidate_source, target, composed))
        if evicted:
            # A graph inserted and evicted again within this call is neither
            # added (it is gone) nor evicted (undo must not restore it).
            fresh = set(inserted)
            inserted = [
                graph for graph in inserted if graph in by_pair[(graph.source, graph.target)]
            ]
            evicted = [entry for entry in evicted if entry[0] not in fresh]
        added = tuple(inserted)
        self._undo.append((added, evicted, covered, prior))
        self._violation = violation
        self.compositions_performed += compositions
        return AdditionResult(added=added, violation=violation)

    def remove(self, graphs: Iterable[SizeChangeGraph]) -> None:
        """Undo the most recent :meth:`add`, given the graphs it reported.

        Removes those graphs and restores the graphs that add evicted.
        """
        if not self._undo:
            raise ValueError("remove() without a matching add()")
        added, evicted, covered, prior = self._undo[-1]
        if graphs is not added and set(graphs) != set(added):
            raise ValueError("remove() must undo the most recent add()")
        self._undo.pop()
        by_pair = self._by_pair
        by_source = self._by_source
        by_target = self._by_target
        for graph in added:
            del by_pair[(graph.source, graph.target)][graph]
            by_source[graph.source].discard(graph)
            by_target[graph.target].discard(graph)
        for graph, weak in evicted:
            by_pair[(graph.source, graph.target)][graph] = weak
            by_source[graph.source].add(graph)
            by_target[graph.target].add(graph)
        self._keys.difference_update(covered)
        self._violation = prior

    def clear(self) -> None:
        """Remove every graph."""
        self._keys.clear()
        self._by_source.clear()
        self._by_target.clear()
        self._by_pair.clear()
        self._undo.clear()
        self._violation = None


def weakened_edges(edges: frozenset) -> frozenset:
    """``edges`` plus a non-decreasing copy of every decreasing edge.

    Subsumption is then a subset test: ``G ⊑ H`` (same endpoints, every edge
    of ``G`` in ``H`` with a label at least as strong) iff
    ``G.edges <= weakened_edges(H.edges)``.
    """
    strict = [(x, y, False) for x, y, dec in edges if dec]
    return edges.union(strict) if strict else edges


def _idempotent_power(
    edges: frozenset,
    index: Dict[str, Tuple[Tuple[str, bool], ...]],
    memo: Dict[Tuple[frozenset, frozenset], frozenset],
) -> frozenset:
    """The edges of ``P^ω``, the unique idempotent power of the self graph ``P``.

    ``edges``/``index`` are ``P``'s edges and successor index.  The powers
    ``P, P², …`` are eventually periodic; with ``P^i`` the first repeated
    power and ``p`` the period, ``P^m`` is idempotent for the least multiple
    ``m`` of ``p`` with ``m >= i``.
    """
    powers = [edges]
    seen = {edges: 1}
    power = edges
    while True:
        mkey = (power, edges)
        following = memo.get(mkey)
        if following is None:
            following = memo[mkey] = compose_edges(power, index)
        first = seen.get(following)
        if first is not None:
            break
        powers.append(following)
        seen[following] = len(powers)
        power = following
    period = len(powers) + 1 - first
    exponent = -(-first // period) * period
    return powers[exponent - 1]
